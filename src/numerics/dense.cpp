#include "numerics/dense.h"

#include <cmath>
#include <utility>

#include "common/check.h"

namespace viaduct {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& DenseMatrix::operator()(std::size_t r, std::size_t c) {
  VIADUCT_REQUIRE(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double DenseMatrix::operator()(std::size_t r, std::size_t c) const {
  VIADUCT_REQUIRE(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

std::vector<double> DenseMatrix::multiply(std::span<const double> x) const {
  VIADUCT_REQUIRE(x.size() == cols_);
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    const double* row = &data_[r * cols_];
    for (std::size_t c = 0; c < cols_; ++c) s += row[c] * x[c];
    y[r] = s;
  }
  return y;
}

std::vector<double> DenseMatrix::solve(std::span<const double> b) const {
  return DenseLu(*this).solve(b);
}

DenseMatrix DenseMatrix::solveMultiple(const DenseMatrix& b) const {
  VIADUCT_REQUIRE(rows_ == cols_ && b.rows() == rows_);
  const DenseLu lu(*this);
  DenseMatrix x(b.rows(), b.cols());
  std::vector<double> col(rows_);
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < rows_; ++r) col[r] = b(r, c);
    const auto sol = lu.solve(col);
    for (std::size_t r = 0; r < rows_; ++r) x(r, c) = sol[r];
  }
  return x;
}

double DenseMatrix::frobeniusNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

DenseMatrix DenseMatrix::transposed() const {
  DenseMatrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

namespace {

// The LU kernels behind DenseLu and invert3x3: one copy of the arithmetic,
// so a 3×3 inverse on the stack is bitwise the DenseLu one.

/// In-place partially-pivoted LU of the row-major n×n `lu`; `piv` receives
/// the row permutation. Throws NumericalError on a (near-)zero pivot.
[[gnu::always_inline]] inline void luFactorInPlace(double* lu, std::size_t* piv,
                                                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) piv[i] = i;
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot.
    std::size_t p = k;
    double best = std::abs(lu[k * n + k]);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(lu[r * n + k]);
      if (v > best) {
        best = v;
        p = r;
      }
    }
    if (best < 1e-300)
      throw NumericalError("DenseLu: matrix is singular to working precision");
    if (p != k) {
      for (std::size_t c = 0; c < n; ++c)
        std::swap(lu[k * n + c], lu[p * n + c]);
      std::swap(piv[k], piv[p]);
    }
    const double pivot = lu[k * n + k];
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu[r * n + k] / pivot;
      lu[r * n + k] = factor;
      if (factor != 0.0) {
        for (std::size_t c = k + 1; c < n; ++c)
          lu[r * n + c] -= factor * lu[k * n + c];
      }
    }
  }
}

/// x = A⁻¹ b from the factors of luFactorInPlace.
[[gnu::always_inline]] inline void luSolve(const double* lu,
                                           const std::size_t* piv,
                                           std::size_t n, const double* b,
                                           double* x) {
  for (std::size_t i = 0; i < n; ++i) x[i] = b[piv[i]];
  // Forward substitution (L has implicit unit diagonal).
  for (std::size_t r = 1; r < n; ++r) {
    double s = x[r];
    for (std::size_t c = 0; c < r; ++c) s -= lu[r * n + c] * x[c];
    x[r] = s;
  }
  // Back substitution.
  for (std::size_t ri = n; ri-- > 0;) {
    double s = x[ri];
    for (std::size_t c = ri + 1; c < n; ++c) s -= lu[ri * n + c] * x[c];
    x[ri] = s / lu[ri * n + ri];
  }
}

}  // namespace

DenseLu::DenseLu(const DenseMatrix& a) : n_(a.rows()) {
  VIADUCT_REQUIRE_MSG(a.rows() == a.cols(), "LU requires a square matrix");
  lu_.resize(n_ * n_);
  for (std::size_t r = 0; r < n_; ++r)
    for (std::size_t c = 0; c < n_; ++c) lu_[r * n_ + c] = a(r, c);
  piv_.resize(n_);
  luFactorInPlace(lu_.data(), piv_.data(), n_);
}

std::vector<double> DenseLu::solve(std::span<const double> b) const {
  VIADUCT_REQUIRE(b.size() == n_);
  std::vector<double> x(n_);
  luSolve(lu_.data(), piv_.data(), n_, b.data(), x.data());
  return x;
}

void invert3x3(const double* a, double* inv) {
  double lu[9];
  std::size_t piv[3];
  for (int i = 0; i < 9; ++i) lu[i] = a[i];
  luFactorInPlace(lu, piv, 3);
  // Column q of the inverse solves A x = e_q, as solveMultiple does.
  for (std::size_t q = 0; q < 3; ++q) {
    double e[3] = {0.0, 0.0, 0.0};
    e[q] = 1.0;
    double x[3];
    luSolve(lu, piv, 3, e, x);
    for (std::size_t p = 0; p < 3; ++p) inv[p * 3 + q] = x[p];
  }
}

}  // namespace viaduct
