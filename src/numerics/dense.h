// Small dense linear algebra: row-major matrix with LU (partial pivoting)
// and Cholesky solves. Used for the via-array ladder network (a few hundred
// unknowns), the Woodbury capacitance system, and as a reference solver in
// tests. Not intended for large systems — those go through numerics/sparse.
#pragma once

#include <span>
#include <vector>

namespace viaduct {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static DenseMatrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  /// y = A x.
  std::vector<double> multiply(std::span<const double> x) const;

  /// Solves A x = b by LU with partial pivoting (A square, non-singular).
  /// Throws NumericalError on (near-)singularity.
  std::vector<double> solve(std::span<const double> b) const;

  /// Solves for several right-hand sides at once (columns of B).
  DenseMatrix solveMultiple(const DenseMatrix& b) const;

  /// Frobenius norm.
  double frobeniusNorm() const;

  DenseMatrix transposed() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// In-place LU factorization helper reused across solves with one A.
class DenseLu {
 public:
  explicit DenseLu(const DenseMatrix& a);
  std::vector<double> solve(std::span<const double> b) const;
  std::size_t size() const { return n_; }

 private:
  std::size_t n_;
  std::vector<double> lu_;        // packed row-major LU factors
  std::vector<std::size_t> piv_;  // row permutation
};

/// inv = A⁻¹ for a row-major 3×3 `a`, with no heap traffic: DenseLu's
/// partially-pivoted elimination and substitutions on the stack, so the
/// result is bitwise DenseMatrix::solveMultiple(identity(3)) and a
/// (near-)singular block throws the same NumericalError.
void invert3x3(const double* a, double* inv);

}  // namespace viaduct
