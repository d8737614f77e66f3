#include "numerics/preconditioner.h"

#include <cmath>

#include "common/check.h"
#include "obs/obs.h"

namespace viaduct {

void IdentityPreconditioner::apply(std::span<const double> r,
                                   std::span<double> z) const {
  VIADUCT_REQUIRE(r.size() == z.size());
  std::copy(r.begin(), r.end(), z.begin());
}

JacobiPreconditioner::JacobiPreconditioner(const CsrMatrix& a) {
  VIADUCT_SPAN("precond.jacobi_setup");
  VIADUCT_REQUIRE(a.rows() == a.cols());
  invDiag_ = a.diagonal();
  for (double& d : invDiag_) d = (d > 1e-300) ? 1.0 / d : 1.0;
}

void JacobiPreconditioner::apply(std::span<const double> r,
                                 std::span<double> z) const {
  VIADUCT_REQUIRE(r.size() == invDiag_.size() && z.size() == r.size());
  for (std::size_t i = 0; i < r.size(); ++i) z[i] = invDiag_[i] * r[i];
}

IncompleteCholeskyPreconditioner::IncompleteCholeskyPreconditioner(
    const CsrMatrix& a) {
  VIADUCT_SPAN("precond.ic0_setup");
  VIADUCT_REQUIRE(a.rows() == a.cols());
  n_ = a.rows();
  const CscLowerMatrix lower = CscLowerMatrix::fromCsr(a);
  double shift = 0.0;
  for (int attempt = 0; attempt < 12; ++attempt) {
    if (tryFactor(lower, shift)) {
      shift_ = shift;
      return;
    }
    shift = (shift == 0.0) ? 1e-3 : shift * 4.0;
  }
  throw NumericalError("IC(0) failed even with large diagonal shift");
}

bool IncompleteCholeskyPreconditioner::tryFactor(const CscLowerMatrix& lower,
                                                 double shift) {
  colPtr_.assign(lower.colPointers().begin(), lower.colPointers().end());
  rowIdx_.assign(lower.rowIndices().begin(), lower.rowIndices().end());
  values_.assign(lower.values().begin(), lower.values().end());

  // Apply relative diagonal shift.
  if (shift != 0.0) {
    for (Index j = 0; j < n_; ++j) {
      for (Index k = colPtr_[j]; k < colPtr_[j + 1]; ++k) {
        if (rowIdx_[k] == j) values_[k] *= (1.0 + shift);
      }
    }
  }

  // Left-looking IC(0), keeping only the original sparsity pattern.
  // For each column j: L[j][j] = sqrt(A[j][j] - sum L[j][k]^2), etc.
  // We iterate columns; for updates we need, per column k < j, the entries
  // L[i][k] with i >= j. Use the standard "first uneliminated row per
  // column" worklist (as in textbook ic0 on CSC lower storage).
  std::vector<Index> nextEntry(static_cast<std::size_t>(n_), 0);
  std::vector<Index> listHead(static_cast<std::size_t>(n_), -1);
  std::vector<Index> listNext(static_cast<std::size_t>(n_), -1);
  std::vector<double> work(static_cast<std::size_t>(n_), 0.0);
  std::vector<Index> touched;

  for (Index j = 0; j < n_; ++j) {
    // Scatter column j of A (lower part) into work.
    for (Index k = colPtr_[j]; k < colPtr_[j + 1]; ++k)
      work[rowIdx_[k]] = values_[k];

    // Apply updates from all columns k with L[j][k] != 0. Updates may land
    // on rows outside column j's pattern; record them so they can be
    // discarded afterwards (the IC(0) drop rule).
    touched.clear();
    for (Index k = listHead[j]; k != -1;) {
      const Index nextK = listNext[k];
      const Index start = nextEntry[k];  // entry with row index == j
      const double ljk = values_[start];
      for (Index p = start; p < colPtr_[k + 1]; ++p) {
        const Index i = rowIdx_[p];
        work[i] -= ljk * values_[p];
        touched.push_back(i);
      }
      // Advance column k to its next below-diagonal row and re-thread it
      // into that row's list.
      const Index newStart = start + 1;
      nextEntry[k] = newStart;
      if (newStart < colPtr_[k + 1]) {
        const Index row = rowIdx_[newStart];
        listNext[k] = listHead[row];
        listHead[row] = k;
      }
      k = nextK;
    }

    // Gather by column j's pattern.
    const Index diagPos = colPtr_[j];
    VIADUCT_CHECK_MSG(rowIdx_[diagPos] == j,
                      "lower-CSC must store the diagonal first");
    const double djj = work[j];
    const bool positive = djj > 0.0;
    if (positive) {
      const double ljj = std::sqrt(djj);
      values_[diagPos] = ljj;
      for (Index k = diagPos + 1; k < colPtr_[j + 1]; ++k)
        values_[k] = work[rowIdx_[k]] / ljj;
    }
    // Clear every written position (pattern + out-of-pattern updates).
    for (Index k = colPtr_[j]; k < colPtr_[j + 1]; ++k) work[rowIdx_[k]] = 0.0;
    for (const Index i : touched) work[i] = 0.0;
    if (!positive) return false;

    // Thread column j into the list for its first below-diagonal row.
    nextEntry[j] = diagPos + 1;
    if (diagPos + 1 < colPtr_[j + 1]) {
      const Index row = rowIdx_[diagPos + 1];
      listNext[j] = listHead[row];
      listHead[row] = j;
    }
    listHead[j] = -1;  // column j's own list is no longer needed
  }
  return true;
}

void IncompleteCholeskyPreconditioner::apply(std::span<const double> r,
                                             std::span<double> z) const {
  VIADUCT_REQUIRE(r.size() == static_cast<std::size_t>(n_) &&
                  z.size() == r.size());
  // Solve L y = r (forward, CSC): for each column j, y[j] = r'[j]/L[j][j],
  // then r'[i] -= L[i][j] * y[j].
  std::copy(r.begin(), r.end(), z.begin());
  for (Index j = 0; j < n_; ++j) {
    const Index start = colPtr_[j];
    z[j] /= values_[start];
    const double yj = z[j];
    for (Index k = start + 1; k < colPtr_[j + 1]; ++k)
      z[rowIdx_[k]] -= values_[k] * yj;
  }
  // Solve Lᵀ x = y (backward, CSC of L gives rows of Lᵀ).
  for (Index j = n_; j-- > 0;) {
    const Index start = colPtr_[j];
    double s = z[j];
    for (Index k = start + 1; k < colPtr_[j + 1]; ++k)
      s -= values_[k] * z[rowIdx_[k]];
    z[j] = s / values_[start];
  }
}

}  // namespace viaduct
