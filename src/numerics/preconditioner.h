// Preconditioners for the conjugate-gradient solver.
//
// Jacobi (diagonal) is the robust default. IncompleteCholesky (IC(0) with
// diagonal shifting on breakdown) is the strongest option for the
// power-grid conductance matrices, which are M-matrices where IC(0) cannot
// break down at shift 0; the FEA solve's fallback rung runs it too. The
// FEA solve's own multigrid preconditioner lives in fea/multigrid.h.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "numerics/sparse.h"

namespace viaduct {

/// Interface: z = M^{-1} r for an SPD approximation M of A.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  virtual void apply(std::span<const double> r, std::span<double> z) const = 0;
  virtual const char* name() const = 0;
};

/// Identity (no preconditioning).
class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(std::span<const double> r, std::span<double> z) const override;
  const char* name() const override { return "identity"; }
};

/// Diagonal (Jacobi) preconditioner. Zero/negative diagonals are clamped.
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const CsrMatrix& a);
  void apply(std::span<const double> r, std::span<double> z) const override;
  const char* name() const override { return "jacobi"; }

 private:
  std::vector<double> invDiag_;
};

/// IC(0): incomplete Cholesky with zero fill, on the lower triangle of A.
/// If a diagonal goes non-positive during factorization, the factorization
/// restarts with an increased diagonal shift (up to a limit, then throws).
class IncompleteCholeskyPreconditioner final : public Preconditioner {
 public:
  explicit IncompleteCholeskyPreconditioner(const CsrMatrix& a);
  void apply(std::span<const double> r, std::span<double> z) const override;
  const char* name() const override { return "ic0"; }
  double shiftUsed() const { return shift_; }

 private:
  bool tryFactor(const CscLowerMatrix& lower, double shift);

  Index n_ = 0;
  double shift_ = 0.0;
  // CSC lower-triangular factor L (diag included).
  std::vector<Index> colPtr_;
  std::vector<Index> rowIdx_;
  std::vector<double> values_;
};

}  // namespace viaduct
