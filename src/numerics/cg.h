// Preconditioned conjugate gradient for SPD systems.
#pragma once

#include <span>
#include <vector>

#include "numerics/preconditioner.h"
#include "numerics/sparse.h"

namespace viaduct {

/// Abstract SPD operator for matrix-free solvers (e.g. the FEA engine,
/// whose voxel elements share a handful of distinct stiffness matrices and
/// never assemble a global matrix).
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;
  virtual Index size() const = 0;
  /// y = A x.
  virtual void apply(std::span<const double> x, std::span<double> y) const = 0;
};

/// Adapts a CsrMatrix to the LinearOperator interface. With a pool the
/// product is row-partitioned (bit-identical to serial for any pool size).
class CsrOperator final : public LinearOperator {
 public:
  explicit CsrOperator(const CsrMatrix& a, ThreadPool* pool = nullptr)
      : a_(a), pool_(pool) {}
  Index size() const override { return a_.rows(); }
  void apply(std::span<const double> x, std::span<double> y) const override {
    a_.multiply(x, y, pool_);
  }

 private:
  const CsrMatrix& a_;
  ThreadPool* pool_ = nullptr;
};

struct CgOptions {
  /// Relative residual target: stop when ||r|| <= tol * ||b||.
  double relativeTolerance = 1e-9;
  /// Absolute floor for the stopping criterion (useful when b ~ 0).
  double absoluteTolerance = 1e-300;
  int maxIterations = 10000;
  /// If true, a non-converged solve throws NumericalError; otherwise the
  /// result reports converged = false and the best iterate is returned.
  bool throwOnStall = true;
  /// Optional pool for the axpy/dot/update kernels (the operator and the
  /// preconditioner parallelize themselves). The reductions sum in fixed
  /// chunks whatever the pool, so CG's iterates are bit-identical for
  /// nullptr and for EVERY pool size, which is what makes threaded FEA
  /// deterministic.
  ThreadPool* pool = nullptr;
};

struct CgResult {
  int iterations = 0;
  double relativeResidual = 0.0;
  bool converged = false;
};

/// Solves A x = b with PCG. `x` holds the initial guess on input (warm
/// start) and the solution on output.
CgResult conjugateGradient(const LinearOperator& a, std::span<const double> b,
                           std::span<double> x, const Preconditioner& m,
                           const CgOptions& options = {});

/// CsrMatrix convenience overload.
CgResult conjugateGradient(const CsrMatrix& a, std::span<const double> b,
                           std::span<double> x, const Preconditioner& m,
                           const CgOptions& options = {});

/// Convenience overload: zero initial guess, Jacobi preconditioner.
std::vector<double> solveCgJacobi(const CsrMatrix& a,
                                  std::span<const double> b,
                                  const CgOptions& options = {});

}  // namespace viaduct
