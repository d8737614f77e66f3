// Supernodal (blocked) sparse Cholesky for PG-scale conductance systems.
//
// Columns with identical below-diagonal structure are grouped into
// supernodes on the postordered elimination tree and stored as contiguous
// column-major dense panels. The numeric factorization is left-looking over
// supernodes: each panel gathers the rank-w outer-product updates of its
// descendant supernodes through 4-way-unrolled dense kernels (the same
// register-blocking idioms as DenseCholeskyFactor), then factors its
// diagonal block densely. Supernodes are scheduled by elimination-tree
// level: every supernode of a level depends only on strictly earlier
// levels, so a level is one ThreadPool pass. Each panel is produced by
// exactly one task applying its update list in a fixed order, making the
// factor bit-identical for every pool size (including no pool).
//
// Compared to the scalar up-looking SparseCholesky this trades pointer
// chasing for dense panel arithmetic; with AMD ordering it factors
// million-node power-grid meshes in seconds where the banded RCM factor
// would not even fit in memory.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "numerics/ordering.h"
#include "numerics/sparse.h"
#include "numerics/spd_factor.h"

namespace viaduct {

class ThreadPool;

class SupernodalCholesky final : public SpdFactor {
 public:
  /// Factors the SPD matrix `a`. `pool` parallelizes the numeric
  /// factorization level by level (nullptr = serial; same bits either way).
  /// Throws NumericalError if `a` is not positive definite.
  explicit SupernodalCholesky(const CsrMatrix& a,
                              OrderingChoice ordering = OrderingChoice::kAmd,
                              ThreadPool* pool = nullptr);

  Index size() const override { return n_; }
  std::size_t factorNonZeroCount() const override;
  SpdSolverKind kind() const override { return SpdSolverKind::kSupernodal; }

  using SpdFactor::solve;

  /// Serial triangular solves (thread-safe: allocates locally).
  void solve(std::span<const double> b, std::span<double> x) const override;

  /// Seeds the two non-zeros of e_i − e_j directly and runs the forward
  /// sweep only over the supernodes on their elimination-tree paths to the
  /// root (the Gilbert–Peierls reach); the backward sweep stays dense.
  /// Every skipped forward term subtracts col·(+0.0) from an entry that is
  /// never −0.0, so the column is bitwise equal to solve(e_i − e_j).
  std::vector<double> solveIncidence(Index i, Index j) const override;

  /// Copy-on-write numeric re-factorization on the same structure; shares
  /// the symbolic analysis (ordering, etree, supernode partition, update
  /// lists). Runs serially — rebases happen per Monte Carlo trial, inside
  /// worker threads.
  std::unique_ptr<SpdFactor> refactored(const CsrMatrix& a) const override;

  // Introspection for tests and the scaling bench.
  Index supernodeCount() const;
  Index levelCount() const;
  /// Share of the factor's panel entries the forward sweep of
  /// solveIncidence(i, j) reads.
  double forwardReachFraction(Index i, Index j) const;

 private:
  struct Symbolic;

  SupernodalCholesky(std::shared_ptr<const Symbolic> symbolic,
                     const CsrMatrix& a);

  static std::shared_ptr<const Symbolic> analyze(const CsrMatrix& a,
                                                 OrderingChoice ordering);
  CsrMatrix permuted(const CsrMatrix& a) const;
  void numericFactor(const CsrMatrix& permuted, ThreadPool* pool);
  void factorSupernode(Index s, const CsrMatrix& permuted);
  /// The triangular-solve kernels shared by solve() and solveIncidence(),
  /// on a vector `y` in the factor's ordering: L_s's forward substitution
  /// and tail scatter for supernode s, and the full backward sweep Lᵀ.
  void forwardSupernode(Index s, std::span<double> y) const;
  void backwardSweep(std::span<double> y) const;
  /// Calls visit(s) for each supernode on the elimination-tree paths from
  /// nodes i and j (original numbering, −1 for none) to the root, once
  /// each, in ascending order.
  template <typename Visit>
  void forEachReachSupernode(Index i, Index j, Visit&& visit) const;

  Index n_ = 0;
  std::shared_ptr<const Symbolic> sym_;
  /// All dense panels, column-major per supernode, at sym_->panelOffset[s].
  std::vector<double> panels_;
};

}  // namespace viaduct
