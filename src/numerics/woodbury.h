// Incremental solves for a conductance matrix under a sequence of branch
// (two-terminal) conductance changes, via the Sherman–Morrison–Woodbury
// identity.
//
// The grid Monte Carlo (Algorithm 1, level 2) fails via arrays one at a
// time; each failure changes one branch conductance. With G = G0 + U D Uᵀ
// (U columns are ±1 incidence vectors of the changed branches, D the
// conductance deltas),
//   G⁻¹ b = G0⁻¹ b − Z (D⁻¹ + Uᵀ Z)⁻¹ Zᵀ b,   Z = G0⁻¹ U,
// so each *new* failed branch costs one factored solve (to extend Z), where
// k is the number of distinct changed branches so far. A general solve(b)
// adds one factored solve (G0⁻¹ b) plus a dense k×k solve. The grid's
// right-hand side never changes, so it can be bound once: its base solution
// x0 = G0⁻¹ b is computed once per base factor and solveFixedRhs() costs
// only the dense k×k solve and x0 − Z·y — no factored solve at all. When k
// exceeds `rebaseThreshold`, the updates are folded into G0 and the matrix
// is re-factored numerically (symbolic analysis reused); the fold re-solves
// x0 exactly once on the new factor.
//
// Two ownership modes:
//  - Owning (legacy): the solver copies G0 and factors it itself.
//  - Shared-base: the solver borrows an immutable factorization of G0 built
//    once (e.g. per PowerGridModel) and shared by every Monte Carlo trial
//    on every thread, together with the bound right-hand side's base
//    solution. Construction is then O(1); the solver never touches the
//    shared factor, promoting to a private clone (refactored(), which
//    reuses the shared symbolic analysis) only if it has to rebase.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "fault/policy.h"
#include "numerics/dense.h"
#include "numerics/sparse.h"
#include "numerics/spd_factor.h"

namespace viaduct {

class WoodburySolver {
 public:
  struct Options {
    /// Fold updates into the base factorization when the number of distinct
    /// changed branches exceeds this.
    int rebaseThreshold = 48;
    OrderingChoice ordering = OrderingChoice::kRcm;
    /// Factorization backend for the owning constructor (the shared-base
    /// constructor inherits whatever the caller built).
    SpdSolverKind solver = SpdSolverKind::kUplooking;
    /// Recovery behavior when an incremental update is rejected: with
    /// `refactorOnWoodburyFailure` the delta (already applied to the
    /// tracked matrix) is folded into a fresh base factorization instead
    /// of propagating the failure.
    fault::FailurePolicy policy;
  };

  /// Owning mode: `g0` must be SPD; it is copied and factored here. A
  /// non-null `rhs` binds the right-hand side of solveFixedRhs(); its base
  /// solution is computed right after the factorization.
  explicit WoodburySolver(CsrMatrix g0) : WoodburySolver(std::move(g0), Options{}) {}
  WoodburySolver(CsrMatrix g0, const Options& options,
                 std::shared_ptr<const std::vector<double>> rhs = nullptr);

  /// Shared-base mode: `baseFactor` is a factorization of `*g0`, built once
  /// and shared across solvers/threads; it is never mutated through this
  /// class. A non-null `rhs` binds the right-hand side of solveFixedRhs()
  /// and must come with `rhsBaseSolution` = `baseFactor`⁻¹·`rhs`, computed
  /// once by the factor's owner and shared the same way. Construction
  /// performs no factorization or solve work.
  WoodburySolver(std::shared_ptr<const CsrMatrix> g0,
                 std::shared_ptr<const SpdFactor> baseFactor)
      : WoodburySolver(std::move(g0), std::move(baseFactor), Options{}) {}
  WoodburySolver(std::shared_ptr<const CsrMatrix> g0,
                 std::shared_ptr<const SpdFactor> baseFactor,
                 const Options& options,
                 std::shared_ptr<const std::vector<double>> rhs = nullptr,
                 std::shared_ptr<const std::vector<double>> rhsBaseSolution =
                     nullptr);

  Index size() const { return base_->rows(); }

  /// Applies a conductance delta to branch (i, j). Node index -1 denotes
  /// ground (an eliminated node), giving a rank-1 update on a single node.
  /// Requires i != j and at least one of them >= 0. The branch entries must
  /// exist in the sparsity structure of g0 (true for any branch that was
  /// stamped at build time). The resulting matrix must remain SPD — a fully
  /// disconnected node would make it singular and the next solve throws.
  void updateBranch(Index i, Index j, double deltaG);

  /// Solves G x = b with the current accumulated updates.
  std::vector<double> solve(std::span<const double> b) const;

  /// Solves G x = rhs for the bound right-hand side, starting from its
  /// cached base solution: no factored solve, and bit-identical to
  /// solve(rhs). Requires a constructor that bound an `rhs`.
  std::vector<double> solveFixedRhs() const;

  /// Number of distinct branches currently tracked as low-rank updates
  /// (zero right after construction or a rebase).
  int pendingUpdateCount() const { return static_cast<int>(branches_.size()); }

  /// Total rebase operations performed (for instrumentation/ablation).
  int rebaseCount() const { return rebases_; }

  /// True while solves still go through the borrowed shared factor (no
  /// private re-factorization has been needed yet).
  bool usesSharedBase() const { return privateFactor_ == nullptr; }

  /// Forces folding updates into the base factorization now.
  void rebase();

  /// Read access to the current (updated) matrix values. Materialized
  /// lazily in shared-base mode (the common trial never needs it).
  const CsrMatrix& currentMatrix() const;

 private:
  struct Branch {
    Index i;
    Index j;
    double deltaG;           // accumulated conductance change
    std::vector<double> z;   // G0⁻¹ a, a = e_i − e_j
  };

  /// The factor solves go through: the private clone once one exists,
  /// otherwise the (possibly shared) base factor.
  const SpdFactor& activeFactor() const {
    return privateFactor_ ? *privateFactor_ : *sharedBase_;
  }

  void recordDelta(Index i, Index j, double deltaG);
  void dropBranch(std::size_t index);
  void foldIntoFactor();
  std::vector<double> incidenceSolve(Index i, Index j) const;
  /// The per-solve prologue: the woodbury.solve fault site and counters.
  void startSolve() const;
  /// x − Z·C⁻¹·Uᵀx for the pending updates: turns a base-factor solution
  /// into one of the current matrix.
  std::vector<double> applyUpdates(std::vector<double> x) const;

  Options options_;
  std::shared_ptr<const CsrMatrix> base_;        // matrix at construction
  std::shared_ptr<const SpdFactor> sharedBase_;  // factorization of *base_
  std::unique_ptr<SpdFactor> privateFactor_;     // after the first rebase
  /// The bound right-hand side and its solution on activeFactor() (both
  /// null when none is bound); re-solved by every fold.
  std::shared_ptr<const std::vector<double>> rhs_;
  std::shared_ptr<const std::vector<double>> rhsBaseSolution_;

  /// Accumulated branch deltas relative to *base_ (canonical keys), and the
  /// lazily materialized current matrix (base_ plus those deltas).
  std::map<std::pair<Index, Index>, double> appliedDelta_;
  mutable std::optional<CsrMatrix> gCache_;

  std::map<std::pair<Index, Index>, std::size_t> branchIndex_;
  std::vector<Branch> branches_;
  int rebases_ = 0;
};

}  // namespace viaduct
