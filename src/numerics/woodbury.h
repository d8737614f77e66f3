// Incremental solves for a conductance matrix under a sequence of branch
// (two-terminal) conductance changes, via the Sherman–Morrison–Woodbury
// identity.
//
// The grid Monte Carlo (Algorithm 1, level 2) fails via arrays one at a
// time; each failure changes one branch conductance. With G = G0 + U D Uᵀ
// (U columns are ±1 incidence vectors of the changed branches, D the
// conductance deltas),
//   G⁻¹ b = G0⁻¹ b − Z C⁻¹ Uᵀ G0⁻¹ b,   Z = G0⁻¹ U,   C = D⁻¹ + Uᵀ Z,
// so each *new* failed branch costs at most one factored solve (to extend
// Z), where k is the number of distinct changed branches so far.
//
// The symmetric k×k capacitance matrix C is kept with an LDLᵀ factor (no
// pivoting) that grows by bordering: a new branch appends its row of C and
// one forward solve, O(k²). A solve is then w = Uᵀx, two k×k triangular
// solves and x − Z·y. Grid deltas (opens, degrades) are negative; for them
// −C is the Schur complement of [[G0, U], [Uᵀ, −D⁻¹]], SPD whenever the
// updated G is, so the LDLᵀ is a scaled Cholesky. A zero or non-finite
// pivot is a NumericalError (folded, see below). A delta change on a
// tracked branch, or its cancellation, re-borders the rows from that
// branch on, in branch order, so the factor is the one a solver that had
// seen the same updates directly would hold.
//
// The grid's right-hand side never changes, so it can be bound once: its
// base solution x0 = G0⁻¹ b is computed once per base factor and
// solveFixedRhs() costs only the k×k solves and x0 − Z·y — no factored
// solve at all. When k exceeds `rebaseThreshold` (default 256; the deepest
// PG5 trials stay below 100), the updates are folded into G0 and the matrix
// is re-factored numerically (symbolic analysis reused); the fold re-solves
// x0 exactly once on the new factor and empties the capacitance factor.
//
// Two ownership modes:
//  - Owning (legacy): the solver copies G0 and factors it itself.
//  - Shared-base: the solver borrows a SharedBase — an immutable
//    factorization of G0 built once (e.g. per PowerGridModel) and shared by
//    every Monte Carlo trial on every thread, together with the bound
//    right-hand side's base solution and a cache of solved incidence
//    columns. Construction is then O(1); the solver never touches the
//    shared factor, promoting to a private clone (refactored(), which
//    reuses the shared symbolic analysis) only if it has to rebase.
//
// An incidence column z = G0⁻¹·(e_i − e_j) depends only on the base factor
// and the branch, not on the trial. While a solver still runs on the shared
// base, a new branch first asks the shared IncidenceColumnCache: a hit costs
// no factored solve and copies nothing, so a branch that any trial already
// solved on this base is never solved again. After a rebase the solver's
// columns come from its private factor and are always solved. Either way a
// column is SpdFactor::solveIncidence(i, j): the supernodal factor seeds
// e_i − e_j's two non-zeros and runs the forward sweep only over their
// elimination-tree paths, bit-identical to a dense solve.
//
// The x0 − Z·y pass dominates a PG-scale solve: k columns of n doubles per
// solve. It runs row-tiled (subtractScaledColumns): a tile of x0 is loaded
// into registers once, every column's z_m[r..]·y_m is subtracted from it in
// ascending m, and the tile is stored once into the result, reading the
// cached columns in place. Each element sees the same IEEE operations in
// the same order as a column-at-a-time loop, so the result is bit-identical
// to it. The kernel is built twice from one source — plain, and under an
// AVX2 target attribute (no FMA, so no contraction) — and the AVX2 instance
// runs wherever the CPU has AVX2, chosen once per process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "fault/policy.h"
#include "numerics/sparse.h"
#include "numerics/spd_factor.h"

namespace viaduct {

/// Kernel of the x0 − Z·y pass (the woodbury.apply_kernel gauge).
enum class WoodburyKernel : std::uint8_t { kPlain = 0, kAvx2 = 1 };

/// kAvx2 when this CPU runs AVX2 code, else kPlain; checked once per
/// process.
WoodburyKernel bestWoodburyKernel();

/// One column z of Z (at least as long as the vector it updates) and its
/// coefficient y.
struct ScaledColumn {
  const double* z;
  double y;
};

/// x[r] = x0[r] − z_0[r]·y_0 − z_1[r]·y_1 − … for every row r, the columns
/// taken in the given order, each product rounded before it is subtracted.
/// Columns with y == 0 are skipped: subtracting 0·z is not a no-op (it
/// turns −0 into +0 and an infinite z into NaN). `x` may alias `x0`.
void subtractScaledColumns(WoodburyKernel kernel, std::span<const double> x0,
                           std::span<const ScaledColumn> columns,
                           std::span<double> x);

/// Solved incidence columns G0⁻¹·(e_i − e_j) of one base factor, keyed by
/// the canonical branch (i < j, a ground endpoint −1 in slot j) and shared
/// by every solver on that factor. The stored payload is bounded by
/// `byteBudget`; admission is first-come and nothing is evicted, so once
/// full a miss is solved and simply not stored. A mutex guards the map;
/// the solves themselves run outside it. Thread-safe.
class IncidenceColumnCache {
 public:
  using Column = std::shared_ptr<const std::vector<double>>;

  explicit IncidenceColumnCache(std::size_t byteBudget)
      : byteBudget_(byteBudget) {}

  /// The bound for a base factor: the factor's own storage,
  /// factorNonZeroCount() × (sizeof(double) + sizeof(Index)) bytes, but at
  /// least kMinByteBudget, so a sparse factor of a small grid still holds
  /// every column its Monte Carlo opens.
  static std::size_t budgetFor(const SpdFactor& factor);
  static constexpr std::size_t kMinByteBudget = std::size_t{4} << 20;

  /// The stored column of branch (i, j), or nullptr.
  Column find(Index i, Index j) const;

  /// Stores `column` for branch (i, j) if the budget has room for it and
  /// the branch is not stored yet (a concurrent miss may have stored the
  /// bit-identical column first).
  void insert(Index i, Index j, Column column);

  std::size_t size() const;
  /// Bytes of column payload held (≤ byteBudget()).
  std::size_t bytes() const;
  std::size_t byteBudget() const { return byteBudget_; }

 private:
  const std::size_t byteBudget_;
  mutable std::mutex mutex_;
  std::map<std::pair<Index, Index>, Column> columns_;
  std::size_t bytes_ = 0;
};

class WoodburySolver {
 public:
  struct Options {
    /// Fold updates into the base factorization when the number of distinct
    /// changed branches exceeds this.
    int rebaseThreshold = 256;
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

  /// The borrowed state of shared-base mode, built once by the factor's
  /// owner and shared across solvers and threads; none of it is mutated
  /// through this class (the column cache is written only through its own
  /// thread-safe interface).
  struct SharedBase {
    std::shared_ptr<const CsrMatrix> g0;
    /// A factorization of *g0.
    std::shared_ptr<const SpdFactor> factor;
    /// Optional: binds the right-hand side of solveFixedRhs(), and must
    /// come with rhsBaseSolution = factor⁻¹·rhs.
    std::shared_ptr<const std::vector<double>> rhs;
    std::shared_ptr<const std::vector<double>> rhsBaseSolution;
    /// Optional: incidence columns solved on `factor`.
    std::shared_ptr<IncidenceColumnCache> columns;
  };

  /// Shared-base mode. Construction performs no factorization or solve
  /// work.
  explicit WoodburySolver(SharedBase base)
      : WoodburySolver(std::move(base), Options{}) {}
  WoodburySolver(SharedBase base, const Options& options);

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

  /// The kernel every solver's x0 − Z·y pass runs: bestWoodburyKernel()
  /// unless a test chose another.
  static WoodburyKernel applyKernel();
  /// Test hook: run `kernel` from now on, process-wide (kAvx2 requires a
  /// CPU with AVX2).
  static void setApplyKernelForTesting(WoodburyKernel kernel);

  /// Forces folding updates into the base factorization now.
  void rebase();

  /// Read access to the current (updated) matrix values. Materialized
  /// lazily in shared-base mode (the common trial never needs it).
  const CsrMatrix& currentMatrix() const;

 private:
  struct Branch {
    Index i;
    Index j;
    double deltaG;  // accumulated conductance change
    /// G0⁻¹ a, a = e_i − e_j (possibly shared with the column cache).
    IncidenceColumnCache::Column z;
    /// This branch's row m of Uᵀ Z's lower triangle: aₘᵀ z_l for l ≤ m
    /// (C's row without the diagonal's 1/Δg).
    std::vector<double> utz;
    /// Row m of C = L·diag(pivots)·Lᵀ: L's entries left of the unit
    /// diagonal, and the pivot.
    std::vector<double> lower;
    double pivot = 0.0;
  };

  /// The factor solves go through: the private clone once one exists,
  /// otherwise the (possibly shared) base factor.
  const SpdFactor& activeFactor() const {
    return privateFactor_ ? *privateFactor_ : *sharedBase_;
  }

  void recordDelta(Index i, Index j, double deltaG);
  /// Removes branch `index` and its row and column of Uᵀ Z.
  void dropBranch(std::size_t index);
  /// Re-borders the capacitance factor's rows index.. in branch order.
  void refactorFrom(std::size_t index);
  /// Appends branch m's row to the capacitance factor (rows < m factored).
  /// Throws NumericalError on a zero or non-finite pivot.
  void borderFactor(std::size_t m);
  void foldIntoFactor();
  /// Empties the update set (after a fold).
  void clearUpdates();
  /// Branch (i, j)'s incidence column on activeFactor(): from the shared
  /// column cache while the shared base is active, else solved.
  IncidenceColumnCache::Column incidenceColumn(Index i, Index j) const;
  /// The per-solve prologue: the woodbury.solve fault site and counters.
  void startSolve() const;
  /// x = x0 − Z·C⁻¹·Uᵀx0 for the pending updates: turns a base-factor
  /// solution into one of the current matrix; `x` may alias `x0`. Throws
  /// NumericalError while the capacitance factor misses rows (a rejected
  /// update left it singular).
  void applyUpdates(std::span<const double> x0, std::span<double> x) const;

  Options options_;
  std::shared_ptr<const CsrMatrix> base_;        // matrix at construction
  std::shared_ptr<const SpdFactor> sharedBase_;  // factorization of *base_
  std::unique_ptr<SpdFactor> privateFactor_;     // after the first rebase
  /// The bound right-hand side and its solution on activeFactor() (both
  /// null when none is bound); re-solved by every fold.
  std::shared_ptr<const std::vector<double>> rhs_;
  std::shared_ptr<const std::vector<double>> rhsBaseSolution_;
  /// Columns solved on sharedBase_ (null in owning mode).
  std::shared_ptr<IncidenceColumnCache> columnCache_;

  /// Accumulated branch deltas relative to *base_ (canonical keys), and the
  /// lazily materialized current matrix (base_ plus those deltas).
  std::map<std::pair<Index, Index>, double> appliedDelta_;
  mutable std::optional<CsrMatrix> gCache_;

  std::map<std::pair<Index, Index>, std::size_t> branchIndex_;
  std::vector<Branch> branches_;
  /// Leading branches whose capacitance factor rows are current.
  std::size_t factoredRows_ = 0;
  int rebases_ = 0;
};

}  // namespace viaduct
