#include "numerics/woodbury.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <tuple>

#include "common/check.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "grid/power_grid.h"
#include "numerics/cholesky.h"
#include "numerics/dense.h"
#include "obs/obs.h"
#include "spice/generator.h"

namespace viaduct {
namespace {

CsrMatrix gridConductance(Index nx, Index ny, double gGround = 0.1) {
  TripletMatrix t(nx * ny, nx * ny);
  auto id = [nx](Index x, Index y) { return y * nx + x; };
  for (Index y = 0; y < ny; ++y) {
    for (Index x = 0; x < nx; ++x) {
      if (x == 0 && y == 0) t.add(0, 0, gGround * 10);  // "pad" tie-down
      t.add(id(x, y), id(x, y), gGround * 0.01);
      if (x + 1 < nx) t.stampConductance(id(x, y), id(x + 1, y), 1.0);
      if (y + 1 < ny) t.stampConductance(id(x, y), id(x, y + 1), 1.0);
    }
  }
  return CsrMatrix::fromTriplets(t);
}

std::vector<double> referenceSolve(const CsrMatrix& g,
                                   std::span<const double> b) {
  return SparseCholesky(g).solve(b);
}

TEST(WoodburySolver, MatchesBaseSolveWithoutUpdates) {
  const CsrMatrix g = gridConductance(6, 6);
  Rng rng(51);
  std::vector<double> b(36);
  for (auto& v : b) v = rng.uniform(0.0, 1.0);
  WoodburySolver w(g);
  const auto x = w.solve(b);
  const auto ref = referenceSolve(g, b);
  for (std::size_t i = 0; i < 36; ++i) EXPECT_NEAR(x[i], ref[i], 1e-10);
}

TEST(WoodburySolver, SingleBranchUpdateMatchesRefactor) {
  CsrMatrix g = gridConductance(6, 6);
  Rng rng(53);
  std::vector<double> b(36);
  for (auto& v : b) v = rng.uniform(0.0, 1.0);

  WoodburySolver w(g);
  w.updateBranch(3, 4, -0.7);  // weaken one branch
  const auto x = w.solve(b);

  // Reference: rebuild the modified matrix from scratch.
  EXPECT_NEAR(norm2(x), norm2(referenceSolve(w.currentMatrix(), b)), 1e-8);
  const auto ref = referenceSolve(w.currentMatrix(), b);
  for (std::size_t i = 0; i < 36; ++i) EXPECT_NEAR(x[i], ref[i], 1e-9);
}

TEST(WoodburySolver, SequenceOfUpdatesMatchesRefactor) {
  const CsrMatrix g = gridConductance(8, 8);
  Rng rng(59);
  std::vector<double> b(64);
  for (auto& v : b) v = rng.uniform(0.0, 1.0);

  WoodburySolver w(g);
  // Fail several branches fully (conductance -> ~0) one at a time.
  const std::vector<std::pair<Index, Index>> branches = {
      {0, 1}, {9, 10}, {20, 28}, {45, 46}, {17, 25}};
  for (const auto& [i, j] : branches) {
    const double gOld = -w.currentMatrix().at(i, j);
    ASSERT_GT(gOld, 0.0);
    w.updateBranch(i, j, -gOld * 0.999);
    const auto x = w.solve(b);
    const auto ref = referenceSolve(w.currentMatrix(), b);
    for (std::size_t k = 0; k < 64; ++k) EXPECT_NEAR(x[k], ref[k], 1e-7);
  }
  EXPECT_EQ(w.pendingUpdateCount(), 5);
}

TEST(WoodburySolver, RepeatedUpdateOfSameBranchAccumulates) {
  const CsrMatrix g = gridConductance(5, 5);
  std::vector<double> b(25, 0.5);
  WoodburySolver w(g);
  w.updateBranch(2, 3, -0.3);
  w.updateBranch(2, 3, -0.3);
  EXPECT_EQ(w.pendingUpdateCount(), 1);  // same branch: one column
  const auto x = w.solve(b);
  const auto ref = referenceSolve(w.currentMatrix(), b);
  for (std::size_t k = 0; k < 25; ++k) EXPECT_NEAR(x[k], ref[k], 1e-9);
}

TEST(WoodburySolver, CancelledDeltaLeavesTheUpdateSet) {
  // Regression: two deltas summing to exactly zero used to leave the branch
  // in the update set, and the next solve threw "zero-delta branch in
  // update set".
  const CsrMatrix g = gridConductance(5, 5);
  std::vector<double> b(25, 0.5);
  WoodburySolver w(g);
  w.updateBranch(2, 3, -0.25);
  w.updateBranch(2, 3, +0.25);
  EXPECT_EQ(w.pendingUpdateCount(), 0);
  EXPECT_EQ(w.solve(b), WoodburySolver(g).solve(b));
}

TEST(WoodburySolver, CancelledBranchAmongOthersSolvesAsIfNeverSeen) {
  const CsrMatrix g = gridConductance(5, 5);
  std::vector<double> b(25, 0.5);
  WoodburySolver w(g), never(g);
  w.updateBranch(0, 1, -0.3);
  w.updateBranch(2, 3, -0.25);
  w.updateBranch(7, 8, -0.4);
  w.updateBranch(3, 2, +0.25);
  never.updateBranch(0, 1, -0.3);
  never.updateBranch(7, 8, -0.4);
  EXPECT_EQ(w.pendingUpdateCount(), 2);
  // Order-preserving removal: bit-identical, not merely close.
  EXPECT_EQ(w.solve(b), never.solve(b));
  // The branch can be updated again afterwards.
  w.updateBranch(2, 3, -0.1);
  EXPECT_EQ(w.pendingUpdateCount(), 3);
  const auto x = w.solve(b);
  const auto ref = referenceSolve(w.currentMatrix(), b);
  for (std::size_t k = 0; k < 25; ++k) EXPECT_NEAR(x[k], ref[k], 1e-9);
}

TEST(WoodburySolver, ZeroDeltaOnANewBranchIsIgnored) {
  const CsrMatrix g = gridConductance(5, 5);
  std::vector<double> b(25, 0.5);
  WoodburySolver w(g);
  w.updateBranch(2, 3, 0.0);
  EXPECT_EQ(w.pendingUpdateCount(), 0);
  EXPECT_EQ(w.solve(b), WoodburySolver(g).solve(b));
}

TEST(WoodburySolver, FixedRhsMatchesGeneralSolveBitForBit) {
  // Owning mode binds the right-hand side and solves its base solution
  // after factoring; every fold re-solves it on the new factor. At every
  // step the cached path must reproduce solve(rhs) exactly.
  const CsrMatrix g = gridConductance(8, 8);
  Rng rng(67);
  auto rhs = std::make_shared<std::vector<double>>(64);
  for (auto& v : *rhs) v = rng.uniform(0.0, 1.0);
  WoodburySolver::Options opts;
  opts.rebaseThreshold = 3;
  WoodburySolver w(g, opts, rhs);
  EXPECT_EQ(w.solveFixedRhs(), w.solve(*rhs));
  const std::vector<std::pair<Index, Index>> branches = {
      {0, 1}, {9, 10}, {20, 28}, {45, 46}, {17, 25}, {33, 34}, {50, 58}};
  for (const auto& [i, j] : branches) {
    w.updateBranch(i, j, -0.6);
    EXPECT_EQ(w.solveFixedRhs(), w.solve(*rhs)) << "after " << i << "-" << j;
  }
  EXPECT_EQ(w.rebaseCount(), 1);
  w.rebase();
  EXPECT_EQ(w.rebaseCount(), 2);
  EXPECT_EQ(w.solveFixedRhs(), w.solve(*rhs));
}

TEST(WoodburySolver, SharedBaseSolutionIsReusedUntilTheFold) {
  const auto g = std::make_shared<const CsrMatrix>(gridConductance(6, 6));
  std::shared_ptr<const SpdFactor> factor =
      buildSpdFactor(*g, SpdSolverKind::kUplooking, OrderingChoice::kRcm);
  auto rhs = std::make_shared<const std::vector<double>>(36, 0.25);
  auto x0 = std::make_shared<const std::vector<double>>(factor->solve(*rhs));
  WoodburySolver w({.g0 = g,
                    .factor = factor,
                    .rhs = rhs,
                    .rhsBaseSolution = x0,
                    .columns = nullptr});
  EXPECT_EQ(w.solveFixedRhs(), *x0);
  w.updateBranch(1, 2, -0.4);
  w.updateBranch(8, 14, -0.9);
  EXPECT_EQ(w.solveFixedRhs(), w.solve(*rhs));
  w.rebase();
  EXPECT_FALSE(w.usesSharedBase());
  EXPECT_EQ(w.solveFixedRhs(), w.solve(*rhs));
  const auto ref = referenceSolve(w.currentMatrix(), *rhs);
  const auto x = w.solveFixedRhs();
  for (std::size_t k = 0; k < 36; ++k) EXPECT_NEAR(x[k], ref[k], 1e-9);
}

TEST(WoodburySolver, FixedRhsNeedsABinding) {
  const auto g = std::make_shared<const CsrMatrix>(gridConductance(4, 4));
  EXPECT_THROW(WoodburySolver(*g).solveFixedRhs(), PreconditionError);
  std::shared_ptr<const SpdFactor> factor =
      buildSpdFactor(*g, SpdSolverKind::kUplooking, OrderingChoice::kRcm);
  auto rhs = std::make_shared<const std::vector<double>>(16, 1.0);
  // A shared-base solver must be handed the base solution with the rhs.
  EXPECT_THROW(WoodburySolver({.g0 = g,
                               .factor = factor,
                               .rhs = rhs,
                               .rhsBaseSolution = nullptr,
                               .columns = nullptr}),
               PreconditionError);
  auto wrongSize = std::make_shared<const std::vector<double>>(15, 1.0);
  EXPECT_THROW(WoodburySolver(*g, WoodburySolver::Options{}, wrongSize),
               PreconditionError);
}

TEST(WoodburySolver, FactoredSolveBudget) {
  // One factored solve per new branch (its z column) and one per fold (the
  // bound rhs); solveFixedRhs() itself costs none.
  obs::setEnabled(true);
  auto& solves = obs::Registry::instance().counter("cholesky.triangular_solves");
  const CsrMatrix g = gridConductance(6, 6);
  auto rhs = std::make_shared<const std::vector<double>>(36, 0.25);
  WoodburySolver::Options opts;
  opts.rebaseThreshold = 2;
  const std::uint64_t before = solves.value();
  WoodburySolver w(g, opts, rhs);
  EXPECT_EQ(solves.value() - before, 1u);  // the base solution
  (void)w.solveFixedRhs();
  EXPECT_EQ(solves.value() - before, 1u);
  w.updateBranch(1, 2, -0.4);
  w.updateBranch(8, 14, -0.9);
  (void)w.solveFixedRhs();
  EXPECT_EQ(solves.value() - before, 3u);
  w.updateBranch(20, 21, -0.2);  // third branch exceeds the threshold: fold
  EXPECT_EQ(w.rebaseCount(), 1);
  EXPECT_EQ(solves.value() - before, 5u);
  (void)w.solveFixedRhs();
  EXPECT_EQ(solves.value() - before, 5u);
}

/// The capacitance arithmetic the bordered factor replaced, kept as its
/// oracle: it mirrors a solver's pending branches in insertion order, and
/// every solve rebuilds the dense C = D⁻¹ + Uᵀ Z and LU-solves it (partial
/// pivoting) on a fresh factor of the matrix of the last fold.
class DenseCapacitanceOracle {
 public:
  explicit DenseCapacitanceOracle(const CsrMatrix& base) { rebase(base); }

  void rebase(const CsrMatrix& base) {
    factor_ = buildSpdFactor(base, SpdSolverKind::kUplooking,
                             OrderingChoice::kRcm);
    pending_.clear();
  }

  /// Same bookkeeping as the solver: accumulate, drop on cancellation,
  /// ignore a zero delta on a new branch.
  void update(Index i, Index j, double delta) {
    const auto it =
        std::find_if(pending_.begin(), pending_.end(),
                     [&](const Pending& p) { return p.i == i && p.j == j; });
    if (it != pending_.end()) {
      it->delta += delta;
      if (std::abs(it->delta) <= 1e-300) pending_.erase(it);
      return;
    }
    if (std::abs(delta) <= 1e-300) return;
    std::vector<double> a(static_cast<std::size_t>(factor_->size()), 0.0);
    a[static_cast<std::size_t>(i)] = 1.0;
    if (j >= 0) a[static_cast<std::size_t>(j)] = -1.0;
    pending_.push_back({i, j, delta, factor_->solve(a)});
  }

  std::size_t pendingCount() const { return pending_.size(); }
  /// The pending branch at `slot` and its accumulated delta.
  std::tuple<Index, Index, double> branch(std::size_t slot) const {
    const Pending& p = pending_[slot];
    return {p.i, p.j, p.delta};
  }

  std::vector<double> solve(std::span<const double> b) const {
    std::vector<double> x = factor_->solve(b);
    const std::size_t k = pending_.size();
    if (k == 0) return x;
    auto at = [](const Pending& p, const std::vector<double>& v) {
      return v[static_cast<std::size_t>(p.i)] -
             (p.j >= 0 ? v[static_cast<std::size_t>(p.j)] : 0.0);
    };
    DenseMatrix c(k, k);
    std::vector<double> w(k);
    for (std::size_t m = 0; m < k; ++m) {
      for (std::size_t l = 0; l < k; ++l)
        c(m, l) = at(pending_[m], pending_[l].z);
      c(m, m) += 1.0 / pending_[m].delta;
      w[m] = at(pending_[m], x);
    }
    const std::vector<double> y = c.solve(w);
    for (std::size_t m = 0; m < k; ++m)
      for (std::size_t r = 0; r < x.size(); ++r)
        x[r] -= pending_[m].z[r] * y[m];
    return x;
  }

 private:
  struct Pending {
    Index i;
    Index j;
    double delta;
    std::vector<double> z;
  };
  std::unique_ptr<SpdFactor> factor_;
  std::vector<Pending> pending_;
};

TEST(WoodburySolver, BorderedFactorMatchesDenseCapacitanceLu) {
  // Random sequences on a 20×20 grid, up to 200 pending branches: new
  // branches with mixed-sign deltas (edges and ground ties), repeated
  // updates of a pending branch, exact cancellations, and two injected
  // update rejections (each folds into a private factor). After every
  // update the solver agrees with the dense-LU oracle to 1e-12 relative,
  // and its fixed-rhs path with its general one bit for bit.
  constexpr Index kSide = 20;
  constexpr Index kNodes = kSide * kSide;
  constexpr std::size_t kMaxPending = 200;
  const CsrMatrix g = gridConductance(kSide, kSide);
  std::vector<std::pair<Index, Index>> branches;
  for (Index node = 0; node < kNodes; ++node) {
    if ((node + 1) % kSide != 0) branches.emplace_back(node, node + 1);
    if (node + kSide < kNodes) branches.emplace_back(node, node + kSide);
    if (node % 7 == 0) branches.emplace_back(node, -1);
  }

  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    auto rhs = std::make_shared<std::vector<double>>(kNodes);
    for (auto& v : *rhs) v = rng.uniform(-1.0, 1.0);
    WoodburySolver w(g, WoodburySolver::Options{}, rhs);
    DenseCapacitanceOracle oracle(g);
    std::size_t peak = 0;
    int cancellations = 0;
    int repeats = 0;
    for (int step = 0; step < 400; ++step) {
      const double roll = rng.uniform(0.0, 1.0);
      const std::size_t pending = oracle.pendingCount();
      Index i = 0;
      Index j = 0;
      double delta = 0.0;
      const bool full = pending >= kMaxPending;
      if (pending > 0 && (roll < 0.08 || (roll < 0.3 && full))) {
        double accumulated = 0.0;
        std::tie(i, j, accumulated) = oracle.branch(rng.uniformInt(pending));
        delta = -accumulated;
        ++cancellations;
      } else {
        if (pending > 0 && (roll < 0.22 || full)) {
          std::tie(i, j, std::ignore) = oracle.branch(rng.uniformInt(pending));
          ++repeats;
        } else {
          std::tie(i, j) = branches[rng.uniformInt(branches.size())];
        }
        // Edges move within ±60 % of their conductance; ground ties are
        // weakened at most by half or strengthened.
        const CsrMatrix& current = w.currentMatrix();
        if (j >= 0) {
          delta = rng.uniform(-0.6, 0.6) * -current.at(i, j);
        } else {
          // The tie is the row sum.
          const auto ptr = current.rowPointers();
          const auto values = current.values();
          double tie = 0.0;
          for (Index e = ptr[i]; e < ptr[i + 1]; ++e)
            tie += values[static_cast<std::size_t>(e)];
          delta = rng.uniform(-0.5, 2.0) * tie;
        }
      }
      // Two rejected updates late in the sequence, each a fold.
      if (step == 300 || step == 360)
        fault::Registry::instance().arm("woodbury.update", {.nth = 1});
      const int folds = w.rebaseCount();
      w.updateBranch(i, j, delta);
      fault::Registry::instance().disarmAll();
      if (w.rebaseCount() != folds) {
        oracle.rebase(w.currentMatrix());
      } else {
        oracle.update(i, j, delta);
      }
      ASSERT_EQ(static_cast<std::size_t>(w.pendingUpdateCount()),
                oracle.pendingCount())
          << "seed " << seed << " step " << step;
      peak = std::max(peak, oracle.pendingCount());

      const std::vector<double> x = w.solveFixedRhs();
      ASSERT_EQ(x, w.solve(*rhs)) << "seed " << seed << " step " << step;
      const std::vector<double> ref = oracle.solve(*rhs);
      double err = 0.0;
      double scale = 0.0;
      for (std::size_t r = 0; r < ref.size(); ++r) {
        err = std::max(err, std::abs(x[r] - ref[r]));
        scale = std::max(scale, std::abs(ref[r]));
      }
      ASSERT_LE(err, 1e-12 * scale) << "seed " << seed << " step " << step;
    }
    EXPECT_GE(peak, 150u) << "seed " << seed;
    EXPECT_EQ(w.rebaseCount(), 2) << "seed " << seed;
    EXPECT_GT(cancellations, 0) << "seed " << seed;
    EXPECT_GT(repeats, 0) << "seed " << seed;
  }
}

TEST(WoodburySolver, ZeroCapacitancePivotFolds) {
  // G0 = [[4, −2], [−2, 2]]: node 0 tied to ground by 2, branch (0, 1) of
  // conductance 2, so its column z = G0⁻¹(e_0 − e_1) = (0, −0.5) is exact.
  // Halving the branch, grounding node 1, then removing the branch's other
  // half re-borders row 0 with pivot aᵀz + 1/Δg = 0.5 − 0.5 = 0: a
  // singular leading minor, although the updated matrix [[2, 0], [0, 1]]
  // is SPD. The policy folds it; without the policy the update throws and
  // so does every solve until a fold.
  TripletMatrix t(2, 2);
  t.add(0, 0, 2.0);
  t.stampConductance(0, 1, 2.0);
  const CsrMatrix g = CsrMatrix::fromTriplets(t);
  const std::vector<double> b = {1.0, 1.0};
  for (const bool fold : {true, false}) {
    WoodburySolver::Options opts;
    opts.ordering = OrderingChoice::kNatural;
    opts.policy.enabled = fold;
    WoodburySolver w(g, opts);
    w.updateBranch(0, 1, -1.0);
    w.updateBranch(1, -1, 1.0);
    ASSERT_EQ(w.pendingUpdateCount(), 2);
    if (fold) {
      w.updateBranch(0, 1, -1.0);
      EXPECT_EQ(w.pendingUpdateCount(), 0);
    } else {
      EXPECT_THROW(w.updateBranch(0, 1, -1.0), NumericalError);
      EXPECT_THROW(w.solve(b), NumericalError);
      w.rebase();
    }
    EXPECT_EQ(w.rebaseCount(), 1);
    const auto x = w.solve(b);
    EXPECT_NEAR(x[0], 0.5, 1e-15);
    EXPECT_NEAR(x[1], 1.0, 1e-15);
  }
}

TEST(WoodburySolver, ColumnCacheServesLaterSolversWithoutASolve) {
  // Three solvers on one shared base replay the same updates: one filling
  // a roomy cache, one reading it back (no factored solve until its fold),
  // one on a cache with no room (every column solved, none stored). All
  // three must agree bit-for-bit after every step.
  obs::setEnabled(true);
  auto& solves = obs::Registry::instance().counter("cholesky.triangular_solves");
  auto& hits = obs::Registry::instance().counter("woodbury.column_cache_hits");
  const auto g = std::make_shared<const CsrMatrix>(gridConductance(8, 8));
  std::shared_ptr<const SpdFactor> factor =
      buildSpdFactor(*g, SpdSolverKind::kUplooking, OrderingChoice::kRcm);
  auto rhs = std::make_shared<const std::vector<double>>(64, 0.25);
  auto x0 = std::make_shared<const std::vector<double>>(factor->solve(*rhs));
  auto roomy = std::make_shared<IncidenceColumnCache>(
      IncidenceColumnCache::budgetFor(*factor));
  auto full = std::make_shared<IncidenceColumnCache>(0);
  EXPECT_EQ(roomy->byteBudget(),
            std::max(factor->factorNonZeroCount() *
                         (sizeof(double) + sizeof(Index)),
                     IncidenceColumnCache::kMinByteBudget));
  auto shared = [&](std::shared_ptr<IncidenceColumnCache> columns) {
    WoodburySolver::Options opts;
    opts.rebaseThreshold = 4;
    return WoodburySolver({.g0 = g,
                           .factor = factor,
                           .rhs = rhs,
                           .rhsBaseSolution = x0,
                           .columns = std::move(columns)},
                          opts);
  };
  WoodburySolver filler = shared(roomy);
  WoodburySolver reader = shared(roomy);
  WoodburySolver unstored = shared(full);
  // Six distinct branches (the fifth crosses the threshold: fold), with
  // ground and reversed endpoints to exercise the canonical key; ground
  // ties are strengthened so the matrix stays SPD.
  const std::vector<std::tuple<Index, Index, double>> branches = {
      {1, 0, -0.6},  {9, 10, -0.6},  {20, -1, 0.5},
      {-1, 45, 0.5}, {17, 25, -0.6}, {33, 34, -0.6}};
  for (const auto& [i, j, d] : branches) filler.updateBranch(i, j, d);
  EXPECT_EQ(roomy->size(), 5u);  // the sixth ran on the private factor
  EXPECT_EQ(roomy->bytes(), 5 * 64 * sizeof(double));

  for (const auto& [i, j, d] : branches) {
    const std::uint64_t solves0 = solves.value();
    const std::uint64_t hits0 = hits.value();
    const bool onSharedBase = reader.usesSharedBase();
    reader.updateBranch(i, j, d);
    unstored.updateBranch(i, j, d);
    if (onSharedBase && reader.usesSharedBase()) {
      // A hit on the reader, a solve on the full-cache solver.
      EXPECT_EQ(hits.value() - hits0, 1u) << i << "-" << j;
      EXPECT_EQ(solves.value() - solves0, 1u) << i << "-" << j;
    }
    const auto x = reader.solveFixedRhs();
    EXPECT_EQ(x, unstored.solveFixedRhs()) << "after " << i << "-" << j;
    EXPECT_EQ(x, reader.solve(*rhs)) << "after " << i << "-" << j;
  }
  EXPECT_EQ(reader.solveFixedRhs(), filler.solveFixedRhs());
  EXPECT_EQ(reader.rebaseCount(), 1);
  EXPECT_EQ(full->size(), 0u);
  EXPECT_EQ(full->bytes(), 0u);
  EXPECT_EQ(roomy->size(), 5u);
}

TEST(WoodburySolver, ColumnCacheAdmitsFirstComeWithinItsBudget) {
  // Room for exactly two 16-entry columns: the third distinct branch is
  // not stored, re-inserting a stored branch changes nothing, and a stored
  // column is the one a fresh solve returns.
  const auto g = std::make_shared<const CsrMatrix>(gridConductance(4, 4));
  std::shared_ptr<const SpdFactor> factor =
      buildSpdFactor(*g, SpdSolverKind::kUplooking, OrderingChoice::kRcm);
  auto cache = std::make_shared<IncidenceColumnCache>(2 * 16 * sizeof(double));
  WoodburySolver w({.g0 = g,
                    .factor = factor,
                    .rhs = nullptr,
                    .rhsBaseSolution = nullptr,
                    .columns = cache});
  w.updateBranch(2, 1, -0.3);
  w.updateBranch(5, 6, -0.3);
  w.updateBranch(9, 10, -0.3);
  EXPECT_EQ(cache->size(), 2u);
  EXPECT_EQ(cache->bytes(), cache->byteBudget());
  EXPECT_EQ(cache->find(9, 10), nullptr);
  const auto first = cache->find(1, 2);
  ASSERT_NE(first, nullptr);
  std::vector<double> a(16, 0.0);
  a[1] = 1.0;
  a[2] = -1.0;
  EXPECT_EQ(*first, factor->solve(a));
  cache->insert(1, 2, std::make_shared<const std::vector<double>>(16, 7.0));
  EXPECT_EQ(cache->find(1, 2), first);
  EXPECT_EQ(cache->size(), 2u);
}

TEST(WoodburySolver, EndpointOrderIrrelevant) {
  const CsrMatrix g = gridConductance(5, 5);
  std::vector<double> b(25, 1.0);
  WoodburySolver w1(g), w2(g);
  w1.updateBranch(7, 8, -0.5);
  w2.updateBranch(8, 7, -0.5);
  const auto x1 = w1.solve(b);
  const auto x2 = w2.solve(b);
  for (std::size_t k = 0; k < 25; ++k) EXPECT_NEAR(x1[k], x2[k], 1e-12);
}

TEST(WoodburySolver, GroundBranchUpdate) {
  const CsrMatrix g = gridConductance(4, 4);
  std::vector<double> b(16, 1.0);
  WoodburySolver w(g);
  w.updateBranch(5, -1, 2.0);  // strengthen a tie to ground
  const auto x = w.solve(b);
  const auto ref = referenceSolve(w.currentMatrix(), b);
  for (std::size_t k = 0; k < 16; ++k) EXPECT_NEAR(x[k], ref[k], 1e-9);
}

TEST(WoodburySolver, RebasePreservesSolutions) {
  const CsrMatrix g = gridConductance(6, 6);
  Rng rng(61);
  std::vector<double> b(36);
  for (auto& v : b) v = rng.uniform(0.0, 1.0);
  WoodburySolver w(g);
  w.updateBranch(1, 2, -0.4);
  w.updateBranch(8, 14, -0.9);
  const auto before = w.solve(b);
  w.rebase();
  EXPECT_EQ(w.pendingUpdateCount(), 0);
  EXPECT_EQ(w.rebaseCount(), 1);
  const auto after = w.solve(b);
  for (std::size_t k = 0; k < 36; ++k) EXPECT_NEAR(before[k], after[k], 1e-9);
}

TEST(WoodburySolver, AutoRebaseAtThreshold) {
  const CsrMatrix g = gridConductance(10, 10);
  WoodburySolver::Options opts;
  opts.rebaseThreshold = 3;
  WoodburySolver w(g, opts);
  w.updateBranch(0, 1, -0.1);
  w.updateBranch(1, 2, -0.1);
  w.updateBranch(2, 3, -0.1);
  EXPECT_EQ(w.rebaseCount(), 0);
  w.updateBranch(3, 4, -0.1);  // exceeds threshold -> rebase
  EXPECT_EQ(w.rebaseCount(), 1);
  EXPECT_EQ(w.pendingUpdateCount(), 0);
  std::vector<double> b(100, 1.0);
  const auto x = w.solve(b);
  const auto ref = referenceSolve(w.currentMatrix(), b);
  for (std::size_t k = 0; k < 100; ++k) EXPECT_NEAR(x[k], ref[k], 1e-8);
}

TEST(WoodburySolver, RejectsSelfLoopAndDoubleGround) {
  const CsrMatrix g = gridConductance(3, 3);
  WoodburySolver w(g);
  EXPECT_THROW(w.updateBranch(2, 2, 1.0), PreconditionError);
  EXPECT_THROW(w.updateBranch(-1, -1, 1.0), PreconditionError);
}

TEST(WoodburySolver, RejectsStructurallyAbsentBranch) {
  const CsrMatrix g = gridConductance(3, 3);
  WoodburySolver w(g);
  // Nodes 0 and 8 are opposite corners: no direct branch entry.
  EXPECT_THROW(w.updateBranch(0, 8, -0.1), PreconditionError);
}

// x0 − Z·y one column at a time: the loop the row-tiled kernels replace.
std::vector<double> columnLoop(const std::vector<double>& x0,
                               const std::vector<ScaledColumn>& columns) {
  std::vector<double> x = x0;
  for (const ScaledColumn& c : columns) {
    if (c.y == 0.0) continue;
    for (std::size_t r = 0; r < x.size(); ++r) x[r] -= c.z[r] * c.y;
  }
  return x;
}

bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Every tile remainder (n), column count and zero coefficient: the
// kernel's result equals the column loop's bit for bit, also in place.
// Zero coefficients sit on columns holding ±inf and x0 holds −0, so a
// kernel that subtracted 0·z would show NaN or a flipped sign.
void expectKernelMatchesColumnLoop(WoodburyKernel kernel) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(71);
  for (const std::size_t n : {1, 3, 5, 17, 2048, 2051}) {
    for (const std::size_t k : {0, 1, 3, 4, 5, 8, 9, 15, 16, 17, 96}) {
      std::vector<std::vector<double>> z(k, std::vector<double>(n));
      std::vector<ScaledColumn> columns(k);
      for (std::size_t m = 0; m < k; ++m) {
        for (auto& v : z[m]) v = rng.uniform(-1.0, 1.0);
        double y = rng.uniform(-2.0, 2.0);
        if (m % 5 == 2) {
          y = m % 2 == 0 ? 0.0 : -0.0;
          z[m][(m * 7) % n] = kInf;
          z[m][(m * 3) % n] = -kInf;
        }
        columns[m] = {z[m].data(), y};
      }
      std::vector<double> x0(n);
      for (auto& v : x0) v = rng.uniform(-1.0, 1.0);
      x0[n / 2] = -0.0;
      const std::vector<double> ref = columnLoop(x0, columns);

      std::vector<double> x(n, 7.0);
      subtractScaledColumns(kernel, x0, columns, x);
      EXPECT_TRUE(sameBits(x, ref)) << "n=" << n << " k=" << k;
      std::vector<double> inPlace = x0;
      subtractScaledColumns(kernel, inPlace, columns, inPlace);
      EXPECT_TRUE(sameBits(inPlace, ref)) << "in place, n=" << n << " k=" << k;
    }
  }
}

TEST(WoodburyApplyKernel, PlainMatchesColumnLoopBitForBit) {
  expectKernelMatchesColumnLoop(WoodburyKernel::kPlain);
}

TEST(WoodburyApplyKernel, Avx2MatchesColumnLoopBitForBit) {
  if (bestWoodburyKernel() != WoodburyKernel::kAvx2)
    GTEST_SKIP() << "this CPU has no AVX2";
  expectKernelMatchesColumnLoop(WoodburyKernel::kAvx2);
}

// A PG5 Session through a sequence of array opens, solved after each:
// both kernels give the same voltages bit for bit.
TEST(WoodburyApplyKernel, Pg5SessionVoltagesMatchAcrossKernels) {
  if (bestWoodburyKernel() != WoodburyKernel::kAvx2)
    GTEST_SKIP() << "this CPU has no AVX2";
  const Netlist netlist = generatePgBenchmark(PgPreset::kPg5);
  const PowerGridModel model(netlist);
  const int arrays = static_cast<int>(model.viaArrays().size());
  ASSERT_GT(arrays, 40);
  const auto opens = [&](WoodburyKernel kernel) {
    WoodburySolver::setApplyKernelForTesting(kernel);
    PowerGridModel::Session session(model);
    std::vector<std::vector<double>> voltages;
    for (int f = 0; f < 40; ++f) {
      session.openArray((f * 37) % arrays);
      const auto sol = session.solve();
      EXPECT_TRUE(sol.solverOk);
      voltages.push_back(sol.voltages);
    }
    return voltages;
  };
  const auto plain = opens(WoodburyKernel::kPlain);
  const auto avx2 = opens(WoodburyKernel::kAvx2);
  WoodburySolver::setApplyKernelForTesting(bestWoodburyKernel());
  ASSERT_EQ(plain.size(), avx2.size());
  for (std::size_t f = 0; f < plain.size(); ++f)
    EXPECT_TRUE(sameBits(plain[f], avx2[f])) << "after open " << f + 1;
}

class WoodburyFailureSweep : public ::testing::TestWithParam<int> {};

TEST_P(WoodburyFailureSweep, ManySequentialOpensStayAccurate) {
  const int failures = GetParam();
  const CsrMatrix g = gridConductance(9, 9, 0.5);
  Rng rng(1009);
  std::vector<double> b(81);
  for (auto& v : b) v = rng.uniform(0.0, 0.2);

  WoodburySolver::Options opts;
  opts.rebaseThreshold = 6;  // force several rebases for large sweeps
  WoodburySolver w(g, opts);

  int done = 0;
  for (Index y = 0; y < 9 && done < failures; ++y) {
    for (Index x = 0; x + 1 < 9 && done < failures; x += 2) {
      const Index i = y * 9 + x;
      const Index j = y * 9 + x + 1;
      const double gOld = -w.currentMatrix().at(i, j);
      if (gOld <= 0.0) continue;
      w.updateBranch(i, j, -gOld * 0.999);
      ++done;
    }
  }
  const auto x = w.solve(b);
  const auto ref = referenceSolve(w.currentMatrix(), b);
  for (std::size_t k = 0; k < 81; ++k) EXPECT_NEAR(x[k], ref[k], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(FailureCounts, WoodburyFailureSweep,
                         ::testing::Values(1, 4, 8, 16, 30));

}  // namespace
}  // namespace viaduct
