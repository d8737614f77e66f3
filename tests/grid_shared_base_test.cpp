// Level-2 shared-base engine tests: the synthetic mesh generator, the
// immutable shared base factorization behind every Session, supernodal vs
// up-looking session parity, thread-count bit-identity of the grid Monte
// Carlo, the grid.base_factor / cholesky.supernodal_factor fault sites, and
// the cached base solution behind Session::solve() (bit-identity with the
// general solve path, one factored solve per array failure).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"
#include "fault/fault.h"
#include "grid/grid_mc.h"
#include "grid/mesh.h"
#include "grid/power_grid.h"
#include "numerics/supernodal_cholesky.h"
#include "obs/obs.h"

namespace viaduct {
namespace {

class GridSharedBaseTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::Registry::instance().disarmAll();
    fault::Registry::instance().setSeed(0);
  }
};

MeshSpec smallSpec() {
  MeshSpec spec;
  spec.rows = 20;
  spec.cols = 20;
  spec.viaPitch = 4;
  spec.padPitch = 8;
  return spec;
}

Netlist tunedMesh(const MeshSpec& spec, double irFraction = 0.08) {
  Netlist n = buildMeshNetlist(spec);
  tuneNominalIrDrop(n, irFraction);
  return n;
}

PowerGridConfig supernodalConfig() {
  PowerGridConfig config;
  config.gridSolver = SpdSolverKind::kSupernodal;
  config.gridOrdering = OrderingChoice::kAmd;
  return config;
}

/// Opens the same pseudo-random array sequence in both sessions and
/// demands voltage agreement within `tol` after every step.
void compareSessions(const PowerGridModel& a, const PowerGridModel& b,
                     int steps, double tol, std::uint64_t seed) {
  ASSERT_EQ(a.viaArrays().size(), b.viaArrays().size());
  PowerGridModel::Session sa(a);
  PowerGridModel::Session sb(b);
  Rng rng(seed, 0);
  const int count = static_cast<int>(a.viaArrays().size());
  for (int s = 0; s < steps; ++s) {
    const int idx = static_cast<int>(rng.uniform(0.0, 1.0) * count) % count;
    if (s % 3 == 2) {
      sa.degradeArray(idx, 5.0);
      sb.degradeArray(idx, 5.0);
    } else {
      sa.openArray(idx);
      sb.openArray(idx);
    }
    const auto va = sa.solve();
    const auto vb = sb.solve();
    ASSERT_TRUE(va.solverOk);
    ASSERT_TRUE(vb.solverOk);
    ASSERT_EQ(va.voltages.size(), vb.voltages.size());
    for (std::size_t i = 0; i < va.voltages.size(); ++i)
      ASSERT_NEAR(va.voltages[i], vb.voltages[i], tol)
          << "node " << i << " after step " << s;
    EXPECT_NEAR(va.worstIrDropFraction, vb.worstIrDropFraction, tol);
  }
}

/// Opens `failures` distinct arrays in a seeded order. After the healthy
/// start and after every failure, Session::solve() (the cached base
/// solution) must equal bit-for-bit the general solve(rhs) path of the
/// same session solver. `beforeFailure(s)` runs before failure s opens its
/// array (e.g. to arm a fault; every site is disarmed again before the
/// general-path solve). Returns the session's rebase count.
template <typename BeforeFailure>
int expectSessionSolvesMatchGeneralPath(const PowerGridModel& model,
                                        int failures, std::uint64_t seed,
                                        BeforeFailure beforeFailure) {
  std::vector<int> order(model.viaArrays().size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), std::mt19937_64(seed));
  EXPECT_LE(static_cast<std::size_t>(failures), order.size());

  PowerGridModel::Session session(model);
  const auto healthy = session.solve();
  EXPECT_TRUE(healthy.solverOk);
  EXPECT_TRUE(healthy.voltages == session.solver().solve(model.rhsVector()))
      << "healthy start";
  for (int s = 0; s < failures; ++s) {
    beforeFailure(s);
    session.openArray(order[static_cast<std::size_t>(s)]);
    const auto sol = session.solve();
    fault::Registry::instance().disarmAll();
    EXPECT_TRUE(sol.solverOk) << "after failure " << s;
    EXPECT_TRUE(sol.voltages == session.solver().solve(model.rhsVector()))
        << "after failure " << s;
  }
  return session.solver().rebaseCount();
}

int expectSessionSolvesMatchGeneralPath(const PowerGridModel& model,
                                        int failures, std::uint64_t seed) {
  return expectSessionSolvesMatchGeneralPath(model, failures, seed,
                                             [](int) {});
}

TEST_F(GridSharedBaseTest, SessionSolveMatchesGeneralPathAcrossRebase) {
  // 55 opens exceed the default rebase threshold (48 pending branches):
  // the fold re-solves the base solution on the private factor.
  const PowerGridModel model(tunedMesh(smallSpec()), supernodalConfig());
  EXPECT_EQ(expectSessionSolvesMatchGeneralPath(model, 55, 13), 1);
}

TEST_F(GridSharedBaseTest, SessionSolveMatchesGeneralPathThroughUpdateFold) {
  // A rejected woodbury.update is folded into a fresh factor
  // (refactorOnWoodburyFailure) instead of extending Z.
  const PowerGridModel model(tunedMesh(smallSpec()), PowerGridConfig{});
  const int rebases =
      expectSessionSolvesMatchGeneralPath(model, 10, 17, [](int s) {
        if (s == 4)
          fault::Registry::instance().arm("woodbury.update", {.nth = 1});
      });
  EXPECT_EQ(fault::Registry::instance().fireCount("woodbury.update"), 1u);
  EXPECT_EQ(rebases, 1);
}

TEST_F(GridSharedBaseTest, SessionSolveMatchesGeneralPathThroughSolveRetry) {
  // A failed incremental solve with pending updates: Session::solve()
  // rebases and retries once, and the retry reads the re-solved base.
  const PowerGridModel model(tunedMesh(smallSpec()), PowerGridConfig{});
  const int rebases =
      expectSessionSolvesMatchGeneralPath(model, 8, 19, [](int s) {
        if (s == 3)
          fault::Registry::instance().arm("woodbury.solve", {.nth = 1});
      });
  EXPECT_EQ(fault::Registry::instance().fireCount("woodbury.solve"), 1u);
  EXPECT_EQ(rebases, 1);
}

TEST_F(GridSharedBaseTest, SessionSolveMatchesGeneralPathWithoutSharedBase) {
  // sharedBaseFactor=false: each session factors privately and computes
  // its own base solution on that factor, through the same code path.
  PowerGridConfig off = supernodalConfig();
  off.sharedBaseFactor = false;
  const PowerGridModel model(tunedMesh(smallSpec()), off);
  EXPECT_EQ(expectSessionSolvesMatchGeneralPath(model, 55, 23), 1);
}

TEST_F(GridSharedBaseTest, GridMcIssuesOneFactoredSolvePerFailure) {
  // Solve budget: F array failures and R rebases cost exactly F + R
  // factored solves beyond the model's one base solve — each failure's
  // incidence column and each fold's base solution; healthy starts and
  // re-solves reuse the cached base solution.
  obs::setEnabled(true);
  auto& registry = obs::Registry::instance();
  auto& solves = registry.counter("cholesky.triangular_solves");
  auto& failures = registry.counter("grid_mc.array_failures");
  auto& rebases = registry.counter("woodbury.rebases");
  // 61 arrays per stripe: the 52 opens of a trial cannot cut a stripe off
  // its straps, so no trial breaches before the cap.
  MeshSpec spec;
  spec.rows = 10;
  spec.cols = 121;
  spec.viaPitch = 2;
  spec.padPitch = 4;
  const Netlist net = tunedMesh(spec);
  const std::uint64_t s0 = solves.value();
  const std::uint64_t f0 = failures.value();
  const std::uint64_t r0 = rebases.value();

  const PowerGridModel model(net, supernodalConfig());
  EXPECT_EQ(solves.value() - s0, 1u);
  GridMcOptions opts;
  opts.arrayTtf = Lognormal::fromMedian(8.0 * units::year, 0.4);
  opts.referenceCurrentAmps = 0.01;
  opts.trials = 4;
  opts.seed = 5;
  // A criterion no opening sequence reaches, so every trial runs to the
  // cap and crosses the default rebase threshold (48) once.
  opts.systemCriterion.irDropFraction = 0.999;
  opts.maxFailuresPerTrial = 52;
  const auto result = runGridMonteCarlo(model, opts);
  ASSERT_EQ(result.ttfSamples.size(), 4u);

  const std::uint64_t f = failures.value() - f0;
  const std::uint64_t r = rebases.value() - r0;
  EXPECT_EQ(f, 4u * 52u);
  EXPECT_EQ(r, 4u);
  EXPECT_EQ(solves.value() - s0, 1u + f + r);
}

TEST_F(GridSharedBaseTest, MeshSpecHitsNodeTargets) {
  for (const Index target : {10000, 100000}) {
    const MeshSpec spec = meshSpecForNodeTarget(target);
    const double ratio =
        static_cast<double>(spec.nodeCount()) / static_cast<double>(target);
    EXPECT_GT(ratio, 0.9) << "target " << target;
    EXPECT_LT(ratio, 1.1) << "target " << target;
  }
}

TEST_F(GridSharedBaseTest, MeshBuildsAWorkingGridModel) {
  const MeshSpec spec = smallSpec();
  const PowerGridModel model(tunedMesh(spec), supernodalConfig());
  // All load + strap nodes are unknowns; pads are eliminated.
  EXPECT_EQ(model.unknownCount(), spec.nodeCount());
  // One via array per stripe/strap crossing.
  const Index straps = (spec.cols - 1) / spec.viaPitch + 1;
  EXPECT_EQ(static_cast<Index>(model.viaArrays().size()), spec.rows * straps);
  const auto nominal = model.solveNominal();
  ASSERT_TRUE(nominal.solverOk);
  EXPECT_NEAR(nominal.worstIrDropFraction, 0.08, 1e-9);
  EXPECT_LT(model.kclResidual(nominal), 1e-9);
}

TEST_F(GridSharedBaseTest, MeshNetlistIsDeterministic) {
  const PowerGridModel a(tunedMesh(smallSpec()));
  const PowerGridModel b(tunedMesh(smallSpec()));
  EXPECT_EQ(a.structureDigest(), b.structureDigest());
}

TEST_F(GridSharedBaseTest, ModelExposesSharedBaseFactor) {
  const Netlist net = tunedMesh(smallSpec());
  const PowerGridModel shared(net, supernodalConfig());
  ASSERT_NE(shared.baseFactor(), nullptr);
  EXPECT_EQ(shared.baseFactor()->kind(), SpdSolverKind::kSupernodal);
  EXPECT_EQ(shared.baseFactor()->size(), shared.unknownCount());

  PowerGridConfig off = supernodalConfig();
  off.sharedBaseFactor = false;
  const PowerGridModel legacy(net, off);
  EXPECT_EQ(legacy.baseFactor(), nullptr);
}

TEST_F(GridSharedBaseTest, SharedSessionsMatchExactPerTrialFactors) {
  // Shared-base sessions (Woodbury deltas on the model's immutable factor)
  // against the legacy architecture that refactors privately per session:
  // same physics, so voltages must agree over a long failure sequence.
  const Netlist net = tunedMesh(smallSpec());
  PowerGridConfig off = supernodalConfig();
  off.sharedBaseFactor = false;
  const PowerGridModel shared(net, supernodalConfig());
  const PowerGridModel exact(net, off);
  compareSessions(shared, exact, /*steps=*/12, /*tol=*/1e-10, /*seed=*/31);
}

TEST_F(GridSharedBaseTest, SupernodalSessionsMatchUplooking) {
  // The two solver backends under identical failure sequences: supernodal
  // + AMD vs the historical up-looking + RCM pipeline, both shared-base.
  const Netlist net = tunedMesh(smallSpec());
  const PowerGridModel supernodal(net, supernodalConfig());
  const PowerGridModel uplooking(net, PowerGridConfig{});
  EXPECT_EQ(uplooking.baseFactor()->kind(), SpdSolverKind::kUplooking);
  compareSessions(supernodal, uplooking, /*steps=*/12, /*tol=*/1e-10,
                  /*seed=*/77);
}

TEST_F(GridSharedBaseTest, GridMcBitIdenticalAcrossThreadCounts) {
  const PowerGridModel model(tunedMesh(smallSpec()), supernodalConfig());
  GridMcOptions opts;
  opts.arrayTtf = Lognormal::fromMedian(8.0 * units::year, 0.4);
  opts.referenceCurrentAmps = 0.01;
  opts.trials = 24;
  opts.seed = 9;
  opts.maxFailuresPerTrial = 6;
  opts.parallelism.threads = 1;
  const auto serial = runGridMonteCarlo(model, opts);
  ASSERT_EQ(serial.ttfSamples.size(), 24u);
  for (const int threads : {4, 8}) {
    opts.parallelism.threads = threads;
    const auto parallel = runGridMonteCarlo(model, opts);
    ASSERT_EQ(parallel.ttfSamples.size(), serial.ttfSamples.size());
    for (std::size_t i = 0; i < serial.ttfSamples.size(); ++i)
      EXPECT_EQ(parallel.ttfSamples[i], serial.ttfSamples[i])
          << "trial " << i << " with " << threads << " threads";
  }
}

TEST_F(GridSharedBaseTest, GridMcSamplesUnchangedBySharedBase) {
  // Flipping sharedBaseFactor changes who owns the factorization, not the
  // arithmetic: the Monte Carlo must emit identical samples either way.
  const Netlist net = tunedMesh(smallSpec());
  PowerGridConfig off = supernodalConfig();
  off.sharedBaseFactor = false;
  const PowerGridModel shared(net, supernodalConfig());
  const PowerGridModel legacy(net, off);
  GridMcOptions opts;
  opts.arrayTtf = Lognormal::fromMedian(8.0 * units::year, 0.4);
  opts.referenceCurrentAmps = 0.01;
  opts.trials = 12;
  opts.seed = 4;
  opts.maxFailuresPerTrial = 6;
  const auto a = runGridMonteCarlo(shared, opts);
  const auto b = runGridMonteCarlo(legacy, opts);
  ASSERT_EQ(a.ttfSamples.size(), b.ttfSamples.size());
  for (std::size_t i = 0; i < a.ttfSamples.size(); ++i)
    EXPECT_EQ(a.ttfSamples[i], b.ttfSamples[i]) << "trial " << i;
}

TEST_F(GridSharedBaseTest, BaseFactorFaultFallsBackDownTheLadder) {
  // grid.base_factor armed: with the policy enabled the model retries the
  // base factorization with the up-looking + RCM fallback and stays usable.
  const Netlist net = tunedMesh(smallSpec());
  fault::Registry::instance().arm("grid.base_factor", {.nth = 1});
  const PowerGridModel model(net, supernodalConfig());
  EXPECT_GE(fault::Registry::instance().fireCount("grid.base_factor"), 1u);
  ASSERT_NE(model.baseFactor(), nullptr);
  EXPECT_EQ(model.baseFactor()->kind(), SpdSolverKind::kUplooking);
  const auto nominal = model.solveNominal();
  ASSERT_TRUE(nominal.solverOk);
  EXPECT_LT(model.kclResidual(nominal), 1e-9);
}

TEST_F(GridSharedBaseTest, BaseFactorFaultAbortsWithPolicyDisabled) {
  const Netlist net = tunedMesh(smallSpec());
  PowerGridConfig config = supernodalConfig();
  config.policy = fault::FailurePolicy::disabled();
  fault::Registry::instance().arm("grid.base_factor", {.nth = 1});
  EXPECT_THROW(PowerGridModel(net, config), NumericalError);
}

TEST_F(GridSharedBaseTest, SupernodalFactorSiteInjects) {
  // The numeric-factorization site: a direct construction fails, and a
  // policy-enabled model recovers through the same ladder (the injected
  // NumericalError is indistinguishable from an organic one).
  const Netlist net = tunedMesh(smallSpec());
  const PowerGridModel plain(net, supernodalConfig());
  fault::Registry::instance().arm("cholesky.supernodal_factor", {.nth = 1});
  EXPECT_THROW(SupernodalCholesky(plain.conductanceMatrix()), NumericalError);

  fault::Registry::instance().disarmAll();
  fault::Registry::instance().arm("cholesky.supernodal_factor", {.nth = 1});
  const PowerGridModel recovered(net, supernodalConfig());
  EXPECT_GE(
      fault::Registry::instance().fireCount("cholesky.supernodal_factor"),
      1u);
  ASSERT_NE(recovered.baseFactor(), nullptr);
  EXPECT_EQ(recovered.baseFactor()->kind(), SpdSolverKind::kUplooking);
  ASSERT_TRUE(recovered.solveNominal().solverOk);
}

}  // namespace
}  // namespace viaduct
