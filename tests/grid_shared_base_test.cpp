// Level-2 shared-base engine tests: the synthetic mesh generator, the
// immutable shared base factorization behind every Session, supernodal vs
// up-looking session parity, thread-count bit-identity of the grid Monte
// Carlo, the grid.base_factor / cholesky.supernodal_factor fault sites, and
// the cached base solution behind Session::solve() (bit-identity with the
// general solve path, at most one factored solve per array failure), and
// the model's shared cache of incidence columns (hits equal fresh solves,
// every stored seeded column equals a dense base solve bit for bit, a full
// cache changes no sample, concurrent sessions, the storage bound).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <set>
#include <thread>
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

/// 21 arrays per stripe, 420 in all, on 1240 unknowns: enough arrays to
/// cross the default rebase threshold (256 pending branches), and few
/// enough unknowns that the column budget floor (4 MiB, 422 columns) holds
/// every array.
MeshSpec cacheRoomSpec() {
  MeshSpec spec;
  spec.rows = 20;
  spec.cols = 41;
  spec.viaPitch = 2;
  spec.padPitch = 4;
  return spec;
}

/// Distinct opens that take a session one past the default rebase
/// threshold: the last one triggers the fold.
constexpr int kOpensToFold = WoodburySolver::Options{}.rebaseThreshold + 1;
/// Opens that run three past the fold.
constexpr int kCappedOpens = kOpensToFold + 3;

TEST_F(GridSharedBaseTest, SessionSolveMatchesGeneralPathAcrossRebase) {
  // Opens past the default rebase threshold: the fold re-solves the base
  // solution on the private factor.
  const PowerGridModel model(tunedMesh(cacheRoomSpec()), supernodalConfig());
  EXPECT_EQ(expectSessionSolvesMatchGeneralPath(model, kCappedOpens, 13), 1);
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
  const PowerGridModel model(tunedMesh(cacheRoomSpec()), off);
  EXPECT_EQ(expectSessionSolvesMatchGeneralPath(model, kCappedOpens, 23), 1);
}

/// A criterion no opening sequence reaches (a stripe whose arrays have all
/// opened still hangs on their residual conductance, at a finite drop), so
/// every trial runs to the cap and crosses the default rebase threshold
/// once: opens 1–kOpensToFold run on the shared base (the last of them
/// triggers the fold), the other three on the trial's private factor. The
/// narrow TTF spread makes trials open mostly the same arrays, the case the
/// column cache serves.
GridMcOptions cappedMcOptions(int trials, int threads) {
  GridMcOptions opts;
  opts.arrayTtf = Lognormal::fromMedian(8.0 * units::year, 0.01);
  opts.referenceCurrentAmps = 0.01;
  opts.trials = trials;
  opts.seed = 5;
  opts.systemCriterion.irDropFraction = 1e30;
  opts.maxFailuresPerTrial = kCappedOpens;
  opts.parallelism.threads = threads;
  return opts;
}

TEST_F(GridSharedBaseTest, GridMcIssuesOneFactoredSolvePerFailure) {
  // Solve budget beyond the model's one base solve: each of the D distinct
  // arrays opened on the shared base costs one incidence column for the
  // whole run (the model's column cache serves every repeat, in any
  // trial), each of the F_post failures after a rebase one column on the
  // private factor, and each of the R folds one base solution. Healthy
  // starts and re-solves reuse the cached base solution.
  obs::setEnabled(true);
  auto& registry = obs::Registry::instance();
  auto& solves = registry.counter("cholesky.triangular_solves");
  auto& failures = registry.counter("grid_mc.array_failures");
  auto& rebases = registry.counter("woodbury.rebases");
  auto& hits = registry.counter("woodbury.column_cache_hits");
  auto& misses = registry.counter("woodbury.column_cache_misses");
  const Netlist net = tunedMesh(cacheRoomSpec());
  constexpr std::uint64_t kTrials = 4;
  constexpr std::uint64_t kPostOpens = kCappedOpens - kOpensToFold;

  std::uint64_t distinctAtOneThread = 0;
  for (const int threads : {1, 4}) {
    const std::uint64_t s0 = solves.value();
    const std::uint64_t f0 = failures.value();
    const std::uint64_t r0 = rebases.value();
    const std::uint64_t h0 = hits.value();
    const std::uint64_t m0 = misses.value();
    const PowerGridModel model(net, PowerGridConfig{});
    EXPECT_EQ(solves.value() - s0, 1u);
    const auto result = runGridMonteCarlo(
        model, cappedMcOptions(static_cast<int>(kTrials), threads));
    ASSERT_EQ(result.ttfSamples.size(), kTrials);

    const std::uint64_t f = failures.value() - f0;
    const std::uint64_t r = rebases.value() - r0;
    ASSERT_EQ(f, kTrials * kCappedOpens);
    ASSERT_EQ(r, kTrials);
    // Every shared-base open asked the cache once; the cache kept room,
    // so it stored every distinct array: D = its entry count.
    const auto& cache = *model.columnCache();
    const std::size_t columnBytes =
        static_cast<std::size_t>(model.unknownCount()) * sizeof(double);
    ASSERT_LE(cache.bytes() + columnBytes, cache.byteBudget());
    const std::uint64_t distinct = cache.size();
    const std::uint64_t fPost = kTrials * kPostOpens;
    EXPECT_EQ(hits.value() - h0 + misses.value() - m0, f - fPost);
    EXPECT_LT(distinct, f - fPost) << "no array repeated across trials";
    const std::uint64_t spent = solves.value() - s0;
    if (threads == 1) {
      distinctAtOneThread = distinct;
      EXPECT_EQ(misses.value() - m0, distinct);
      EXPECT_EQ(spent, 1u + distinct + fPost + r) << "threads=1";
    } else {
      // Concurrent trials may both miss on one array before either stores
      // it; each such race costs one extra solve, never a wrong column.
      EXPECT_EQ(distinct, distinctAtOneThread);
      EXPECT_EQ(spent, 1u + (misses.value() - m0) + fPost + r);
      EXPECT_GE(spent, 1u + distinct + fPost + r) << "threads=" << threads;
      EXPECT_LE(spent, 1u + f + r) << "threads=" << threads;
    }
  }
}

/// G0⁻¹·(e_a − e_b) for via-array site `site`, solved on the model's base
/// factor.
std::vector<double> baseIncidenceColumn(const PowerGridModel& model,
                                        const ViaArraySite& site) {
  std::vector<double> a(static_cast<std::size_t>(model.unknownCount()), 0.0);
  a[static_cast<std::size_t>(site.a)] = 1.0;
  a[static_cast<std::size_t>(site.b)] = -1.0;
  return model.baseFactor()->solve(a);
}

TEST_F(GridSharedBaseTest, ColumnCacheHitEqualsABaseFactorSolve) {
  // A second Session opening the same array reads the column the first
  // one stored: it is the base factor's solve of the incidence vector, bit
  // for bit, under either backend, and both sessions solve identically.
  obs::setEnabled(true);
  auto& hits = obs::Registry::instance().counter("woodbury.column_cache_hits");
  const Netlist net = tunedMesh(smallSpec());
  for (const PowerGridConfig& config :
       {supernodalConfig(), PowerGridConfig{}}) {
    const PowerGridModel model(net, config);
    ASSERT_NE(model.columnCache(), nullptr);
    PowerGridModel::Session first(model);
    PowerGridModel::Session second(model);
    for (const int array : {3, 17, 40}) {
      first.openArray(array);
      const std::uint64_t hits0 = hits.value();
      second.openArray(array);
      EXPECT_EQ(hits.value() - hits0, 1u) << "array " << array;
      const ViaArraySite& site = model.viaArrays()[array];
      const auto column = model.columnCache()->find(
          std::min(site.a, site.b), std::max(site.a, site.b));
      ASSERT_NE(column, nullptr) << "array " << array;
      EXPECT_TRUE(*column == baseIncidenceColumn(model, site))
          << "array " << array;
      EXPECT_TRUE(first.solve().voltages == second.solve().voltages)
          << "array " << array;
    }
    EXPECT_EQ(model.columnCache()->size(), 3u);
  }

  PowerGridConfig off = supernodalConfig();
  off.sharedBaseFactor = false;
  EXPECT_EQ(PowerGridModel(net, off).columnCache(), nullptr);
}

TEST_F(GridSharedBaseTest, EveryCachedColumnIsBitIdenticalToADenseBaseSolve) {
  // Sessions fill the cache through SpdFactor::solveIncidence (on the
  // supernodal backend a seeded, reach-limited forward sweep). Every
  // column stored after a multi-threaded Monte Carlo must equal the base
  // factor's solve of the dense e_i − e_j bit for bit, signed zeros
  // included.
  const Netlist net = tunedMesh(smallSpec());
  GridMcOptions opts;
  opts.arrayTtf = Lognormal::fromMedian(8.0 * units::year, 0.4);
  opts.referenceCurrentAmps = 0.01;
  opts.trials = 4;
  opts.seed = 23;
  opts.maxFailuresPerTrial = 4;
  opts.parallelism.threads = 2;
  for (const PowerGridConfig& config :
       {supernodalConfig(), PowerGridConfig{}}) {
    const PowerGridModel model(net, config);
    (void)runGridMonteCarlo(model, opts);
    const IncidenceColumnCache& cache = *model.columnCache();
    std::set<std::pair<Index, Index>> checked;
    for (const ViaArraySite& site : model.viaArrays()) {
      const Index i = std::min(site.a, site.b);
      const Index j = std::max(site.a, site.b);
      const auto column = cache.find(i, j);
      if (column == nullptr || !checked.insert({i, j}).second) continue;
      std::vector<double> a(static_cast<std::size_t>(model.unknownCount()),
                            0.0);
      a[static_cast<std::size_t>(i)] = 1.0;
      a[static_cast<std::size_t>(j)] = -1.0;
      const std::vector<double> dense = model.baseFactor()->solve(a);
      ASSERT_EQ(column->size(), dense.size());
      EXPECT_EQ(std::memcmp(column->data(), dense.data(),
                            dense.size() * sizeof(double)),
                0)
          << spdSolverKindName(config.gridSolver) << " branch (" << i << ", "
          << j << ")";
    }
    EXPECT_GT(checked.size(), 0u);
    EXPECT_EQ(checked.size(), cache.size());
  }
}

TEST_F(GridSharedBaseTest, FullColumnCacheKeepsSamplesAndItsBound) {
  // The cache holds at most max(the base factor's own storage, 4 MiB). On
  // a 40x40 mesh with an array at every crossing (3200 unknowns) the floor
  // binds: 163 columns, so one long Monte Carlo fills it. A second run on
  // the full cache (hits on what it holds, unstored solves for the rest)
  // must give the samples of the same run on a fresh model whose cache
  // still has room, and of a model with no cache at all.
  MeshSpec spec;
  spec.rows = 40;
  spec.cols = 40;
  spec.viaPitch = 1;
  spec.padPitch = 8;
  const Netlist net = tunedMesh(spec);
  GridMcOptions opts;
  opts.arrayTtf = Lognormal::fromMedian(8.0 * units::year, 0.4);
  opts.referenceCurrentAmps = 0.01;
  opts.trials = 4;  // at most 16 distinct arrays: the cache keeps room
  opts.seed = 21;
  opts.maxFailuresPerTrial = 4;

  const PowerGridModel fresh(net, PowerGridConfig{});
  const auto& freshCache = *fresh.columnCache();
  const std::size_t columnBytes =
      static_cast<std::size_t>(fresh.unknownCount()) * sizeof(double);
  EXPECT_EQ(freshCache.byteBudget(),
            std::max(fresh.baseFactor()->factorNonZeroCount() *
                         (sizeof(double) + sizeof(Index)),
                     IncidenceColumnCache::kMinByteBudget));
  EXPECT_EQ(freshCache.byteBudget(), IncidenceColumnCache::kMinByteBudget);
  const auto withRoom = runGridMonteCarlo(fresh, opts);
  ASSERT_EQ(withRoom.ttfSamples.size(), 4u);
  EXPECT_LE(freshCache.bytes() + columnBytes, freshCache.byteBudget())
      << "the reference run filled its cache";

  const PowerGridModel filled(net, PowerGridConfig{});
  const auto& cache = *filled.columnCache();
  GridMcOptions filling = opts;
  filling.seed = 22;
  filling.trials = 48;
  filling.maxFailuresPerTrial = 12;
  (void)runGridMonteCarlo(filled, filling);
  ASSERT_GT(cache.bytes() + columnBytes, cache.byteBudget())
      << "the filling run left room in the cache";
  const std::size_t storedBefore = cache.size();
  const auto onFull = runGridMonteCarlo(filled, opts);
  EXPECT_EQ(cache.size(), storedBefore);
  EXPECT_LE(cache.bytes(), cache.byteBudget());
  EXPECT_EQ(cache.bytes(), cache.size() * columnBytes);

  PowerGridConfig off;
  off.sharedBaseFactor = false;
  const auto uncached = runGridMonteCarlo(PowerGridModel(net, off), opts);
  EXPECT_EQ(onFull.ttfSamples, withRoom.ttfSamples);
  EXPECT_EQ(uncached.ttfSamples, withRoom.ttfSamples);
}

TEST_F(GridSharedBaseTest, ConcurrentSessionsShareTheColumnCache) {
  // Four threads, each with its own Session on one model, open overlapping
  // array sequences at the same time, so lookups, misses and inserts on
  // the shared cache interleave (a race shows under VIADUCT_SANITIZE=thread).
  // Every session must solve exactly as the same sequence does alone on a
  // fresh model.
  const Netlist net = tunedMesh(smallSpec());
  const PowerGridModel model(net, supernodalConfig());
  const int count = static_cast<int>(model.viaArrays().size());
  constexpr int kThreads = 4;
  constexpr int kOpens = 10;
  auto sequence = [&](int t) {
    std::vector<int> order(static_cast<std::size_t>(count));
    std::iota(order.begin(), order.end(), 0);
    // Shared prefix, then per-thread tails: repeats and fresh arrays.
    std::shuffle(order.begin() + 4, order.end(),
                 std::mt19937_64(static_cast<std::uint64_t>(t)));
    order.resize(kOpens);
    return order;
  };
  auto run = [](const PowerGridModel& m, const std::vector<int>& order) {
    std::vector<std::vector<double>> voltages;
    PowerGridModel::Session session(m);
    for (const int array : order) {
      session.openArray(array);
      voltages.push_back(session.solve().voltages);
    }
    return voltages;
  };

  std::vector<std::vector<std::vector<double>>> concurrent(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      concurrent[static_cast<std::size_t>(t)] = run(model, sequence(t));
    });
  for (auto& w : workers) w.join();

  for (int t = 0; t < kThreads; ++t) {
    const PowerGridModel alone(net, supernodalConfig());
    EXPECT_TRUE(concurrent[static_cast<std::size_t>(t)] ==
                run(alone, sequence(t)))
        << "session " << t;
  }
  EXPECT_LE(model.columnCache()->bytes(), model.columnCache()->byteBudget());
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
