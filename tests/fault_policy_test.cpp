// Recovery-path tests: the FEA CG retry ladder (ThermoSolver::solve),
// Woodbury/session refactor recovery, characterization-cache
// corruption recompute-and-rewrite, and per-trial discard/salvage/abort
// semantics in the grid Monte Carlo.
#include "fault/policy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "fault/fault.h"
#include "fea/thermo_solver.h"
#include "grid/grid_mc.h"
#include "obs/obs.h"
#include "spice/generator.h"
#include "viaarray/cache.h"

namespace viaduct {
namespace {

class FaultPolicyTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::Registry::instance().disarmAll();
    fault::Registry::instance().setSeed(0);
  }
};

// ---------------------------------------------------------------------------
// FEA CG ladder (ThermoSolver::solve): a stalled or NaN-poisoned solve is
// retried from a zero guess with a tightened tolerance; a multigrid solve
// also degrades to IC(0) on its first retry. There is no direct-solve rung.

/// A small two-material stack (silicon under copper), so the stress field
/// is not a trivial uniform slab.
VoxelGrid feaGrid() {
  VoxelGrid g = VoxelGrid::uniform(6, 6, 6, 0.25e-6, 0.25e-6, 0.2e-6,
                                   MaterialId::kCopper);
  for (Index k = 0; k < 3; ++k)
    for (Index j = 0; j < 6; ++j)
      for (Index i = 0; i < 6; ++i)
        g.setMaterial(i, j, k, MaterialId::kSilicon);
  return g;
}

ThermoSolverOptions feaOptions(FeaPreconditionerKind kind) {
  ThermoSolverOptions opt;
  opt.preconditioner = kind;
  opt.parallelism.threads = 1;
  return opt;
}

std::vector<double> allDisplacements(const ThermoSolver& solver,
                                     const VoxelGrid& grid) {
  std::vector<double> u;
  for (Index k = 0; k <= grid.nz(); ++k)
    for (Index j = 0; j <= grid.ny(); ++j)
      for (Index i = 0; i <= grid.nx(); ++i) {
        const auto d = solver.displacement(i, j, k);
        u.insert(u.end(), d.begin(), d.end());
      }
  return u;
}

double relativeDiff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += b[i] * b[i];
  }
  return std::sqrt(num / den);
}

std::uint64_t counterValue(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

TEST_F(FaultPolicyTest, NanResidualIsRetriedFromZeroGuess) {
  const VoxelGrid grid = feaGrid();
  // The production preconditioner: the retry also swaps multigrid for
  // IC(0), so nothing of the poisoned first attempt survives into it.
  const ThermoSolverOptions opt = feaOptions(FeaPreconditionerKind::kMultigrid);
  ThermoSolver clean(grid, opt);
  ASSERT_TRUE(clean.solve().converged);
  const auto reference = allDisplacements(clean, grid);

  const auto retries0 = counterValue("fault.policy.fea_retries");
  fault::Registry::instance().arm("cg.nan_residual", {.nth = 1});
  ThermoSolver solver(grid, opt);
  const CgResult res = solver.solve();
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(solver.solved());
  EXPECT_EQ(counterValue("fault.policy.fea_retries") - retries0, 1u);
  EXPECT_EQ(solver.activePreconditioner(), FeaPreconditionerKind::kIc0);
  EXPECT_LE(relativeDiff(allDisplacements(solver, grid), reference),
            opt.cgRelativeTolerance);
}

TEST_F(FaultPolicyTest, RetryRecoversWithoutFallback) {
  // IC(0) has no preconditioner rung to fall to: one stall is recovered by
  // the tightened retry alone.
  const VoxelGrid grid = feaGrid();
  const auto retries0 = counterValue("fault.policy.fea_retries");
  const auto fallbacks0 = counterValue("fault.policy.fea_precond_fallbacks");
  fault::Registry::instance().arm("cg.nonconverge", {.nth = 1});
  ThermoSolver solver(grid, feaOptions(FeaPreconditionerKind::kIc0));
  EXPECT_TRUE(solver.solve().converged);
  EXPECT_EQ(counterValue("fault.policy.fea_retries") - retries0, 1u);
  EXPECT_EQ(counterValue("fault.policy.fea_precond_fallbacks"), fallbacks0);
  EXPECT_EQ(solver.activePreconditioner(), FeaPreconditionerKind::kIc0);
}

TEST_F(FaultPolicyTest, DisabledPolicyPropagatesTheFailure) {
  const VoxelGrid grid = feaGrid();
  ThermoSolverOptions opt = feaOptions(FeaPreconditionerKind::kIc0);
  opt.policy = fault::FailurePolicy::disabled();
  const auto retries0 = counterValue("fault.policy.fea_retries");

  fault::Registry::instance().arm("cg.nonconverge", {.probability = 1.0});
  ThermoSolver stalled(grid, opt);
  EXPECT_THROW(stalled.solve(), NumericalError);

  fault::Registry::instance().disarmAll();
  fault::Registry::instance().arm("cg.nan_residual", {.probability = 1.0});
  ThermoSolver poisoned(grid, opt);
  EXPECT_THROW(poisoned.solve(), NumericalError);
  EXPECT_FALSE(poisoned.solved());
  EXPECT_EQ(counterValue("fault.policy.fea_retries"), retries0);
}

// ---------------------------------------------------------------------------
// Characterization cache corruption → recompute-and-rewrite.

ViaArrayCharacterizationSpec smallSpec() {
  ViaArrayCharacterizationSpec spec;
  spec.array.n = 2;
  spec.resolutionXy = 0.5e-6;
  spec.margin = 1.0e-6;
  spec.trials = 20;
  return spec;
}

TEST_F(FaultPolicyTest, CacheCorruptionRecomputesAndRewrites) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("viaduct_fault_policy_cache_" + std::to_string(::getpid()) + ".tbl"))
          .string();
  std::filesystem::remove(path);
  const auto spec = smallSpec();
  auto store = std::make_shared<CharacterizationStore>(path);

  std::vector<double> samplesA;
  {
    ViaArrayLibrary lib(store);
    samplesA =
        lib.get(spec)->ttfSamples(ViaArrayFailureCriterion::openCircuit());
    EXPECT_EQ(store->entryCount(), 1u);
  }

  // The next load returns a silently truncated payload; rehydration must
  // reject it and the library must recompute and rewrite the entry.
  auto& reg = fault::Registry::instance();
  reg.arm("char_cache.load", {.nth = 1});
  {
    ViaArrayLibrary lib2(store);
    const auto samplesB =
        lib2.get(spec)->ttfSamples(ViaArrayFailureCriterion::openCircuit());
    EXPECT_GE(reg.fireCount("char_cache.load"), 1u);
    ASSERT_EQ(samplesB.size(), samplesA.size());
    for (std::size_t i = 0; i < samplesA.size(); ++i)
      EXPECT_DOUBLE_EQ(samplesB[i], samplesA[i]);
    EXPECT_EQ(store->entryCount(), 1u);
  }

  // The rewritten entry must rehydrate cleanly once injection is off.
  reg.disarmAll();
  {
    ViaArrayLibrary lib3(store);
    const auto samplesC =
        lib3.get(spec)->ttfSamples(ViaArrayFailureCriterion::openCircuit());
    ASSERT_EQ(samplesC.size(), samplesA.size());
    for (std::size_t i = 0; i < samplesA.size(); ++i)
      EXPECT_DOUBLE_EQ(samplesC[i], samplesA[i]);
  }
  std::filesystem::remove(path);
}

TEST_F(FaultPolicyTest, CacheCorruptionWithRecoveryOffPropagates) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("viaduct_fault_policy_cache_off_" + std::to_string(::getpid()) +
        ".tbl"))
          .string();
  std::filesystem::remove(path);
  auto store = std::make_shared<CharacterizationStore>(path);
  const auto spec = smallSpec();
  {
    ViaArrayLibrary lib(store);
    lib.get(spec)->traces();
  }

  fault::Registry::instance().arm("char_cache.load", {.nth = 1});
  auto noRecovery = spec;
  noRecovery.policy.recomputeOnCacheCorruption = false;
  ViaArrayLibrary lib2(store);
  EXPECT_THROW(lib2.get(noRecovery), PreconditionError);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Grid Monte Carlo trial semantics under injected solver failures.

Netlist mcNetlist() {
  GridGeneratorConfig cfg;
  cfg.stripesX = 8;
  cfg.stripesY = 8;
  cfg.padCount = 4;
  cfg.totalCurrentAmps = 1.0;
  cfg.seed = 11;
  Netlist n = generatePowerGrid(cfg);
  tuneNominalIrDrop(n, 0.06);
  return n;
}

const PowerGridModel& mcModel() {
  static const PowerGridModel* model = new PowerGridModel(mcNetlist());
  return *model;
}

GridMcOptions mcOptions() {
  GridMcOptions opts;
  opts.arrayTtf = Lognormal::fromMedian(8.0 * units::year, 0.4);
  opts.referenceCurrentAmps = 0.01;
  opts.systemCriterion = GridFailureCriterion::irDrop(0.10);
  opts.trials = 30;
  opts.seed = 5;
  return opts;
}

void armFactorFaults() {
  auto& reg = fault::Registry::instance();
  reg.setSeed(99);
  reg.arm("cholesky.factor", {.probability = 0.25});
}

TEST_F(FaultPolicyTest, DiscardedTrialsExcludedFromStatistics) {
  const auto& model = mcModel();
  auto opts = mcOptions();
  const auto baseline = runGridMonteCarlo(model, opts);

  armFactorFaults();
  opts.policy.trialPolicy = fault::FailurePolicy::TrialPolicy::kDiscard;
  const auto injected = runGridMonteCarlo(model, opts);

  EXPECT_GT(injected.discardedTrials, 0);
  EXPECT_EQ(injected.salvagedTrials, 0);
  EXPECT_EQ(static_cast<int>(injected.ttfSamples.size()) +
                injected.discardedTrials,
            opts.trials);

  // A kept trial is untouched by injection (its only factor query did not
  // fire), so the surviving samples must be an ordered subsequence of the
  // uninjected run's samples — discarded trials are EXCLUDED, not zeroed.
  std::size_t bi = 0;
  for (const double s : injected.ttfSamples) {
    while (bi < baseline.ttfSamples.size() && baseline.ttfSamples[bi] != s)
      ++bi;
    ASSERT_LT(bi, baseline.ttfSamples.size())
        << "injected sample " << s << " not found in baseline order";
    ++bi;
  }
}

TEST_F(FaultPolicyTest, SalvagedTrialsAreKeptAsCensoredSamples) {
  const auto& model = mcModel();
  auto opts = mcOptions();

  armFactorFaults();
  opts.policy.trialPolicy = fault::FailurePolicy::TrialPolicy::kDiscard;
  const auto discarded = runGridMonteCarlo(model, opts);

  opts.policy.trialPolicy = fault::FailurePolicy::TrialPolicy::kSalvage;
  const auto salvaged = runGridMonteCarlo(model, opts);

  // Identical injection schedule → the same trials are affected; salvage
  // keeps them (censored) instead of dropping them.
  EXPECT_EQ(salvaged.salvagedTrials, discarded.discardedTrials);
  EXPECT_EQ(salvaged.discardedTrials, 0);
  EXPECT_EQ(static_cast<int>(salvaged.ttfSamples.size()), opts.trials);
  for (const double t : salvaged.ttfSamples) EXPECT_GE(t, 0.0);
}

TEST_F(FaultPolicyTest, AbortPolicyRethrows) {
  const auto& model = mcModel();
  auto opts = mcOptions();
  fault::Registry::instance().arm("cholesky.factor", {.probability = 1.0});
  opts.policy.trialPolicy = fault::FailurePolicy::TrialPolicy::kAbort;
  EXPECT_THROW(runGridMonteCarlo(model, opts), NumericalError);
}

TEST_F(FaultPolicyTest, AllTrialsDiscardedIsAnError) {
  const auto& model = mcModel();
  auto opts = mcOptions();
  fault::Registry::instance().arm("cholesky.factor", {.probability = 1.0});
  opts.policy.trialPolicy = fault::FailurePolicy::TrialPolicy::kDiscard;
  EXPECT_THROW(runGridMonteCarlo(model, opts), NumericalError);
}

TEST_F(FaultPolicyTest, WoodburyRefactorRecoveryCompletesEveryTrial) {
  const auto& model = mcModel();
  auto opts = mcOptions();
  const auto baseline = runGridMonteCarlo(model, opts);

  // Rejected incremental updates are folded into a fresh factorization, so
  // with recovery on, NO trial fails — even under kAbort.
  auto& reg = fault::Registry::instance();
  reg.setSeed(99);
  reg.arm("woodbury.update", {.probability = 0.5});
  opts.policy.trialPolicy = fault::FailurePolicy::TrialPolicy::kAbort;
  const auto recovered = runGridMonteCarlo(model, opts);
  EXPECT_GT(reg.fireCount("woodbury.update"), 0u);
  EXPECT_EQ(recovered.discardedTrials, 0);
  ASSERT_EQ(recovered.ttfSamples.size(), baseline.ttfSamples.size());
  // The refactored solve is a different (equally exact) algorithm, so
  // samples agree to solver precision rather than bitwise.
  for (std::size_t i = 0; i < baseline.ttfSamples.size(); ++i)
    EXPECT_NEAR(recovered.ttfSamples[i], baseline.ttfSamples[i],
                1e-6 * baseline.ttfSamples[i]);
}

TEST_F(FaultPolicyTest, SessionRebaseRecoversFailedResolve) {
  const auto& model = mcModel();
  auto opts = mcOptions();

  // Call 1 of woodbury.solve per trial is the healthy solve; call 2 (the
  // first post-failure re-solve) fires, the session rebases and re-solves.
  auto& reg = fault::Registry::instance();
  reg.arm("woodbury.solve", {.nth = 2});
  opts.policy.trialPolicy = fault::FailurePolicy::TrialPolicy::kDiscard;
  const auto recovered = runGridMonteCarlo(model, opts);
  EXPECT_EQ(recovered.discardedTrials, 0);
  EXPECT_EQ(static_cast<int>(recovered.ttfSamples.size()), opts.trials);

  // The same schedule without the rebase path discards every trial. The
  // session reads the recovery switch from the MODEL's config (the analyzer
  // keeps the two in sync), so the no-recovery model is built explicitly.
  PowerGridConfig noRecoverConfig;
  noRecoverConfig.policy.refactorOnWoodburyFailure = false;
  const PowerGridModel noRecover(mcNetlist(), noRecoverConfig);
  EXPECT_THROW(runGridMonteCarlo(noRecover, opts), NumericalError);
}

}  // namespace
}  // namespace viaduct
