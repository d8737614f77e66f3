#include "grid/grid_mc.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/units.h"
#include "spice/generator.h"

namespace viaduct {
namespace {

Netlist tunedGrid() {
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

GridMcOptions baseOptions() {
  GridMcOptions opts;
  // A years-scale lognormal at I_ref = 10 mA.
  opts.arrayTtf = Lognormal::fromMedian(8.0 * units::year, 0.4);
  opts.referenceCurrentAmps = 0.01;
  opts.trials = 40;
  opts.seed = 5;
  return opts;
}

TEST(GridCriterion, Describe) {
  EXPECT_EQ(GridFailureCriterion::weakestLink().describe(), "weakest-link");
  EXPECT_EQ(GridFailureCriterion::irDrop(0.10).describe(), "10% IR-drop");
  EXPECT_THROW(GridFailureCriterion::irDrop(0.0), PreconditionError);
}

TEST(GridCriterion, ParsesCliSpelling) {
  const auto ir = GridFailureCriterion::parse("ir");
  ASSERT_TRUE(ir.has_value());
  EXPECT_EQ(ir->describe(), "10% IR-drop");
  const auto weakest = GridFailureCriterion::parse("weakest");
  ASSERT_TRUE(weakest.has_value());
  EXPECT_EQ(weakest->describe(), "weakest-link");
  for (const char* bad : {"", "wekest", "IR", "weakest-link", "open"})
    EXPECT_FALSE(GridFailureCriterion::parse(bad).has_value()) << bad;
}

TEST(GridMc, ProducesOneSamplePerTrial) {
  const PowerGridModel model(tunedGrid());
  auto opts = baseOptions();
  opts.systemCriterion = GridFailureCriterion::weakestLink();
  const auto result = runGridMonteCarlo(model, opts);
  EXPECT_EQ(result.ttfSamples.size(), 40u);
  for (double t : result.ttfSamples) EXPECT_GT(t, 0.0);
  EXPECT_NEAR(result.meanFailuresToBreach, 1.0, 1e-12);
}

TEST(GridMc, IrDropCriterionOutlivesWeakestLink) {
  // The paper's central system-level claim: the grid survives past the
  // first array failure, so the 10% IR-drop TTF dominates weakest-link.
  const PowerGridModel model(tunedGrid());
  auto opts = baseOptions();
  opts.systemCriterion = GridFailureCriterion::weakestLink();
  const auto wl = runGridMonteCarlo(model, opts);
  opts.systemCriterion = GridFailureCriterion::irDrop(0.10);
  const auto ir = runGridMonteCarlo(model, opts);
  EXPECT_GT(ir.cdf().median(), wl.cdf().median());
  EXPECT_GT(ir.meanFailuresToBreach, 1.5);
}

TEST(GridMc, TighterIrThresholdFailsSooner) {
  const PowerGridModel model(tunedGrid());
  auto opts = baseOptions();
  opts.systemCriterion = GridFailureCriterion::irDrop(0.08);
  const auto tight = runGridMonteCarlo(model, opts);
  opts.systemCriterion = GridFailureCriterion::irDrop(0.20);
  const auto loose = runGridMonteCarlo(model, opts);
  EXPECT_LT(tight.cdf().median(), loose.cdf().median());
}

TEST(GridMc, DeterministicForSeed) {
  const PowerGridModel model(tunedGrid());
  auto opts = baseOptions();
  opts.trials = 10;
  const auto a = runGridMonteCarlo(model, opts);
  const auto b = runGridMonteCarlo(model, opts);
  for (std::size_t i = 0; i < a.ttfSamples.size(); ++i)
    EXPECT_DOUBLE_EQ(a.ttfSamples[i], b.ttfSamples[i]);
}

TEST(GridMc, BitIdenticalAcrossThreadCounts) {
  // Trial t draws from the counter-based stream Rng(seed, t), so the
  // samples must be byte-for-byte identical no matter how trials are
  // scheduled across workers.
  const PowerGridModel model(tunedGrid());
  auto opts = baseOptions();
  opts.trials = 30;
  opts.parallelism.threads = 1;
  const auto serial = runGridMonteCarlo(model, opts);
  for (const int threads : {2, 4}) {
    opts.parallelism.threads = threads;
    const auto parallel = runGridMonteCarlo(model, opts);
    ASSERT_EQ(parallel.ttfSamples.size(), serial.ttfSamples.size());
    for (std::size_t i = 0; i < serial.ttfSamples.size(); ++i)
      EXPECT_EQ(parallel.ttfSamples[i], serial.ttfSamples[i])
          << "trial " << i << " with " << threads << " threads";
    EXPECT_EQ(parallel.meanFailuresToBreach, serial.meanFailuresToBreach);
  }
}

TEST(GridMc, LongerArrayTtfShiftsGridTtf) {
  const PowerGridModel model(tunedGrid());
  auto opts = baseOptions();
  opts.systemCriterion = GridFailureCriterion::irDrop(0.10);
  const auto base = runGridMonteCarlo(model, opts);
  opts.arrayTtf = opts.arrayTtf.scaled(2.0);
  const auto longer = runGridMonteCarlo(model, opts);
  EXPECT_NEAR(longer.cdf().median(), 2.0 * base.cdf().median(),
              0.05 * longer.cdf().median());
}

TEST(GridMc, HigherReferenceCurrentExtendsLife) {
  // TTF scales with (I_ref / I)²: doubling I_ref quadruples grid TTF.
  const PowerGridModel model(tunedGrid());
  auto opts = baseOptions();
  opts.systemCriterion = GridFailureCriterion::weakestLink();
  const auto base = runGridMonteCarlo(model, opts);
  opts.referenceCurrentAmps *= 2.0;
  const auto scaled = runGridMonteCarlo(model, opts);
  EXPECT_NEAR(scaled.cdf().median(), 4.0 * base.cdf().median(),
              0.05 * scaled.cdf().median());
}

TEST(GridMc, PerArrayDistributionsOverrideGlobal) {
  const PowerGridModel model(tunedGrid());
  auto opts = baseOptions();
  opts.systemCriterion = GridFailureCriterion::weakestLink();
  const auto base = runGridMonteCarlo(model, opts);
  // Same distribution everywhere via the per-array path: same statistics.
  opts.perArrayTtf.assign(model.viaArrays().size(), opts.arrayTtf);
  const auto perArray = runGridMonteCarlo(model, opts);
  EXPECT_GT(perArray.cdf().median(), 0.5 * base.cdf().median());
  EXPECT_LT(perArray.cdf().median(), 2.0 * base.cdf().median());
  // Mismatched size is rejected.
  opts.perArrayTtf.resize(3);
  EXPECT_THROW(runGridMonteCarlo(model, opts), PreconditionError);
}

TEST(GridMc, FailureCapRespected) {
  const PowerGridModel model(tunedGrid());
  auto opts = baseOptions();
  opts.systemCriterion = GridFailureCriterion::irDrop(0.10);
  opts.maxFailuresPerTrial = 1;
  opts.trials = 10;
  const auto result = runGridMonteCarlo(model, opts);
  EXPECT_NEAR(result.meanFailuresToBreach, 1.0, 1e-12);
}

TEST(GridMc, HealthyGridViolatingThresholdIsRejected) {
  Netlist n = tunedGrid();
  scaleLoads(n, 10.0);  // worst IR drop now far above 10%
  const PowerGridModel model(n);
  auto opts = baseOptions();
  opts.systemCriterion = GridFailureCriterion::irDrop(0.10);
  EXPECT_THROW(runGridMonteCarlo(model, opts), InternalError);
}

}  // namespace
}  // namespace viaduct
