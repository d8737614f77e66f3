// End-to-end checkpoint/resume semantics for both Monte Carlo levels: a
// run killed mid-flight and resumed from its snapshot must be bit-identical
// to an uninterrupted run, at any thread count and checkpoint cadence;
// corrupt or stale snapshots must degrade to a from-scratch run; and the
// failure-policy discard/salvage accounting must survive the resume.
#include "checkpoint/checkpoint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "fault/fault.h"
#include "grid/grid_mc.h"
#include "obs/obs.h"
#include "spice/generator.h"
#include "viaarray/characterize.h"

namespace viaduct {
namespace {

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("viaduct_resume_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".ckpt"))
                .string();
    std::filesystem::remove(path_);
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".tmp");
    fault::Registry::instance().disarmAll();
    fault::Registry::instance().setSeed(0);
  }

  /// Simulates a mid-run kill: rewrites the on-disk snapshot keeping only
  /// every `keepEvery`-th record (as if the run died between checkpoints).
  void thinSnapshot(const std::string& key, std::int64_t total,
                    int keepEvery) {
    const checkpoint::CheckpointFile file(path_);
    auto snap = file.load(key, total);
    ASSERT_TRUE(snap.has_value()) << "snapshot to thin must load";
    for (auto it = snap->trials.begin(); it != snap->trials.end();) {
      if (it->first % keepEvery == 0) {
        ++it;
      } else {
        it = snap->trials.erase(it);
      }
    }
    ASSERT_FALSE(snap->trials.empty());
    ASSERT_LT(snap->trials.size(), static_cast<std::size_t>(total));
    ASSERT_TRUE(file.write(*snap));
  }

  std::string path_;
};

// ---------------------------------------------------------------------------
// Level 2: grid Monte Carlo.

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

void expectSameSamples(const GridMcResult& a, const GridMcResult& b) {
  ASSERT_EQ(a.ttfSamples.size(), b.ttfSamples.size());
  for (std::size_t i = 0; i < a.ttfSamples.size(); ++i)
    EXPECT_EQ(a.ttfSamples[i], b.ttfSamples[i]) << "sample " << i;
  EXPECT_EQ(a.meanFailuresToBreach, b.meanFailuresToBreach);
  EXPECT_EQ(a.discardedTrials, b.discardedTrials);
  EXPECT_EQ(a.salvagedTrials, b.salvagedTrials);
}

TEST_F(CheckpointResumeTest, GridResumeBitIdenticalAcrossThreadCounts) {
  const auto& model = mcModel();
  const auto baseline = runGridMonteCarlo(model, mcOptions());

  // (threads, cadence) pairs: resume must be exact for every combination.
  const int threads[] = {1, 4, 8};
  const int cadences[] = {1, 7, 32};
  for (int i = 0; i < 3; ++i) {
    std::filesystem::remove(path_);
    auto opts = mcOptions();
    opts.parallelism.threads = threads[i];
    opts.checkpoint.path = path_;
    opts.checkpoint.everyTrials = cadences[i];

    // Uninterrupted checkpointed run: identical to the plain baseline.
    const auto full = runGridMonteCarlo(model, opts);
    expectSameSamples(baseline, full);
    EXPECT_EQ(full.resumedTrials, 0);

    // Kill it "mid-run": keep every 3rd completed trial, then resume.
    thinSnapshot(gridMcCheckpointKey(model, opts), opts.trials, 3);
    opts.checkpoint.resume = true;
    const auto resumed = runGridMonteCarlo(model, opts);
    EXPECT_EQ(resumed.resumedTrials, 10);  // trials 0,3,...,27
    expectSameSamples(baseline, resumed);
  }
}

TEST_F(CheckpointResumeTest, StaleSnapshotIsRejectedAndRerunMatches) {
  const auto& model = mcModel();
  auto opts = mcOptions();
  opts.checkpoint.path = path_;
  runGridMonteCarlo(model, opts);  // leaves a full snapshot behind

  // Same file, different physics (seed): the key no longer matches, so the
  // resume must silently restart from scratch — never reuse stale trials.
  auto changed = opts;
  changed.seed = 6;
  changed.checkpoint.resume = true;
  const auto rerun = runGridMonteCarlo(model, changed);
  EXPECT_EQ(rerun.resumedTrials, 0);
  changed.checkpoint = {};
  const auto fresh = runGridMonteCarlo(model, changed);
  expectSameSamples(fresh, rerun);
}

TEST_F(CheckpointResumeTest, CorruptSnapshotRecoversFromScratch) {
  const auto& model = mcModel();
  auto opts = mcOptions();
  opts.checkpoint.path = path_;
  const auto baseline = runGridMonteCarlo(model, opts);

  {
    std::ofstream os(path_, std::ios::trunc);
    os << "viaduct-checkpoint v1\nkey " << gridMcCheckpointKey(model, opts)
       << "\ntotal 30\ntrial 0 K nan nan |\n";  // corrupt and truncated
  }
  opts.checkpoint.resume = true;
  const auto resumed = runGridMonteCarlo(model, opts);
  EXPECT_EQ(resumed.resumedTrials, 0);
  expectSameSamples(baseline, resumed);
}

TEST_F(CheckpointResumeTest, InjectedWriteFailuresNeverChangeResults) {
  const auto& model = mcModel();
  const auto baseline = runGridMonteCarlo(model, mcOptions());

  // Every other snapshot write fails like a full disk; the run must finish
  // with identical results and without throwing.
  fault::Registry::instance().configure(
      "seed=7;checkpoint.write:p=0.5");
  auto opts = mcOptions();
  opts.checkpoint.path = path_;
  opts.checkpoint.everyTrials = 2;
  const auto result = runGridMonteCarlo(model, opts);
  fault::Registry::instance().disarmAll();
  expectSameSamples(baseline, result);
}

TEST_F(CheckpointResumeTest, DiscardAndSalvageCountsSurviveResume) {
  const auto& model = mcModel();
  const auto arm = [] {
    auto& reg = fault::Registry::instance();
    reg.disarmAll();
    reg.setSeed(99);
    reg.arm("cholesky.factor", {.probability = 0.25});
  };
  for (const auto policy : {fault::FailurePolicy::TrialPolicy::kDiscard,
                            fault::FailurePolicy::TrialPolicy::kSalvage}) {
    std::filesystem::remove(path_);
    auto opts = mcOptions();
    opts.policy.trialPolicy = policy;
    opts.checkpoint.path = path_;
    opts.checkpoint.everyTrials = 1;

    arm();
    const auto full = runGridMonteCarlo(model, opts);
    EXPECT_GT(full.discardedTrials + full.salvagedTrials, 0);

    // Kill mid-run keeping a third of the trials — including, with p=0.25
    // over 30 trials, some affected ones — and resume under the same
    // injection schedule.
    thinSnapshot(gridMcCheckpointKey(model, opts), opts.trials, 3);
    arm();
    opts.checkpoint.resume = true;
    const auto resumed = runGridMonteCarlo(model, opts);
    EXPECT_EQ(resumed.resumedTrials, 10);
    expectSameSamples(full, resumed);

    fault::Registry::instance().disarmAll();
    fault::Registry::instance().setSeed(0);
  }
}

TEST_F(CheckpointResumeTest, GridOutOfRangeRecordIsRerun) {
  const auto& model = mcModel();
  auto opts = mcOptions();
  opts.checkpoint.path = path_;
  const auto baseline = runGridMonteCarlo(model, opts);

  // Structurally valid records whose values no trial can produce: a
  // negative TTF with a failure count past int range, a fractional failure
  // count, and more failures than the grid has arrays. Each must be re-run,
  // never resumed (and never cast to int).
  const std::string key = gridMcCheckpointKey(model, opts);
  const checkpoint::CheckpointFile file(path_);
  auto snap = file.load(key, opts.trials);
  ASSERT_TRUE(snap.has_value());
  snap->trials.at(1).primary = {-1e30, 3e9};
  snap->trials.at(2).primary[1] = 2.5;
  snap->trials.at(3).primary[1] =
      static_cast<double>(model.viaArrays().size() + 1);
  ASSERT_TRUE(file.write(*snap));

  opts.checkpoint.resume = true;
  auto& resumedCounter =
      obs::Registry::instance().counter("checkpoint.resumed_trials");
  const auto countedBefore = resumedCounter.value();
  const auto resumed = runGridMonteCarlo(model, opts);
  EXPECT_EQ(resumed.resumedTrials, opts.trials - 3);
  // The counter reports the records actually resumed, not those loaded.
  EXPECT_EQ(resumedCounter.value() - countedBefore,
            static_cast<std::uint64_t>(opts.trials - 3));
  expectSameSamples(baseline, resumed);
}

// ---------------------------------------------------------------------------
// Level 1: via-array characterization.

ViaArrayCharacterizationSpec smallSpec() {
  ViaArrayCharacterizationSpec spec;
  spec.array.n = 2;
  spec.resolutionXy = 0.5e-6;
  spec.margin = 1.0e-6;
  spec.trials = 20;
  return spec;
}

void expectSameTraces(std::vector<FailureTrace> a,
                      std::vector<FailureTrace> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].failureTimes.size(), b[t].failureTimes.size())
        << "trial " << t;
    for (std::size_t v = 0; v < a[t].failureTimes.size(); ++v) {
      EXPECT_EQ(a[t].failureTimes[v], b[t].failureTimes[v]);
      EXPECT_EQ(a[t].resistanceAfter[v], b[t].resistanceAfter[v]);
    }
  }
}

TEST_F(CheckpointResumeTest, CharacterizationResumeBitIdentical) {
  const auto spec = smallSpec();
  ViaArrayCharacterizer baseline(spec);
  const auto baseTraces = baseline.traces();

  const int threads[] = {1, 4};
  for (const int t : threads) {
    std::filesystem::remove(path_);
    auto withCkpt = spec;
    withCkpt.parallelism.threads = t;
    withCkpt.checkpoint.path = path_;
    withCkpt.checkpoint.everyTrials = 5;
    {
      ViaArrayCharacterizer full(withCkpt);
      expectSameTraces(baseTraces, full.traces());
      EXPECT_EQ(full.resumedTrials(), 0);
    }

    thinSnapshot(spec.cacheKey(), spec.trials, 2);
    auto resumeSpec = withCkpt;
    resumeSpec.checkpoint.resume = true;
    ViaArrayCharacterizer resumed(resumeSpec);
    expectSameTraces(baseTraces, resumed.traces());
    EXPECT_EQ(resumed.resumedTrials(), 10);  // trials 0,2,...,18
  }
}

TEST_F(CheckpointResumeTest, CharacterizationMalformedRecordIsRerun) {
  const auto spec = smallSpec();
  auto withCkpt = spec;
  withCkpt.checkpoint.path = path_;
  ViaArrayCharacterizer full(withCkpt);
  const auto baseTraces = full.traces();

  // Structurally valid snapshot, but one kept record has the wrong via
  // count: that record must be re-run (not trusted, not fatal).
  const checkpoint::CheckpointFile file(path_);
  auto snap = file.load(spec.cacheKey(), spec.trials);
  ASSERT_TRUE(snap.has_value());
  snap->trials.at(4).primary.push_back(1.0);
  ASSERT_TRUE(file.write(*snap));

  auto resumeSpec = withCkpt;
  resumeSpec.checkpoint.resume = true;
  ViaArrayCharacterizer resumed(resumeSpec);
  expectSameTraces(baseTraces, resumed.traces());
  EXPECT_EQ(resumed.resumedTrials(), spec.trials - 1);
}

TEST_F(CheckpointResumeTest, CharacterizationImplausibleTraceIsRerun) {
  const auto spec = smallSpec();
  auto withCkpt = spec;
  withCkpt.checkpoint.path = path_;
  ViaArrayCharacterizer full(withCkpt);
  const auto baseTraces = full.traces();

  // Right shape, impossible values: a negative failure time, failure times
  // out of order, and a negative resistance. Each record must be re-run.
  const checkpoint::CheckpointFile file(path_);
  auto snap = file.load(spec.cacheKey(), spec.trials);
  ASSERT_TRUE(snap.has_value());
  snap->trials.at(3).primary[0] = -1.0;
  auto& times = snap->trials.at(5).primary;
  std::swap(times.front(), times.back());
  snap->trials.at(7).secondary[0] = -1.0;
  ASSERT_TRUE(file.write(*snap));

  auto resumeSpec = withCkpt;
  resumeSpec.checkpoint.resume = true;
  ViaArrayCharacterizer resumed(resumeSpec);
  expectSameTraces(baseTraces, resumed.traces());
  EXPECT_EQ(resumed.resumedTrials(), spec.trials - 3);
}

}  // namespace
}  // namespace viaduct
