// The shared Monte Carlo trial loop on its own, driven by a toy level whose
// trial draws one uniform and fails wherever the armed `toy.trial` fault
// site fires: the failure policy's abort / discard / salvage mapping and
// tally, a resume that re-runs exactly the missing and rejected records,
// and bit-identical results and snapshots at 1 and 4 threads.
#include "checkpoint/trial_loop.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace viaduct::checkpoint {
namespace {

constexpr std::int64_t kTrials = 40;
constexpr std::int64_t kGrain = 3;

/// A kept trial ends with value u + 1 (u the trial's first uniform); a
/// failed one stops at u, so salvage keeps a value below 1.
struct ToyLevel {
  std::vector<double> values = std::vector<double>(kTrials, 0.0);
  std::vector<unsigned char> ran = std::vector<unsigned char>(kTrials, 0);
  /// Restored records the level refuses (re-run instead).
  std::set<std::int64_t> reject;

  struct Scratch {
    int uses = 0;
  };

  bool restore(const TrialRecord& record) {
    if (reject.count(record.trial) || record.primary.size() != 1)
      return false;
    values[static_cast<std::size_t>(record.trial)] = record.primary[0];
    return true;
  }
  Scratch newScratch() const { return {}; }
  void run(std::int64_t trial, Rng& rng, Scratch& scratch) {
    EXPECT_LT(scratch.uses++, kGrain) << "scratch outlived its chunk";
    const auto idx = static_cast<std::size_t>(trial);
    ran[idx] = 1;
    values[idx] = rng.uniform();
    if (fault::shouldInject("toy.trial")) throw NumericalError("toy failure");
    values[idx] += 1.0;
  }
  void pack(TrialRecord& record) const {
    record.primary = {values[static_cast<std::size_t>(record.trial)]};
  }
};

class TrialLoopTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("viaduct_trial_loop_test_" + std::to_string(::getpid()) + "_" +
              std::to_string(GetParam()) + ".ckpt"))
                .string();
    std::filesystem::remove(path_);
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".tmp");
    fault::Registry::instance().disarmAll();
    fault::Registry::instance().setSeed(0);
  }

  TrialLoopConfig config(fault::FailurePolicy::TrialPolicy policy) const {
    TrialLoopConfig c;
    c.label = "trial_loop_test";
    c.configKey = "toy-v1";
    c.trials = kTrials;
    c.seed = 17;
    c.grain = kGrain;
    c.parallelism.threads = GetParam();
    c.policy.trialPolicy = policy;
    return c;
  }

  /// Arms `toy.trial` afresh, so every run sees the same fault schedule.
  static void armFaults(double probability) {
    auto& faults = fault::Registry::instance();
    faults.disarmAll();
    faults.setSeed(3);
    faults.arm("toy.trial", {.probability = probability});
  }

  std::string snapshotText() const {
    std::ifstream is(path_);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
  }

  std::string path_;
};

TEST_P(TrialLoopTest, AbortRethrows) {
  armFaults(1.0);
  ToyLevel level;
  EXPECT_THROW(
      runTrialLoop(config(fault::FailurePolicy::TrialPolicy::kAbort), level),
      NumericalError);

  // A disabled policy is fail-fast whatever the trial policy says.
  auto disabled = config(fault::FailurePolicy::TrialPolicy::kDiscard);
  disabled.policy.enabled = false;
  ToyLevel again;
  EXPECT_THROW(runTrialLoop(disabled, again), NumericalError);
}

TEST_P(TrialLoopTest, DiscardAndSalvageOutcomesAndTallies) {
  armFaults(0.3);
  ToyLevel discardLevel;
  const TrialTally discard = runTrialLoop(
      config(fault::FailurePolicy::TrialPolicy::kDiscard), discardLevel);
  armFaults(0.3);
  ToyLevel salvageLevel;
  const TrialTally salvage = runTrialLoop(
      config(fault::FailurePolicy::TrialPolicy::kSalvage), salvageLevel);

  int failed = 0;
  for (std::size_t t = 0; t < kTrials; ++t) {
    const bool fired = discardLevel.values[t] < 1.0;
    failed += fired ? 1 : 0;
    EXPECT_EQ(discard.outcomes[t],
              fired ? TrialOutcome::kDiscarded : TrialOutcome::kKept);
    EXPECT_EQ(salvage.outcomes[t],
              fired ? TrialOutcome::kSalvaged : TrialOutcome::kKept);
    // Salvage keeps the value the trial reached before it failed.
    EXPECT_EQ(salvageLevel.values[t], discardLevel.values[t]);
  }
  EXPECT_GT(failed, 0);
  EXPECT_LT(failed, kTrials);
  EXPECT_EQ(discard.discarded, failed);
  EXPECT_EQ(discard.salvaged, 0);
  EXPECT_EQ(salvage.salvaged, failed);
  EXPECT_EQ(salvage.discarded, 0);
  EXPECT_EQ(discard.resumed, 0);
}

TEST_P(TrialLoopTest, ResumeRerunsExactlyMissingAndRejectedRecords) {
  auto cfg = config(fault::FailurePolicy::TrialPolicy::kDiscard);
  cfg.checkpoint.path = path_;
  cfg.checkpoint.everyTrials = 1;
  armFaults(0.3);
  ToyLevel full;
  const TrialTally fullTally = runTrialLoop(cfg, full);

  // Kill "mid-run": keep every other record, then resume with a level that
  // rejects two of the kept ones.
  const CheckpointFile file(path_);
  auto snap = file.load(cfg.configKey, kTrials);
  ASSERT_TRUE(snap.has_value());
  ASSERT_EQ(snap->trials.size(), static_cast<std::size_t>(kTrials));
  for (std::int64_t t = 1; t < kTrials; t += 2) snap->trials.erase(t);
  ASSERT_TRUE(file.write(*snap));

  armFaults(0.3);
  cfg.checkpoint.resume = true;
  ToyLevel resumed;
  resumed.reject = {4, 10};
  const TrialTally tally = runTrialLoop(cfg, resumed);

  EXPECT_EQ(tally.resumed, kTrials / 2 - 2);
  for (std::int64_t t = 0; t < kTrials; ++t) {
    const auto idx = static_cast<std::size_t>(t);
    const bool expectRun = t % 2 == 1 || resumed.reject.count(t) > 0;
    EXPECT_EQ(resumed.ran[idx] != 0, expectRun) << "trial " << t;
    EXPECT_EQ(resumed.values[idx], full.values[idx]) << "trial " << t;
  }
  // Outcomes restored from the snapshot count like outcomes run now.
  EXPECT_EQ(tally.outcomes, fullTally.outcomes);
  EXPECT_EQ(tally.discarded, fullTally.discarded);
}

TEST_P(TrialLoopTest, ResultsAndSnapshotMatchTheSerialRun) {
  const auto policy = fault::FailurePolicy::TrialPolicy::kSalvage;
  auto serialCfg = config(policy);
  serialCfg.parallelism.threads = 1;
  serialCfg.checkpoint.path = path_;
  serialCfg.checkpoint.everyTrials = 5;
  armFaults(0.3);
  ToyLevel serial;
  const TrialTally serialTally = runTrialLoop(serialCfg, serial);
  const std::string serialSnapshot = snapshotText();
  ASSERT_FALSE(serialSnapshot.empty());

  std::filesystem::remove(path_);
  auto cfg = serialCfg;
  cfg.parallelism.threads = GetParam();
  armFaults(0.3);
  ToyLevel parallel;
  const TrialTally tally = runTrialLoop(cfg, parallel);

  EXPECT_EQ(parallel.values, serial.values);
  EXPECT_EQ(tally.outcomes, serialTally.outcomes);
  EXPECT_EQ(tally.salvaged, serialTally.salvaged);
  EXPECT_EQ(snapshotText(), serialSnapshot);
}

INSTANTIATE_TEST_SUITE_P(Threads, TrialLoopTest, ::testing::Values(1, 4));

}  // namespace
}  // namespace viaduct::checkpoint
