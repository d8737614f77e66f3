// viaduct::checkpoint — the one Monte Carlo trial loop both levels of
// Algorithm 1 run (DESIGN.md §5.8). It owns snapshot restore, the thread
// pool, the ProgressReporter, each trial's fault::ScopedStream and
// Rng(seed, t) (so results and fault schedules are pure functions of
// (config, t) at any thread count), the FailurePolicy mapping of a
// NumericalError to abort (rethrow) / discard / salvage, the recorder, and
// the tally. A level supplies only its physics and payload:
//
//   bool restore(const TrialRecord& record);  // unpack, or false to re-run
//   Scratch newScratch();                     // one per chunk of trials
//   void run(std::int64_t trial, Rng& rng, Scratch& scratch);  // may throw
//   void pack(TrialRecord& record) const;     // trial + outcome are set
//
// What run() wrote before a NumericalError is what kSalvage keeps. pack()
// runs only while checkpointing, so an uncheckpointed trial allocates
// nothing here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/progress.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "fault/fault.h"
#include "fault/policy.h"
#include "obs/obs.h"

namespace viaduct::checkpoint {

struct TrialLoopConfig {
  /// Prefix of the progress gauges and log lines ("grid_mc", "viaarray").
  std::string label;
  /// Snapshot key: a snapshot written under any other key is stale.
  std::string configKey;
  std::int64_t trials = 0;
  std::uint64_t seed = 0;
  /// Trials per chunk (one scratch each): a per-level constant, never
  /// derived from the thread count.
  std::int64_t grain = 1;
  Parallelism parallelism;
  fault::FailurePolicy policy;
  Options checkpoint;
};

struct TrialTally {
  /// Every trial's outcome, restored or run.
  std::vector<TrialOutcome> outcomes;
  int resumed = 0;
  int discarded = 0;
  int salvaged = 0;
};

template <typename Level>
TrialTally runTrialLoop(const TrialLoopConfig& config, Level& level) {
  VIADUCT_REQUIRE(config.trials >= 1 && config.grain >= 1);
  TrialTally tally;
  tally.outcomes.assign(static_cast<std::size_t>(config.trials),
                        TrialOutcome::kKept);
  std::vector<unsigned char> done(static_cast<std::size_t>(config.trials), 0);

  TrialRecorder recorder(config.checkpoint, config.configKey, config.trials);
  for (const auto& [trial, record] : recorder.restore()) {
    if (!level.restore(record)) {
      VIADUCT_WARN << "checkpoint: trial " << trial
                   << " has an unexpected payload; re-running it";
      continue;
    }
    tally.outcomes[static_cast<std::size_t>(trial)] = record.outcome;
    done[static_cast<std::size_t>(trial)] = 1;
    ++tally.resumed;
  }
  if (tally.resumed > 0)
    VIADUCT_COUNTER_ADD("checkpoint.resumed_trials", tally.resumed);

  ThreadPool pool(config.parallelism);
  ProgressReporter::Options progressOptions;
  if (recorder.enabled())
    progressOptions.checkpointAgeSeconds = [&recorder] {
      return recorder.secondsSinceLastWrite();
    };
  ProgressReporter progress(config.label, config.trials,
                            std::move(progressOptions));
  progress.seedCompleted(tally.resumed);
  const fault::FailurePolicy& policy = config.policy;
  using TrialPolicy = fault::FailurePolicy::TrialPolicy;
  pool.runChunks(0, config.trials, config.grain,
                 [&](std::int64_t lo, std::int64_t hi) {
    auto scratch = level.newScratch();
    for (std::int64_t trial = lo; trial < hi; ++trial) {
      const auto idx = static_cast<std::size_t>(trial);
      if (done[idx]) continue;  // restored from the checkpoint
      const fault::ScopedStream scope(static_cast<std::uint64_t>(trial));
      Rng rng(config.seed, static_cast<std::uint64_t>(trial));
      TrialOutcome& outcome = tally.outcomes[idx];  // kKept until it throws
      try {
        level.run(trial, rng, scratch);
      } catch (const NumericalError&) {
        if (!policy.enabled || policy.trialPolicy == TrialPolicy::kAbort)
          throw;
        outcome = policy.trialPolicy == TrialPolicy::kSalvage
                      ? TrialOutcome::kSalvaged
                      : TrialOutcome::kDiscarded;
      }
      if (recorder.enabled()) {
        TrialRecord record{trial, outcome, {}, {}};
        level.pack(record);
        recorder.record(std::move(record));
      }
      progress.trialDone(outcome == TrialOutcome::kDiscarded ? 1 : 0,
                         outcome == TrialOutcome::kSalvaged ? 1 : 0);
    }
  });
  recorder.finalize();

  for (const TrialOutcome outcome : tally.outcomes) {
    tally.discarded += outcome == TrialOutcome::kDiscarded ? 1 : 0;
    tally.salvaged += outcome == TrialOutcome::kSalvaged ? 1 : 0;
  }
  if (tally.discarded > 0 || tally.salvaged > 0) {
    VIADUCT_INFO << config.label << ": "
                 << config.trials - tally.discarded - tally.salvaged << "/"
                 << config.trials << " trials clean (" << tally.discarded
                 << " discarded, " << tally.salvaged << " salvaged)";
  }
  return tally;
}

}  // namespace viaduct::checkpoint
