// viaduct::checkpoint — crash-safe checkpoint/resume for the Monte Carlo
// loops (DESIGN.md §5.8).
//
// A level-2 grid run at production sizes is hours long; a crash, OOM-kill,
// or preemption must not throw away every completed trial. The shared MC
// trial loop (trial_loop.h) snapshots completed trials to a single file:
//
//   viaduct-checkpoint v1
//   key <configKey>
//   total <Ntrials>
//   trial <idx> <K|D|S> <primary doubles> | <secondary doubles>
//   ...
//   end <record count>
//
// Crash safety: every snapshot is written to `<path>.tmp`, fsync'd, and
// atomically renamed over `<path>` (common/atomic_file.h), so the file on
// disk is always either the previous complete snapshot or the new complete
// snapshot — never a torn mixture. The `end <count>` trailer additionally rejects a file
// truncated by means the rename protocol cannot see (filesystem loss,
// manual copy).
//
// Staleness: the `key` line carries the run's configuration key (the
// characterization `cacheKey()` at level 1; a grid/options digest at level
// 2). A snapshot whose key or trial total does not match the resuming run
// is rejected — never silently reused — and the run restarts from scratch.
//
// Determinism: trials draw from counter-based per-trial streams
// Rng(seed, trial), so each trial's result is a pure function of
// (config, trial). Resuming therefore re-derives exactly the missing
// trials and the finished run is bit-identical to an uninterrupted one at
// any thread count and any checkpoint cadence.
//
// Failure semantics: checkpointing is an aid, never a hazard. A failed
// snapshot write warns and the run continues (the previous snapshot stays
// good); a corrupt/stale snapshot on load warns and the run starts from
// scratch. Fault sites `checkpoint.write` / `checkpoint.load` inject both
// paths deterministically.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/atomic_file.h"

namespace viaduct::checkpoint {

/// How the trial ended — mirrors the FailurePolicy trial semantics, so
/// discard/salvage accounting survives a resume.
enum class TrialOutcome : unsigned char { kKept, kDiscarded, kSalvaged };

/// One completed trial. The payload interpretation is the owner's:
///   grid MC           primary = {ttf sample, failures[, audited, mortal]};
///                     secondary empty.
///   characterization  primary = failureTimes; secondary = resistanceAfter.
struct TrialRecord {
  std::int64_t trial = 0;
  TrialOutcome outcome = TrialOutcome::kKept;
  std::vector<double> primary;
  std::vector<double> secondary;
};

/// A full snapshot: every completed trial of one (configKey, totalTrials)
/// run, keyed by trial index.
struct Snapshot {
  std::string configKey;
  std::int64_t totalTrials = 0;
  std::map<std::int64_t, TrialRecord> trials;
};

/// Checkpoint knobs carried by GridMcOptions, the characterization spec,
/// and AnalyzerConfig. Deliberately excluded from cache/config keys: the
/// cadence and path never affect the physics.
struct Options {
  /// Snapshot file path; empty disables checkpointing entirely.
  std::string path;
  /// Write a snapshot every N completed trials (≤ 0: only the final
  /// snapshot at run end).
  int everyTrials = 32;
  /// Load `path` before running and re-derive only the missing trials.
  bool resume = false;

  bool enabled() const { return !path.empty(); }
};

/// The snapshot file with the atomic-rename write protocol.
class CheckpointFile {
 public:
  explicit CheckpointFile(std::string path);

  /// Loads and validates the snapshot. Returns std::nullopt — never
  /// throws — when the file is missing, unreadable, structurally corrupt,
  /// truncated, or stale (key/total mismatch); every rejection other than
  /// "missing" warns with the reason.
  std::optional<Snapshot> load(const std::string& expectedKey,
                               std::int64_t expectedTotalTrials) const;

  /// Writes the snapshot crash-safely (temp file + fsync + atomic rename).
  /// Returns false on any I/O failure (callers warn and continue; the
  /// previously renamed snapshot, if any, is untouched).
  bool write(const Snapshot& snapshot) const;

  const std::string& path() const { return path_; }
  std::string tempPath() const { return atomicTempPath(path_); }

 private:
  std::string path_;
};

/// Thread-safe periodic recorder of the shared trial loop. Workers call
/// record() once per completed trial; every `everyTrials` completions the
/// accumulated snapshot is rewritten. A disabled recorder (empty path) is
/// a no-op.
class TrialRecorder {
 public:
  TrialRecorder(const Options& options, std::string configKey,
                std::int64_t totalTrials);

  /// Loads the snapshot for resume. Returns the usable records (empty when
  /// disabled, not resuming, or the snapshot was missing/stale/corrupt);
  /// the returned records also seed the recorder, so later snapshots keep
  /// them. The reference is the recorder's own map: read it before the
  /// first record().
  const std::map<std::int64_t, TrialRecord>& restore();

  /// Records one completed trial and writes a snapshot when the cadence
  /// fires. Never throws: a failed write warns and the run continues.
  void record(TrialRecord record);

  /// Writes the final snapshot (when enabled and anything changed since
  /// the last write). Call once after the trial loop.
  void finalize();

  /// Number of trials restore() accepted.
  int resumedTrials() const { return resumedTrials_; }

  /// Seconds since the last snapshot write attempt; negative when the
  /// recorder is disabled or has never written. Lock-free — feeds the
  /// progress reporter's checkpoint-age gauge.
  double secondsSinceLastWrite() const;

  bool enabled() const { return options_.enabled(); }

 private:
  void writeLocked();

  Options options_;
  std::mutex mutex_;
  Snapshot snapshot_;
  int sinceWrite_ = 0;
  int resumedTrials_ = 0;
  /// obs::nowNs() at the last writeLocked() attempt; 0 = never.
  std::atomic<std::uint64_t> lastWriteNs_{0};
};

}  // namespace viaduct::checkpoint
