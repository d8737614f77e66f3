// On-disk persistence for via-array characterizations.
//
// Characterization is the expensive step (FEA + 500-trial Monte Carlo) and
// is a per-technology one-time cost (§5.1). This store saves the raw
// per-via stress and the full failure traces keyed by the
// ViaArrayCharacterizationSpec cache key, so separate processes (the bench
// binaries, user tools) share work across runs — the role of a
// precharacterized technology library.
//
// Format: a line-oriented text file, one `entry` block per configuration.
// Keys embed every physical parameter, so stale entries are simply never
// matched after a parameter change.
#pragma once

#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "viaarray/characterize.h"

namespace viaduct {

/// The persisted payload of one characterization.
struct CharacterizationData {
  std::vector<double> rawSigmaT;      // uncalibrated FEA stress per via [Pa]
  std::vector<FailureTrace> traces;   // one per Monte Carlo trial
};

class CharacterizationStore {
 public:
  /// Opens (or lazily creates) the store at `path`.
  explicit CharacterizationStore(std::string path);

  /// Loads the entry for `key`; std::nullopt if absent or malformed (a
  /// malformed file is treated as a cache miss, never an error).
  /// Thread-safe: loads and saves through one store object serialize on an
  /// internal mutex, so one instance may be shared across request workers
  /// (the save path is a read-modify-rewrite of the whole file).
  std::optional<CharacterizationData> load(const std::string& key) const;

  /// Appends (or replaces) the entry for `key` by rewriting the whole file
  /// and publishing it atomically (common/atomic_file.h): a crash or a full
  /// disk mid-save keeps the previous file, and a reader sees either the
  /// complete old file or the complete new one. Throws ParseError if the
  /// file cannot be written.
  void save(const std::string& key, const CharacterizationData& data);

  /// Number of entries currently stored.
  std::size_t entryCount() const;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  mutable std::mutex mutex_;
};

}  // namespace viaduct
