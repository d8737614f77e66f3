// Versioned on-disk store of FEA stress primitives.
//
// The characterization cache (viaarray/cache.h) keys on EVERY physical
// field of the spec, so changing the EM parameters, trial count, or seed
// re-runs the whole characterization — including the thermomechanical FEA
// solve, whose result depends on none of those. This store caches that
// solve's primitive alone: the raw per-via peak stress vector, keyed by
// ViaArrayCharacterizationSpec::primitiveKey() (geometry, stack, mesh
// resolution, solver settings — the p17 key discipline of cacheKey()).
// A warm store makes a characterization sweep run ZERO FEA solves.
//
// Format (line-oriented text):
//   viaduct-stress-primitives v1        <- magic + store-format version
//   entry <primitiveKey>
//   sigma <doubles at max_digits10>
//
// The version tag is part of the magic line: a reader only accepts files
// written under the exact format version it understands, so a format bump
// invalidates every old file wholesale (load degrades to a miss and the
// next save rewrites the file under the new version). Corrupt or truncated
// files are likewise misses, never errors.
//
// Writes are crash-safe: the whole file is rewritten to `<path>.tmp`,
// fsync'd, and atomically renamed over `<path>` (then the directory is
// fsync'd so the rename itself survives a crash; common/atomic_file.h). Readers open the path
// fresh on every load, so a concurrent reader sees either the complete old
// file or the complete new one — never a torn write.
#pragma once

#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace viaduct {

class StressPrimitiveStore {
 public:
  /// Opens (or lazily creates) the store at `path`.
  explicit StressPrimitiveStore(std::string path);

  /// Loads the raw per-via stress vector for `key`; std::nullopt if the
  /// file is absent, has a different format version, is malformed, or has
  /// no such entry — every failure mode is a miss, never an exception.
  std::optional<std::vector<double>> load(const std::string& key) const;

  /// Inserts (or replaces) the entry for `key` with a crash-safe atomic
  /// rewrite of the whole file. Thread-safe: in-process saves serialize on
  /// an internal mutex so one store may be shared across request workers;
  /// loads stay lock-free (they re-open the file and only ever see a
  /// complete pre- or post-rename image).
  void save(const std::string& key, const std::vector<double>& sigma);

  /// Number of well-formed entries currently stored (0 for a missing or
  /// unreadable file).
  std::size_t entryCount() const;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::mutex mutex_;
};

}  // namespace viaduct
