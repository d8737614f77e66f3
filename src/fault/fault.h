// viaduct::fault — deterministic fault injection.
//
// A process-wide registry of named injection sites (e.g. "cg.nonconverge",
// "cholesky.factor"). Production code asks shouldInject(site) at the point
// where a failure could occur; the registry answers true when the site is
// armed and its trigger fires. Sites are armed with either
//   - a probability (fire when u < p, u drawn per query), or
//   - a fire-on-Nth-call trigger (fire on exactly the Nth query).
//
// Determinism contract: every decision is driven by the counter-based
// Rng(seed ^ hash(site), stream) streams (common/rng.h). The stream is the
// surrounding Monte Carlo trial index, published via ScopedStream — the MC
// trial loop opens one scope per trial, so the Kth query of site S inside trial
// T always sees the same deviate, regardless of which worker thread runs
// the trial or how many threads exist. Work-item-indexed decisions
// (shouldInjectAt) are stateless: the decision is a pure function of
// (seed, site, index). Outside any scope, decisions use stream 0 with
// per-thread call counters (deterministic for single-threaded callers).
//
// Disarmed cost: one relaxed atomic load per query (same budget as the
// obs macros); nothing else runs until at least one site is armed.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace viaduct::fault {

/// Thrown by injection sites that model a generic job failure (e.g.
/// "pool.job"). Sites that model a specific failure mode throw that mode's
/// real exception type instead (NumericalError for solver sites), so
/// recovery code cannot tell an injected failure from an organic one.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what) : std::runtime_error(what) {}
};

struct Trigger {
  /// Fire when a per-query uniform deviate is < probability (0 disables).
  double probability = 0.0;
  /// Fire on exactly the nth query of the site within the current stream
  /// scope, 1-based (0 disables). Both may be set; either firing fires.
  std::int64_t nth = 0;
};

struct SiteStatus {
  std::string site;
  Trigger trigger;
  bool armed = false;
  std::uint64_t fires = 0;
};

class Registry {
 public:
  /// The process-wide registry. First call parses the VIADUCT_FAULTS
  /// environment variable (same grammar as configure()), so armed faults
  /// reach any binary without plumbing.
  static Registry& instance();

  void arm(std::string_view site, const Trigger& trigger);
  void disarm(std::string_view site);
  void disarmAll();

  /// Base seed mixed into every site stream (default 0).
  void setSeed(std::uint64_t seed);
  std::uint64_t seed() const;

  /// Parses and applies a fault spec:
  ///   "seed=42;cg.nonconverge:p=0.05;cholesky.factor:nth=3"
  /// Segments are ';'-separated; "seed=N" sets the seed, every other
  /// segment is "site:trigger[,trigger]" with triggers "p=<float>" or
  /// "nth=<int>". Throws ParseError on malformed input.
  void configure(std::string_view spec);

  bool anyArmed() const {
    return armedCount_.load(std::memory_order_relaxed) > 0;
  }

  /// Lifetime fire count of one site (0 if never armed).
  std::uint64_t fireCount(std::string_view site) const;
  std::uint64_t totalFires() const;

  /// Every site ever armed (including since-disarmed ones), name order.
  std::vector<SiteStatus> sites() const;

  /// Human-readable one-line digest ("cg.nonconverge[p=0.05] fired 12; …"),
  /// empty when nothing was ever armed.
  std::string summary() const;

  /// Core decision: true when `site` is armed and its trigger fires for
  /// this query. Consumes exactly one deviate of the site's stream per
  /// query, so call ordinals stay aligned between runs.
  bool shouldFire(std::string_view site);

  /// Stateless decision keyed on a work-item index (for call sites whose
  /// execution order is scheduling-dependent, e.g. pool chunks): fires on
  /// probability with Rng(seed ^ hash(site), index), or when
  /// index + 1 == nth.
  bool shouldFireAt(std::string_view site, std::uint64_t index);

 private:
  struct Site;
  Registry() = default;
  Site* findArmed(std::string_view site, Trigger* trigger,
                  std::uint64_t* seedOut) const;

  mutable std::shared_mutex mutex_;
  std::map<std::string, std::unique_ptr<Site>, std::less<>> sites_;
  std::atomic<int> armedCount_{0};
  /// Bumped on every arm/disarm/setSeed so cached per-thread site state
  /// resets instead of leaking call counts across configurations.
  std::atomic<std::uint64_t> epoch_{1};
  std::uint64_t seed_ = 0;  // guarded by mutex_
};

/// Convenience wrappers over Registry::instance(); the disarmed fast path
/// is a single relaxed load.
inline bool shouldInject(std::string_view site) {
  Registry& r = Registry::instance();
  return r.anyArmed() && r.shouldFire(site);
}

inline bool shouldInjectAt(std::string_view site, std::uint64_t index) {
  Registry& r = Registry::instance();
  return r.anyArmed() && r.shouldFireAt(site, index);
}

/// Publishes the Monte Carlo trial index as the current thread's fault
/// stream for the scope's lifetime. Nestable; restores the previous scope
/// on destruction. Each construction starts a fresh decision sequence for
/// every site (call counters reset), so a trial's injection schedule is a
/// pure function of (registry config, trial index).
class ScopedStream {
 public:
  explicit ScopedStream(std::uint64_t stream);
  ~ScopedStream();
  ScopedStream(const ScopedStream&) = delete;
  ScopedStream& operator=(const ScopedStream&) = delete;

 private:
  std::uint64_t prevStream_;
  std::uint64_t prevGeneration_;
};

/// The stream published by the innermost ScopedStream (0 outside any).
std::uint64_t currentStream();

}  // namespace viaduct::fault
