#include "grid/grid_mc.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>

#include "checkpoint/trial_loop.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "obs/obs.h"

namespace viaduct {

GridFailureCriterion GridFailureCriterion::weakestLink() {
  return {.kind = Kind::kWeakestLink, .irDropFraction = 0.0};
}

GridFailureCriterion GridFailureCriterion::irDrop(double fraction) {
  VIADUCT_REQUIRE(fraction > 0.0 && fraction < 1.0);
  return {.kind = Kind::kIrDrop, .irDropFraction = fraction};
}

std::optional<GridFailureCriterion> GridFailureCriterion::parse(
    const std::string& s) {
  if (s == "ir") return irDrop(0.10);
  if (s == "weakest") return weakestLink();
  return std::nullopt;
}

std::string GridFailureCriterion::describe() const {
  if (kind == Kind::kWeakestLink) return "weakest-link";
  return std::to_string(static_cast<int>(irDropFraction * 100.0 + 0.5)) +
         "% IR-drop";
}

namespace {

/// Trials per chunk of the trial loop; one TrialWorkspace serves a chunk.
constexpr std::int64_t kTrialChunk = 4;

/// Per-trial scratch, reused across the trials of a chunk to avoid
/// re-allocating the three O(count) vectors every trial.
struct TrialWorkspace {
  std::vector<double> budget;
  std::vector<double> damage;
  std::vector<double> rates;
  /// Wire-EM audit buffers (sized once per chunk when the audit is on).
  WireTreeSet::Scratch emScratch;
};

/// One trial's result: the time reached (the TTF sample once the trial
/// ends), the arrays failed, and the wire-EM audit counts. Kept current as
/// the trial advances, so a trial aborted mid-flight by a solver failure
/// leaves its progress behind for salvage.
struct TrialResult {
  double sample = 0.0;
  int failures = 0;
  int wireAudited = 0;
  int wireMortal = 0;
};

/// One trial of sequential array failures (damage-accumulation form of
/// Algorithm 1: budgets are consumed at a current-dependent rate, so TTFs
/// re-scale automatically whenever the currents redistribute).
void runTrial(const PowerGridModel& model, const GridMcOptions& options,
              const WireTreeSet::Terminals& emTerminals, Rng& rng,
              TrialWorkspace& ws, TrialResult& out) {
  VIADUCT_SPAN("grid_mc.trial");
  VIADUCT_COUNTER_ADD("grid_mc.trials", 1);
  const int count = static_cast<int>(model.viaArrays().size());
  VIADUCT_CHECK(count > 0);

  // Per-array budget: nucleation time if the array carried I_ref forever.
  std::vector<double>& budget = ws.budget;
  budget.resize(static_cast<std::size_t>(count));
  if (!options.perArrayTtf.empty()) {
    VIADUCT_REQUIRE(options.perArrayTtf.size() == budget.size());
    for (std::size_t m = 0; m < budget.size(); ++m)
      budget[m] = options.perArrayTtf[m].sample(rng);
  } else {
    for (auto& b : budget) b = options.arrayTtf.sample(rng);
  }
  if (!options.perArrayTtfScale.empty()) {
    VIADUCT_REQUIRE(options.perArrayTtfScale.size() == budget.size());
    for (std::size_t m = 0; m < budget.size(); ++m) {
      VIADUCT_REQUIRE_MSG(options.perArrayTtfScale[m] > 0.0,
                          "TTF scale factors must be positive");
      budget[m] *= options.perArrayTtfScale[m];
    }
  }

  // Diagnostic wire-EM audit of each failure configuration's operating
  // point. Never feeds back into the TTF samples (bit-identity across EM
  // modes); the mode only decides how the verdicts are computed.
  const bool wireAudit = options.wireEm.enabled();
  auto auditConfig = [&](const PowerGridModel::DcSolution& s) {
    if (!wireAudit) return;
    const WireTreeSet::Audit audit = options.wireEm.trees->audit(
        emTerminals, s, options.wireEm.mode, options.wireEm.stressMarginPa,
        options.wireEm.params, ws.emScratch);
    ++out.wireAudited;
    if (audit.anyMortal()) ++out.wireMortal;
  };

  PowerGridModel::Session session(model);
  PowerGridModel::DcSolution sol = session.solve();
  if (!sol.solverOk) {
    throw NumericalError("grid MC: healthy grid DC solve failed: " +
                         sol.solverError);
  }
  auditConfig(sol);
  VIADUCT_CHECK_MSG(
      sol.worstIrDropFraction < options.systemCriterion.irDropFraction ||
          options.systemCriterion.kind == GridFailureCriterion::Kind::kWeakestLink,
      "healthy grid already violates the IR-drop criterion; retune loads");

  std::vector<double>& damage = ws.damage;
  damage.assign(static_cast<std::size_t>(count), 0.0);
  const double iRef = options.referenceCurrentAmps;
  VIADUCT_REQUIRE(iRef > 0.0);

  const int maxFailures = options.maxFailuresPerTrial > 0
                              ? std::min(options.maxFailuresPerTrial, count)
                              : count;

  // Hoisted out of the failure loop: every alive array's entry is
  // overwritten each iteration and open arrays are skipped by both readers,
  // so no per-iteration zero-fill (or allocation) is needed.
  std::vector<double>& rates = ws.rates;
  rates.resize(static_cast<std::size_t>(count));

  double t = 0.0;
  for (int failed = 0; failed < maxFailures; ++failed) {
    // Next victim: minimal remaining time under current rates.
    double best = std::numeric_limits<double>::infinity();
    int victim = -1;
    for (int m = 0; m < count; ++m) {
      if (session.arrayOpen(m)) continue;
      const double ratio = sol.viaArrayCurrents[static_cast<std::size_t>(m)] / iRef;
      const double rate = ratio * ratio / budget[static_cast<std::size_t>(m)];
      rates[static_cast<std::size_t>(m)] = rate;
      if (rate <= 0.0) continue;
      const double remaining =
          (1.0 - damage[static_cast<std::size_t>(m)]) / rate;
      if (remaining < best) {
        best = remaining;
        victim = m;
      }
    }
    if (victim < 0) {
      // No array carries current (fully partitioned grid without IR
      // breach cannot happen — loads guarantee current somewhere).
      VIADUCT_WARN << "grid MC: no active array carries current; trial ends";
      return;
    }

    t += best;
    out.sample = t;
    for (int m = 0; m < count; ++m) {
      if (session.arrayOpen(m) || m == victim) continue;
      damage[static_cast<std::size_t>(m)] +=
          rates[static_cast<std::size_t>(m)] * best;
    }
    session.openArray(victim);
    damage[static_cast<std::size_t>(victim)] = 1.0;
    VIADUCT_COUNTER_ADD("grid_mc.array_failures", 1);
    out.failures = failed + 1;

    if (options.systemCriterion.kind ==
        GridFailureCriterion::Kind::kWeakestLink) {
      return;
    }

    VIADUCT_COUNTER_ADD("grid_mc.resolves", 1);
    {
      VIADUCT_SPAN("grid_mc.resolve");
      sol = session.solve();
    }
    if (!sol.solverOk) {
      throw NumericalError("grid MC: DC re-solve failed after " +
                           std::to_string(failed + 1) +
                           " array failure(s): " + sol.solverError);
    }
    auditConfig(sol);
    if (sol.worstIrDropFraction >= options.systemCriterion.irDropFraction) {
      return;
    }
  }
  // Exhausted the failure budget without breaching: report the last time
  // (conservative; with maxFailures == count the grid is fully open and the
  // IR criterion must have fired earlier).
  VIADUCT_WARN << "grid MC: trial hit the failure cap without breaching";
}

}  // namespace

std::string gridMcCheckpointKey(const PowerGridModel& model,
                                const GridMcOptions& options) {
  std::ostringstream os;
  os.precision(17);
  std::ostringstream dists;
  dists.precision(17);
  for (const auto& d : options.perArrayTtf)
    dists << d.mu() << ',' << d.sigma() << ';';
  dists << '|';
  for (const double s : options.perArrayTtfScale) dists << s << ';';
  // v2: the direct-solver backend joined the key. Different backends agree
  // only to ~1e-10, and trial samples are persisted bit-exactly, so a
  // snapshot must not be resumed under a different solver or ordering.
  // v3: the wire-EM audit joined the key (and, when enabled, the trial
  // payload grows two audit values), so snapshots written with a different
  // audit mode / margin / tree decomposition must not be resumed.
  // v4: the Woodbury capacitance system is solved by a bordered LDLᵀ
  // instead of a per-solve LU, so samples differ in the last ulps.
  os << "gridmc-v4;model=" << std::hex << model.structureDigest() << std::dec
     << ";gsolve=" << spdSolverKindName(model.config().gridSolver) << ','
     << orderingChoiceName(model.config().gridOrdering)
     << ";ttf=" << options.arrayTtf.mu() << ',' << options.arrayTtf.sigma()
     << ";per=" << std::hex << fnv1aHash(dists.str()) << std::dec
     << ";iref=" << options.referenceCurrentAmps
     << ";crit=" << static_cast<int>(options.systemCriterion.kind) << ','
     << options.systemCriterion.irDropFraction
     << ";tr=" << options.trials << ";seed=" << options.seed
     << ";maxf=" << options.maxFailuresPerTrial
     // The trial policy shapes the persisted outcome statuses, so a
     // snapshot written under a different policy must not be resumed.
     << ";pol=" << options.policy.enabled << ','
     << static_cast<int>(options.policy.trialPolicy);
  os << ";em=";
  if (options.wireEm.enabled()) {
    // The tree digest covers topology + geometry; the unit-j stress
    // gradient eZ*ρ/Ω and the margin cover every physics input to the
    // verdicts.
    os << signoffModeName(options.wireEm.mode) << ','
       << options.wireEm.stressMarginPa << ','
       << stressGradientPerMeter(1.0, options.wireEm.params) << ','
       << std::hex << options.wireEm.trees->digest() << std::dec;
  } else {
    os << "off";
  }
  return os.str();
}

namespace {

/// A restored count is an integer in [0, max]; anything else (NaN, a
/// fraction, 3e9) came from a damaged snapshot and is re-run rather than
/// cast to int.
bool isCount(double value, double max) {
  return value >= 0.0 && value <= max && value == std::floor(value);
}

/// Level 2's side of the trial loop. Payload: {ttf sample, failures}, plus
/// {configs audited, mortal configs} when the wire-EM audit is on.
struct GridTrials {
  const PowerGridModel& model;
  const GridMcOptions& options;
  /// The run's resolved wire terminals, shared by every trial.
  const WireTreeSet::Terminals emTerminals =
      options.wireEm.enabled() ? options.wireEm.trees->resolve(model)
                               : WireTreeSet::Terminals{};
  std::vector<TrialResult> results =
      std::vector<TrialResult>(static_cast<std::size_t>(options.trials));

  bool restore(const checkpoint::TrialRecord& record) {
    const bool audit = options.wireEm.enabled();
    const auto& p = record.primary;
    const auto arrays = static_cast<double>(model.viaArrays().size());
    // One audit per DC solve: the healthy grid plus one per failure.
    if (p.size() != (audit ? 4u : 2u) || !record.secondary.empty() ||
        !(std::isfinite(p[0]) && p[0] >= 0.0) || !isCount(p[1], arrays) ||
        (audit && !(isCount(p[2], arrays + 1.0) && isCount(p[3], p[2]))))
      return false;
    results[static_cast<std::size_t>(record.trial)] = {
        p[0], static_cast<int>(p[1]), audit ? static_cast<int>(p[2]) : 0,
        audit ? static_cast<int>(p[3]) : 0};
    return true;
  }

  TrialWorkspace newScratch() const {
    TrialWorkspace ws;
    if (options.wireEm.enabled())
      ws.emScratch = options.wireEm.trees->makeScratch();
    return ws;
  }

  void run(std::int64_t trial, Rng& rng, TrialWorkspace& ws) {
    runTrial(model, options, emTerminals, rng, ws,
             results[static_cast<std::size_t>(trial)]);
  }

  void pack(checkpoint::TrialRecord& record) const {
    const TrialResult& r = results[static_cast<std::size_t>(record.trial)];
    record.primary = {r.sample, static_cast<double>(r.failures),
                      static_cast<double>(r.wireAudited),
                      static_cast<double>(r.wireMortal)};
    if (!options.wireEm.enabled()) record.primary.resize(2);
  }
};

}  // namespace

GridMcResult runGridMonteCarlo(const PowerGridModel& model,
                               const GridMcOptions& options) {
  VIADUCT_REQUIRE(options.trials >= 1);
  VIADUCT_SPAN("grid_mc.run");
  const auto wallStart = std::chrono::steady_clock::now();
  // Each trial runs a private Session on its own stream Rng(seed, trial),
  // so the samples, the discard/salvage pattern and a resumed run are
  // bit-identical for any thread count. A salvaged trial keeps the time
  // it reached as a right-censored TTF observation (conservative).
  GridTrials trials{model, options};
  const checkpoint::TrialTally tally = checkpoint::runTrialLoop(
      {.label = "grid_mc", .configKey = gridMcCheckpointKey(model, options),
       .trials = options.trials, .seed = options.seed, .grain = kTrialChunk,
       .parallelism = options.parallelism, .policy = options.policy,
       .checkpoint = options.checkpoint},
      trials);

  GridMcResult result;
  result.discardedTrials = tally.discarded;
  result.salvagedTrials = tally.salvaged;
  result.resumedTrials = tally.resumed;
  long long failureTotal = 0;
  result.ttfSamples.reserve(static_cast<std::size_t>(options.trials));
  for (std::size_t i = 0; i < trials.results.size(); ++i) {
    if (tally.outcomes[i] == checkpoint::TrialOutcome::kDiscarded) continue;
    const TrialResult& r = trials.results[i];
    result.ttfSamples.push_back(r.sample);
    failureTotal += r.failures;
    result.wireAuditedConfigs += r.wireAudited;
    result.wireMortalConfigs += r.wireMortal;
    if (r.wireMortal > 0) ++result.wireMortalTrials;
    VIADUCT_HISTOGRAM_OBSERVE("grid_mc.failures_per_trial", r.failures,
                              obs::Buckets::linear(0, 2, 16));
  }
  if (result.ttfSamples.empty()) {
    throw NumericalError(
        "grid MC: every trial was discarded by the failure policy");
  }
  result.meanFailuresToBreach =
      static_cast<double>(failureTotal) /
      static_cast<double>(result.ttfSamples.size());
  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wallStart)
          .count();
  if (wallSeconds > 0.0) {
    VIADUCT_GAUGE_SET("grid_mc.trials_per_second",
                      static_cast<double>(options.trials) / wallSeconds);
  }
  return result;
}

}  // namespace viaduct
