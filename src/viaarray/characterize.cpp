#include "viaarray/characterize.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "checkpoint/trial_loop.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "em/korhonen.h"
#include "fea/thermo_solver.h"
#include "obs/obs.h"
#include "structures/probes.h"
#include "viaarray/cache.h"
#include "viaarray/primitive_store.h"

namespace viaduct {

ViaArrayFailureCriterion ViaArrayFailureCriterion::weakestLink() {
  return {.kind = Kind::kViaCount, .viaCount = 1, .ratio = 0.0};
}

ViaArrayFailureCriterion ViaArrayFailureCriterion::kthVia(int k) {
  VIADUCT_REQUIRE(k >= 1);
  return {.kind = Kind::kViaCount, .viaCount = k, .ratio = 0.0};
}

ViaArrayFailureCriterion ViaArrayFailureCriterion::resistanceRatio(
    double ratio) {
  VIADUCT_REQUIRE(ratio > 1.0);
  return {.kind = Kind::kResistanceRatio, .viaCount = 0, .ratio = ratio};
}

ViaArrayFailureCriterion ViaArrayFailureCriterion::openCircuit() {
  return {.kind = Kind::kOpen, .viaCount = 0, .ratio = 0.0};
}

std::optional<ViaArrayFailureCriterion> ViaArrayFailureCriterion::parse(
    const std::string& s) {
  if (s == "open") return openCircuit();
  if (s == "weakest") return weakestLink();
  if (!s.empty() && s.back() == 'x') {
    const auto ratio = parseDoubleToken(
        std::string_view(s).substr(0, s.size() - 1));
    if (!ratio || !(*ratio > 1.0)) return std::nullopt;
    return resistanceRatio(*ratio);
  }
  const auto k = parseIntToken(s);
  if (!k || *k < 1 || *k > 1'000'000) return std::nullopt;
  return kthVia(static_cast<int>(*k));
}

std::string ViaArrayFailureCriterion::describe() const {
  switch (kind) {
    case Kind::kViaCount:
      return viaCount == 1 ? "weakest-link"
                           : ("via #" + std::to_string(viaCount));
    case Kind::kResistanceRatio: {
      std::ostringstream os;
      os << "R=" << ratio << "x";
      return os.str();
    }
    case Kind::kOpen:
      return "R=inf";
  }
  return "?";
}

double ViaArrayCharacterizationSpec::totalCurrent() const {
  return totalCurrentDensity * array.effectiveArea;
}

std::string ViaArrayCharacterizationSpec::cacheKey() const {
  std::ostringstream os;
  // max_digits10: every distinct double distinct in the key. At the old
  // precision(12), two specs differing only past the 12th significant
  // digit aliased to the same cache entry.
  os.precision(17);
  os << "n=" << array.n << ";A=" << array.effectiveArea
     << ";sp=" << array.minSpacing
     << ";pat=" << patternName(pattern) << ";w=" << wireWidth
     << ";m=" << margin << ";res=" << resolutionXy
     << ";j=" << totalCurrentDensity << ";Rarr=" << network.arrayResistanceOhms
     << ";sheet=" << network.sheetResistancePerSquare
     << ";Ea=" << em.activationEnergyEv << ";D0=" << em.diffusivityPrefactor
     << ";sD=" << em.deffSigma << ";rho=" << em.resistivityOhmM
     << ";B=" << em.bulkModulusPa << ";gam=" << em.surfaceEnergyJm2
     << ";Rf=" << em.meanFlawRadius << ";sRf=" << em.flawSigmaFraction
     << ";T=" << em.temperatureK << ";pkg=" << em.packageStressPa
     << ";cal=" << stressScale << "," << stressOffsetPa
     << ";tr=" << trials << ";seed=" << seed
     << ";stk=" << stack.metalLower << "," << stack.via << ","
     << stack.metalUpper
     // RNG scheme + key-format tag: trial t draws from the counter-based
     // stream Rng(seed, t), and doubles are keyed at max_digits10 (17).
     // Bumping either part invalidates caches written under the old
     // sequential shared-stream scheme or the old precision(12) key
     // format (which aliased near-identical specs). `parallelism`,
     // `policy`, and `checkpoint` are excluded: results are bit-identical
     // for every thread count and checkpoint cadence, and the policy
     // governs recovery, never the physics (runs with discarded/salvaged
     // trials are never persisted).
     << ";rng=ctr1;key=p17"
     // Level-1 network solver tag: the incremental shared-base/downdate
     // solve ("inc1", DESIGN.md §5.9). The residual tolerance governs when
     // it re-factors, which perturbs results at the ~1e-12 level, so it is
     // part of the key.
     << ";solve=inc1;rtol=" << network.refreshResidualTolerance;
  // FEA preconditioner: distinct preconditioners converge to
  // ulp-level different stress fields, so entries key separately.
  // (`primitiveStore` is excluded for the same reason `parallelism` is: a
  // warm primitive hit is bit-identical to the computed result.)
  os << ";fea=" << feaPreconditionerName(feaPreconditioner);
  return os.str();
}

std::string ViaArrayCharacterizationSpec::primitiveKey() const {
  std::ostringstream os;
  os.precision(17);  // same max_digits10 discipline as cacheKey()
  os << "n=" << array.n << ";A=" << array.effectiveArea
     << ";sp=" << array.minSpacing << ";pat=" << patternName(pattern)
     << ";w=" << wireWidth << ";m=" << margin << ";res=" << resolutionXy
     << ";stk=" << stack.metalLower << "," << stack.via << ","
     << stack.metalUpper << ";fea=" << feaPreconditionerName(feaPreconditioner);
  // The characterizer runs the solver at ThermoSolverOptions defaults; the
  // temperatures and CG tolerance are keyed by VALUE so a future change of
  // those defaults orphans old primitives instead of silently reusing them.
  const ThermoSolverOptions defaults;
  os << ";Ta=" << defaults.annealTemperatureC
     << ";Top=" << defaults.operatingTemperatureC
     << ";tol=" << defaults.cgRelativeTolerance << ";key=p17v1";
  return os.str();
}

namespace {
BuiltStructure buildFor(const ViaArrayCharacterizationSpec& spec) {
  return buildViaArrayStructure(ViaArrayStructureSpec{
      .viaArray = spec.array,
      .pattern = spec.pattern,
      .wireWidth = spec.wireWidth,
      .margin = spec.margin,
      .resolutionXy = spec.resolutionXy,
      .stack = spec.stack,
  });
}

// The healthy-array crowding network, stamped, solved, and (on the
// incremental path) factored exactly ONCE per characterization; every
// Monte Carlo trial copies this prototype and shares its immutable base
// (DESIGN.md §5.9).
ViaArrayNetwork buildBaseNetwork(const ViaArrayCharacterizationSpec& spec) {
  ViaArrayNetworkConfig netCfg = spec.network;
  netCfg.n = spec.array.n;
  netCfg.totalCurrentAmps = spec.totalCurrent();
  netCfg.policy = spec.policy;
  return ViaArrayNetwork(netCfg);
}
}  // namespace

ViaArrayCharacterizer::ViaArrayCharacterizer(
    const ViaArrayCharacterizationSpec& spec)
    : spec_(spec) {
  // The voxel model is needed only for the FEA solve below; the
  // characterizer keeps just its via footprints.
  const BuiltStructure built = buildFor(spec);
  vias_ = built.vias;
  spec_.em.validate();
  VIADUCT_REQUIRE(spec_.trials >= 2);
  VIADUCT_REQUIRE(spec_.stressScale > 0.0);

  // Shared base network (also the reference of the R=ratio criterion —
  // the nominal resistance includes the crowding network's plate segments).
  baseNetwork_.emplace(buildBaseNetwork(spec_));
  nominalResistance_ = baseNetwork_->nominalResistance();

  VIADUCT_SPAN("viaarray.characterize_fea");
  // Stress primitive: consult the store before running FEA. A hit is the
  // exact vector a cold run would compute (round-trip-exact doubles), so a
  // warm sweep runs zero solves; an entry of the wrong shape is silent
  // corruption and degrades to recompute-and-rewrite, never an error.
  const std::string pkey = spec_.primitiveKey();
  if (spec_.primitiveStore) {
    if (auto cached = spec_.primitiveStore->load(pkey)) {
      if (cached->size() == vias_.size()) {
        VIADUCT_COUNTER_ADD("primitive_store.hits", 1);
        rawSigmaT_ = std::move(*cached);
      } else {
        VIADUCT_COUNTER_ADD("primitive_store.corrupt_entries", 1);
        VIADUCT_WARN << "stress-primitive entry has " << cached->size()
                     << " vias, structure has " << vias_.size()
                     << "; recomputing and rewriting";
      }
    } else {
      VIADUCT_COUNTER_ADD("primitive_store.misses", 1);
    }
  }
  int feaIterations = 0;
  if (rawSigmaT_.empty()) {
    ThreadPool pool(spec_.parallelism);
    ThermoSolverOptions feaOpts;
    feaOpts.pool = &pool;
    feaOpts.policy = spec_.policy;
    feaOpts.preconditioner = spec_.feaPreconditioner;
    ThermoSolver solver(built.grid, feaOpts);
    VIADUCT_COUNTER_ADD("viaarray.fea_solves", 1);
    const CgResult res = solver.solve();
    if (!res.converged) {
      throw NumericalError(
          "FEA thermo-stress solve did not converge after policy retries");
    }
    feaIterations = res.iterations;
    rawSigmaT_ = perViaPeakStress(solver, built);
    // Persist only results computed under the keyed preconditioner: the
    // policy ladder may have degraded mg -> ic0 mid-solve, and that result
    // must not be rehydrated under the mg key.
    if (spec_.primitiveStore &&
        solver.activePreconditioner() == spec_.feaPreconditioner) {
      spec_.primitiveStore->save(pkey, rawSigmaT_);
    }
  }
  sigmaT_.reserve(rawSigmaT_.size());
  for (double s : rawSigmaT_)
    sigmaT_.push_back(spec_.stressScale * s + spec_.stressOffsetPa);
  VIADUCT_INFO << "characterized " << spec_.array.n << "x" << spec_.array.n
               << " " << patternName(spec_.pattern) << " array: sigma_T in ["
               << *std::min_element(sigmaT_.begin(), sigmaT_.end()) / 1e6
               << ", "
               << *std::max_element(sigmaT_.begin(), sigmaT_.end()) / 1e6
               << "] MPa ("
               << (feaIterations > 0
                       ? std::to_string(feaIterations) + " CG iters"
                       : std::string("stress primitive reused"))
               << ")";
}

ViaArrayCharacterizer::ViaArrayCharacterizer(
    const ViaArrayCharacterizationSpec& spec,
    const CharacterizationData& data)
    : spec_(spec), vias_(buildFor(spec).vias) {
  spec_.em.validate();
  VIADUCT_REQUIRE(spec_.trials >= 2);
  VIADUCT_REQUIRE(spec_.stressScale > 0.0);
  VIADUCT_REQUIRE_MSG(
      data.rawSigmaT.size() == vias_.size(),
      "cached stress vector does not match the via count");
  VIADUCT_REQUIRE_MSG(
      data.traces.size() == static_cast<std::size_t>(spec_.trials),
      "cached trace count does not match the spec's trial count");
  for (const auto& t : data.traces) {
    VIADUCT_REQUIRE_MSG(t.failureTimes.size() == vias_.size(),
                        "cached trace length does not match the via count");
  }
  baseNetwork_.emplace(buildBaseNetwork(spec_));
  nominalResistance_ = baseNetwork_->nominalResistance();
  rawSigmaT_ = data.rawSigmaT;
  for (double s : rawSigmaT_)
    sigmaT_.push_back(spec_.stressScale * s + spec_.stressOffsetPa);
  traces_ = data.traces;
  tracesReady_ = true;
}

CharacterizationData ViaArrayCharacterizer::exportData() {
  return CharacterizationData{.rawSigmaT = rawSigmaT_, .traces = traces()};
}

void ViaArrayCharacterizer::simulateTrial(Rng& rng, FailureTrace& trace,
                                          TrialScratch& scratch) const {
  VIADUCT_SPAN("viaarray.mc_trial");
  VIADUCT_COUNTER_ADD("viaarray.trials", 1);
  trace.failureTimes.clear();
  trace.resistanceAfter.clear();
  const int count = spec_.array.viaCount();
  const double viaArea =
      spec_.array.effectiveArea / static_cast<double>(count);

  // Per-via nucleation budget at unit current density: K_i such that the
  // nucleation time at density j is K_i / j² (Eq. 3 scaling). Drawn before
  // the first network solve so the per-trial RNG stream is fully consumed
  // even when that solve fails (budget draws stay aligned across trials).
  std::vector<double>& budget = scratch.budget;
  budget.resize(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    budget[static_cast<std::size_t>(i)] =
        sampleTtf(rng, sigmaT_[static_cast<std::size_t>(i)],
                  /*currentDensity=*/1.0, spec_.em);
  }

  // Cheap copy-on-write handle onto the shared healthy base: the healthy
  // solve below is served from the base's memoized voltages, and each
  // failVia() is a rank-1 downdate instead of a fresh factorization.
  ViaArrayNetwork network = *baseNetwork_;

  std::vector<double>& damage = scratch.damage;
  damage.assign(static_cast<std::size_t>(count), 0.0);
  // Zero-filled on every failure: dead and zero-current vias keep rate 0.
  std::vector<double>& rates = scratch.rates;
  std::vector<double>& currents = scratch.currents;
  network.viaCurrents(currents);

  trace.failureTimes.reserve(static_cast<std::size_t>(count));
  trace.resistanceAfter.reserve(static_cast<std::size_t>(count));

  double t = 0.0;
  for (int failed = 0; failed < count; ++failed) {
    // Find the next failing via: minimal remaining time.
    double best = std::numeric_limits<double>::infinity();
    int victim = -1;
    rates.assign(static_cast<std::size_t>(count), 0.0);
    for (int i = 0; i < count; ++i) {
      if (!network.viaAlive(i)) continue;
      const double j = std::abs(currents[static_cast<std::size_t>(i)]) / viaArea;
      const double k = budget[static_cast<std::size_t>(i)];
      double remaining;
      if (k <= 0.0) {
        remaining = 0.0;  // instant nucleation (sigma_C below sigma_T)
        rates[static_cast<std::size_t>(i)] = std::numeric_limits<double>::infinity();
      } else if (j <= 0.0) {
        remaining = std::numeric_limits<double>::infinity();
      } else {
        const double rate = j * j / k;
        rates[static_cast<std::size_t>(i)] = rate;
        remaining = (1.0 - damage[static_cast<std::size_t>(i)]) / rate;
      }
      if (remaining < best) {
        best = remaining;
        victim = i;
      }
    }
    VIADUCT_CHECK_MSG(victim >= 0 && std::isfinite(best),
                      "no failing via found (zero currents everywhere?)");

    // Advance damage on survivors and fail the victim.
    t += best;
    for (int i = 0; i < count; ++i) {
      if (!network.viaAlive(i) || i == victim) continue;
      const double r = rates[static_cast<std::size_t>(i)];
      if (std::isfinite(r)) damage[static_cast<std::size_t>(i)] += r * best;
    }
    network.failVia(victim);
    VIADUCT_COUNTER_ADD("viaarray.via_failures", 1);
    trace.failureTimes.push_back(t);
    if (network.aliveCount() > 0) {
      trace.resistanceAfter.push_back(network.effectiveResistance());
      VIADUCT_COUNTER_ADD("viaarray.network_resolves", 1);
      network.viaCurrents(currents);
    } else {
      trace.resistanceAfter.push_back(std::numeric_limits<double>::infinity());
    }
  }
}

const std::vector<FailureTrace>& ViaArrayCharacterizer::traces() {
  if (tracesReady_) return traces_;
  traces_.assign(static_cast<std::size_t>(spec_.trials), FailureTrace{});

  // Level 1's side of the trial loop: a trial's payload is its trace.
  struct ViaTrials {
    ViaArrayCharacterizer& self;

    // A restored trace is used only if simulateTrial() could have produced
    // it: a kept trial failed every via, a discarded one none, a salvaged
    // one a prefix; failure times are finite, >= 0 and non-decreasing, and
    // resistances positive (+inf after the last via opens).
    bool restore(const checkpoint::TrialRecord& record) {
      using checkpoint::TrialOutcome;
      const auto& times = record.primary;
      const std::size_t n = times.size(), vias = self.vias_.size();
      if (n != record.secondary.size() || n > vias ||
          (record.outcome == TrialOutcome::kKept && n != vias) ||
          (record.outcome == TrialOutcome::kDiscarded && n != 0))
        return false;
      for (std::size_t i = 0; i < n; ++i) {
        const double earlier = i > 0 ? times[i - 1] : 0.0;
        if (!std::isfinite(times[i]) || times[i] < earlier ||
            !(record.secondary[i] > 0.0))
          return false;
      }
      auto& trace = self.traces_[static_cast<std::size_t>(record.trial)];
      trace = {times, record.secondary};
      return true;
    }
    TrialScratch newScratch() const { return {}; }
    // A salvaged trial keeps the via failures recorded before the solve
    // failed: a truncated but valid prefix of the trace.
    void run(std::int64_t trial, Rng& rng, TrialScratch& scratch) {
      self.simulateTrial(rng, self.traces_[static_cast<std::size_t>(trial)],
                         scratch);
    }
    void pack(checkpoint::TrialRecord& record) const {
      if (record.outcome == checkpoint::TrialOutcome::kDiscarded) return;
      const auto& t = self.traces_[static_cast<std::size_t>(record.trial)];
      record.primary = t.failureTimes;
      record.secondary = t.resistanceAfter;
    }
  };

  // Snapshots are keyed on cacheKey(), so any physics change rejects them.
  ViaTrials trials{*this};
  const checkpoint::TrialTally tally = checkpoint::runTrialLoop(
      {.label = "viaarray", .configKey = spec_.cacheKey(),
       .trials = spec_.trials, .seed = spec_.seed, .grain = 1,
       .parallelism = spec_.parallelism, .policy = spec_.policy,
       .checkpoint = spec_.checkpoint},
      trials);
  for (std::size_t t = 0; t < traces_.size(); ++t) {
    if (tally.outcomes[t] == checkpoint::TrialOutcome::kDiscarded)
      traces_[t] = FailureTrace{};  // discarded trials leave empty traces
  }
  discardedTrials_ = tally.discarded;
  salvagedTrials_ = tally.salvaged;
  resumedTrials_ = tally.resumed;
  tracesReady_ = true;
  return traces_;
}

std::vector<double> ViaArrayCharacterizer::ttfSamples(
    const ViaArrayFailureCriterion& criterion) {
  const auto& all = traces();
  const int count = spec_.array.viaCount();
  std::vector<double> samples;
  samples.reserve(all.size());
  for (const auto& trace : all) {
    // Discarded trials leave empty traces; salvaged ones leave a truncated
    // prefix usable only when the criterion fired within it.
    if (trace.failureTimes.empty()) continue;
    const bool complete =
        trace.failureTimes.size() == static_cast<std::size_t>(count);
    double ttf = 0.0;
    bool observed = true;
    switch (criterion.kind) {
      case ViaArrayFailureCriterion::Kind::kViaCount: {
        VIADUCT_REQUIRE_MSG(criterion.viaCount >= 1 &&
                                criterion.viaCount <= count,
                            "criterion via count out of range");
        const auto k = static_cast<std::size_t>(criterion.viaCount);
        if (trace.failureTimes.size() < k) {
          observed = false;
          break;
        }
        ttf = trace.failureTimes[k - 1];
        break;
      }
      case ViaArrayFailureCriterion::Kind::kResistanceRatio: {
        const double limit = criterion.ratio * nominalResistance_;
        observed = false;
        for (std::size_t m = 0; m < trace.resistanceAfter.size(); ++m) {
          if (trace.resistanceAfter[m] >= limit) {
            ttf = trace.failureTimes[m];
            observed = true;
            break;
          }
        }
        if (!observed && complete) {
          ttf = trace.failureTimes.back();  // fallback: open circuit
          observed = true;
        }
        break;
      }
      case ViaArrayFailureCriterion::Kind::kOpen:
        if (!complete) {
          observed = false;
          break;
        }
        ttf = trace.failureTimes.back();
        break;
    }
    if (observed) samples.push_back(ttf);
  }
  if (samples.empty()) {
    throw NumericalError("no usable TTF samples under criterion " +
                         criterion.describe() +
                         " (every trial discarded or censored early)");
  }
  return samples;
}

EmpiricalCdf ViaArrayCharacterizer::ttfCdf(
    const ViaArrayFailureCriterion& criterion) {
  return EmpiricalCdf(ttfSamples(criterion));
}

Lognormal ViaArrayCharacterizer::ttfLognormal(
    const ViaArrayFailureCriterion& criterion) {
  std::vector<double> samples = ttfSamples(criterion);
  std::vector<double> positive;
  positive.reserve(samples.size());
  for (double s : samples)
    if (s > 0.0) positive.push_back(s);
  VIADUCT_CHECK_MSG(positive.size() * 2 > samples.size(),
                    "more than half the TTF samples are zero; the stress "
                    "calibration is unphysical");
  if (positive.size() < samples.size()) {
    VIADUCT_WARN << (samples.size() - positive.size()) << "/" << samples.size()
                 << " trials nucleated instantly; lognormal fit uses the "
                    "positive samples";
  }
  return Lognormal::fitMle(positive);
}

ViaArrayLibrary::ViaArrayLibrary(std::shared_ptr<CharacterizationStore> store)
    : store_(std::move(store)) {}

std::shared_ptr<ViaArrayLibrary> openViaArrayLibrary(
    const std::string& cachePath) {
  if (cachePath.empty()) return std::make_shared<ViaArrayLibrary>();
  return std::make_shared<ViaArrayLibrary>(
      std::make_shared<CharacterizationStore>(cachePath));
}

std::size_t ViaArrayLibrary::size() const {
  std::lock_guard lock(mutex_);
  return cache_.size();
}

std::shared_ptr<ViaArrayCharacterizer> ViaArrayLibrary::get(
    const ViaArrayCharacterizationSpec& spec, GetInfo* info) {
  const std::string key = spec.cacheKey();

  std::shared_future<Shared> theirs;
  std::promise<Shared> mine;
  {
    std::unique_lock lock(mutex_);
    if (const auto it = cache_.find(key); it != cache_.end()) {
      VIADUCT_COUNTER_ADD("char_cache.memory_hit", 1);
      if (info) info->memoryHit = true;
      return it->second;
    }
    if (const auto it = inflight_.find(key); it != inflight_.end()) {
      theirs = it->second;
    } else {
      inflight_.emplace(key, mine.get_future().share());
    }
  }

  if (theirs.valid()) {
    // Another thread is characterizing this exact key right now: wait on
    // its future instead of duplicating an FEA solve + Monte Carlo. A
    // failure over there rethrows here too.
    VIADUCT_COUNTER_ADD("char_cache.inflight_join", 1);
    if (info) info->joinedInFlight = true;
    return theirs.get();
  }

  try {
    Shared created = compute(spec, key);
    {
      std::lock_guard lock(mutex_);
      cache_.emplace(key, created);
      inflight_.erase(key);
    }
    mine.set_value(created);
    return created;
  } catch (...) {
    {
      std::lock_guard lock(mutex_);
      inflight_.erase(key);
    }
    mine.set_exception(std::current_exception());
    throw;
  }
}

ViaArrayLibrary::Shared ViaArrayLibrary::compute(
    const ViaArrayCharacterizationSpec& spec, const std::string& key) {
  if (store_) {
    if (const auto data = store_->load(key)) {
      VIADUCT_COUNTER_ADD("char_cache.store_hit", 1);
      try {
        return std::make_shared<ViaArrayCharacterizer>(spec, *data);
      } catch (const PreconditionError& e) {
        // The entry parsed but its shape contradicts the spec: silent
        // corruption. Recompute-and-rewrite (below) under the policy;
        // otherwise surface the corruption to the caller.
        VIADUCT_COUNTER_ADD("char_cache.corrupt_entries", 1);
        if (!spec.policy.enabled || !spec.policy.recomputeOnCacheCorruption) {
          throw;
        }
        VIADUCT_WARN << "characterization cache entry is corrupt (" << e.what()
                     << "); recomputing and rewriting";
      }
    }
  }

  VIADUCT_COUNTER_ADD("char_cache.miss", 1);
  auto created = std::make_shared<ViaArrayCharacterizer>(spec);
  // Force the Monte Carlo before publication: every access through the
  // library after this point is read-only, so concurrent requests may
  // share the characterizer (and its base-factor prototype) freely.
  created->traces();
  if (store_) {
    if (created->discardedTrials() == 0 && created->salvagedTrials() == 0) {
      store_->save(key, created->exportData());
    } else {
      // Never persist a run with policy-altered traces: the cache key has
      // no policy component, so a later policy-free run must not rehydrate
      // censored data.
      VIADUCT_INFO << "characterization not persisted: "
                   << created->discardedTrials() << " discarded / "
                   << created->salvagedTrials() << " salvaged trial(s)";
    }
  }
  return created;
}

}  // namespace viaduct
