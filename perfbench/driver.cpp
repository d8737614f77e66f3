// Repository benchmark driver: runs one workload through viaduct's public
// API and prints one raw JSON record (samples, counters, spans, gates) as
// its last stdout line. perfbench/run.py builds this binary, turns the
// record into the metrics named in BENCHMARK.json and prints the result.
//
//   perfbench_driver --workload pg1_cold --seed 1 --seconds 20 --trace 0
//       --work-dir .bench_build/perfbench-work
//       --reference perfbench/reference.json
//
// Workloads (perfbench/README.md gives the reasons):
//   pg1_cold    PG1, CLI analyze defaults, fresh library per analyze()
//   pg5_warm    PG5, up-looking+RCM, library pre-filled during set-up
//   mesh_audit  ~1e5-node mesh parsed from SPICE text, supernodal+AMD,
//               steady-state wire-EM audit, warm library
//   serve_mix   in-process ViaductServer, closed loop of 4 clients
//
// --trace 0 measures the end-to-end samples. --trace 1 additionally times
// each layer from outside (spans around public calls, recorded in memory
// and written to the work directory) and reads the existing obs counters.
// --emit-reference N prints the reference TTFs of input instances 0..N-1.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/statistics.h"
#include "common/units.h"
#include "core/analyzer.h"
#include "grid/mesh.h"
#include "grid/wire_mortality.h"
#include "numerics/spd_factor.h"
#include "obs/metrics.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "spice/generator.h"
#include "spice/parser.h"
#include "spice/writer.h"
#include "viaarray/primitive_store.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace viaduct;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// The number of distinct input instances of the batch workloads; --seed
// selects instance seed % kInstances.
// perfbench/reference.json holds the reference TTFs of every instance.
constexpr std::uint64_t kInstances = 32;
constexpr int kSolverThreads = 4;
// Fine-grained parallel work stalls whenever another tenant of a 4-core
// virtual machine takes one of its cores, and at 4 threads every stall
// lands on it. pg1_cold's analysis is mostly the multigrid FEA solve, whose
// parallel regions meet at a barrier every few microseconds: at 4 threads
// the run-to-run spread of its p90 reached 0.4, at 2 threads about 0.05.
// mesh_audit's analyze_s medians split between about 1.75 and 2.1 s at 4
// threads and stayed within 3 % at 2. The warm workloads' library pre-fill
// (see setUp()) is FEA too. serve_mix's primitive-store pre-fill stays at 4
// threads: at 2 its setup_s was slower and spread more (0.12-0.15 against
// 0.06-0.10 over ten runs).
constexpr int kSteadyThreads = 2;

int solverThreads(const std::string& workload) {
  return workload == "pg5_warm" ? kSolverThreads : kSteadyThreads;
}
constexpr int kServeWorkers = 2;
constexpr int kServeSolverThreads = 2;
constexpr int kServeClients = 4;
// The layer spans of the traced decompositions must match the untraced
// analyze() wall time to within this share (see recordCoverage()). On a
// shared 4-vCPU virtual machine single calls of the same analysis vary by
// up to 10-20 %, and run medians of the coverage ratio fell between 0.94
// and 1.07; a step worth more than 15 % of analyze() that the copy skips
// or adds still fails the run.
constexpr double kCoverageTolerance = 0.15;
// Relative tolerance of the reference TTF check (the golden-parity
// tolerance used by the repository's paper-parity test).
constexpr double kReferenceRelTol = 1e-9;

// ---------------------------------------------------------------- JSON out

std::string jsonString(const std::string& s) {
  return "\"" + serve::escapeJson(s) + "\"";
}

std::string jsonList(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += serve::jsonNumber(v[i]);
  }
  return out + "]";
}

// ------------------------------------------------------------------- spans

/// Benchmark-side spans: name, start, end and parent, kept in memory and
/// written out when the run ends. Only the benchmark's main thread opens
/// spans, so no locking is needed.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
  };

  void setEnabled(bool on) { enabled_ = on; }

  int begin(const std::string& name) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, parent, now(), 0.0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }

  /// Durations of every span called `name`.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const auto& s : spans_)
      if (s.name == name) out.push_back(s.end - s.start);
    return out;
  }

  /// Summed wall time of the direct children of the latest span called
  /// `parentName`.
  double lastChildTime(const std::string& parentName) const {
    for (std::size_t i = spans_.size(); i-- > 0;) {
      if (spans_[i].name != parentName) continue;
      double covered = 0.0;
      for (std::size_t j = i + 1; j < spans_.size(); ++j)
        if (spans_[j].parent == static_cast<int>(i))
          covered += spans_[j].end - spans_[j].start;
      return covered;
    }
    return 0.0;
  }

  bool write(const std::string& path) const {
    std::ofstream os(path);
    os << "{\"schema\":\"perfbench-spans-v1\",\"unit\":\"s\",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"id\":" << i
         << ",\"name\":" << jsonString(s.name) << ",\"parent\":" << s.parent
         << ",\"start\":" << serve::jsonNumber(s.start) << ",\"end\":" << serve::jsonNumber(s.end)
         << "}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  double now() const { return secondsSince(t0_); }

  bool enabled_ = false;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer gTracer;

class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name) : id_(gTracer.begin(name)) {}
  ~ScopedSpan() { gTracer.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

// ---------------------------------------------------------------- counters

std::uint64_t counter(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

const std::vector<const char*> kCounters = {
    "grid_mc.array_failures",   "grid_mc.resolves",
    "woodbury.branch_updates",  "woodbury.rebases",
    "cholesky.refactorizations", "cholesky.triangular_solves",
    "viaarray.fea_solves",      "cg.iterations_total",
    "fea.mg_cycles",            "viaarray.downdates",
    "primitive_store.hits",     "em.steady_solves",
    "char_cache.memory_hit",    "char_cache.miss",
    "char_cache.inflight_join", "char_cache.store_hit",
};

std::map<std::string, std::uint64_t> readCounters() {
  std::map<std::string, std::uint64_t> out;
  for (const char* name : kCounters) out[name] = counter(name);
  return out;
}

std::map<std::string, double> counterDelta(
    const std::map<std::string, std::uint64_t>& before) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : readCounters())
    out[name] = static_cast<double>(value - before.at(name));
  return out;
}

// ------------------------------------------------------------------ record

struct Record {
  std::vector<double> setupSeconds;
  std::vector<double> analyzeSeconds;
  std::vector<double> latencyMs;
  double measuredSeconds = 0.0;
  int completed = 0;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> gateFailures;
  std::map<std::string, std::vector<double>> layerSamples;
  std::map<std::string, double> layerValues;
  double netlistMb = 0.0;  // size of the SPICE text spice.parse reads

  void gate(bool ok, const std::string& what) {
    if (!ok) gateFailures.push_back(what);
  }
};

// --------------------------------------------------------------- workloads

std::uint64_t fnv1a(const std::vector<double>& v) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(double); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct Outcome {
  double worstCaseYears = 0.0;
  double medianYears = 0.0;
  std::uint64_t digest = 0;
  int discarded = 0;
  int salvaged = 0;
  int mortalConfigs = 0;
};

Outcome outcomeOf(const GridTtfReport& r) {
  return {r.worstCaseYears,    r.medianYears,       fnv1a(r.mc.ttfSamples),
          r.discardedTrials,   r.salvagedTrials,    r.wireMortalConfigs};
}

struct BatchWorkload {
  std::string name;
  bool warm = false;       // library pre-filled during set-up
  AnalyzerConfig config;
  std::string netlistText;  // the generated input, as SPICE text
};

const ViaArrayFailureCriterion kArrayCriterion =
    ViaArrayFailureCriterion::openCircuit();
const GridFailureCriterion kSystemCriterion = GridFailureCriterion::irDrop(0.10);

// Level-1 trials of the warm workloads. Their pre-fill cost is FEA, not
// Monte Carlo, and with 300 trials the fitted lognormals move enough from
// seed to seed to change the grid Monte Carlo's work by about 8 %.
constexpr int kWarmCharTrials = 10000;

/// AnalyzerConfig as `viaduct_cli analyze` builds it from its defaults.
AnalyzerConfig cliDefaults(std::uint64_t instance) {
  AnalyzerConfig config;
  config.viaArraySize = 4;
  config.trials = 300;
  config.characterization.trials = 300;
  config.characterization.feaPreconditioner = FeaPreconditionerKind::kMultigrid;
  config.tuneNominalIrDropFraction = 0.06;
  config.gridConfig.gridSolver = SpdSolverKind::kUplooking;
  config.gridConfig.gridOrdering = OrderingChoice::kRcm;
  config.parallelism.threads = kSolverThreads;
  config.emMode = SignoffMode::kSteadyState;
  // The seed picks the level-1 Monte Carlo stream only. The fitted
  // lognormals then differ slightly while the grid Monte Carlo draws stay
  // the same, so TTFs change from seed to seed but the work (array failures,
  // Woodbury updates) barely does and runs of different seeds compare.
  config.characterization.seed = 12345 + instance;
  return config;
}

BatchWorkload makeBatch(const std::string& name, std::uint64_t instance) {
  BatchWorkload w;
  w.name = name;
  w.config = cliDefaults(instance);
  w.config.parallelism.threads = solverThreads(name);
  if (name == "pg1_cold" || name == "pg5_warm") {
    w.netlistText = writeSpiceString(generatePgBenchmark(
        name == "pg1_cold" ? PgPreset::kPg1 : PgPreset::kPg5));
    w.warm = name == "pg5_warm";
    if (w.warm) w.config.characterization.trials = kWarmCharTrials;
  } else {  // mesh_audit
    w.netlistText =
        writeSpiceString(buildMeshNetlist(meshSpecForNodeTarget(100000)));
    w.warm = true;
    w.config.trials = 40;
    w.config.characterization.trials = kWarmCharTrials;
    w.config.gridConfig.gridSolver = SpdSolverKind::kSupernodal;
    w.config.gridConfig.gridOrdering = OrderingChoice::kAmd;
    w.config.tuneNominalIrDropFraction = 0.08;
    w.config.wireEmAudit = true;
    w.config.emMode = SignoffMode::kSteadyState;
    w.config.wireGeometry.wirePrefixes = {"Rs1_", "Rs2_"};
  }
  return w;
}

std::vector<IntersectionPattern> usedPatterns(const PowerGridEmAnalyzer& a) {
  std::vector<IntersectionPattern> out;
  for (const auto p : {IntersectionPattern::kPlus, IntersectionPattern::kT,
                       IntersectionPattern::kL})
    if (std::find(a.sitePatterns().begin(), a.sitePatterns().end(), p) !=
        a.sitePatterns().end())
      out.push_back(p);
  return out;
}

struct Prepared {
  Netlist netlist;  // parsed input (analyzers take copies)
  std::shared_ptr<ViaArrayLibrary> library;
  std::unique_ptr<PowerGridEmAnalyzer> analyzer;
};

/// Inputs to ready-to-analyze: parse, analyzer construction (IR tuning,
/// base factorization, nominal solve) and, for warm workloads, the
/// library pre-fill. This is what setup_s times.
Prepared setUp(const BatchWorkload& w) {
  Prepared p;
  {
    ScopedSpan s("spice.parse");
    p.netlist = parseSpiceString(w.netlistText);
  }
  p.library = std::make_shared<ViaArrayLibrary>();
  {
    ScopedSpan s("core.analyzer_ctor");
    p.analyzer =
        std::make_unique<PowerGridEmAnalyzer>(p.netlist, w.config, p.library);
  }
  if (w.warm) {
    for (const auto pattern : usedPatterns(*p.analyzer)) {
      // The pre-fill is mostly the multigrid FEA solve; at 4 threads its
      // barrier stalls spread pg5_warm's setup_s by 0.34 over ten runs.
      // Results do not depend on the thread count, and neither does the
      // library key, so analyze() finds these entries.
      auto spec = p.analyzer->specForPattern(pattern);
      spec.parallelism.threads = kSteadyThreads;
      p.library->get(spec);
    }
  }
  return p;
}

/// Per-layer probes on a workload's inputs that set-up does not expose as
/// separate calls: IR tuning and model construction (both run inside the
/// analyzer constructor), the base factorization with the workload's
/// backend, and the wire-tree decomposition and audit at the nominal
/// operating point.
void probeLayers(const Netlist& netlist, const AnalyzerConfig& config,
                 Record& rec) {
  Netlist tuned = netlist;
  {
    ScopedSpan s("grid.tune");
    tuneNominalIrDrop(tuned, config.tuneNominalIrDropFraction.value_or(0.06),
                      config.gridConfig);
  }
  std::unique_ptr<PowerGridModel> model;
  {
    ScopedSpan s("grid.model_build");
    model = std::make_unique<PowerGridModel>(tuned, config.gridConfig);
  }
  {
    ThreadPool pool(std::max(1, config.gridConfig.factorThreads));
    std::unique_ptr<SpdFactor> factor;
    {
      ScopedSpan s("numerics.factor");
      factor = buildSpdFactor(model->conductanceMatrix(),
                              config.gridConfig.gridSolver,
                              config.gridConfig.gridOrdering, &pool);
    }
    rec.layerValues["numerics.factor_nnz"] =
        static_cast<double>(factor->factorNonZeroCount());
    rec.layerValues["numerics.fill_ratio"] =
        obs::Registry::instance().gauge("cholesky.fill_ratio").value();
  }
  WireGeometry geometry = config.wireGeometry;
  if (!config.wireEmAudit) geometry = WireGeometry{};
  std::shared_ptr<const WireTreeSet> trees;
  {
    ScopedSpan s("em.tree_build");
    trees = WireTreeSet::build(tuned, geometry);
  }
  const auto nominal = model->solveNominal();
  auto scratch = trees->makeScratch();
  {
    ScopedSpan s("em.audit");
    trees->audit(*model, nominal, config.emMode, config.wireStressMarginPa,
                 config.wireEmParams, scratch);
  }
}

/// How tracedAnalyze() obtains each pattern's characterization.
enum class Level1 {
  kFea,      // construct the characterizer (FEA solve) and run its MC
  kStore,    // construct it on a warm primitive store (no FEA), run its MC
  kLibrary,  // take it from the analyzer's (warm) library
};

/// Times the level-1 layers of a warm workload, whose analyze() only reads
/// the library: one characterization per used pattern, FEA and Monte
/// Carlo timed separately.
void probeLevel1(const PowerGridEmAnalyzer& analyzer) {
  for (const auto pattern : usedPatterns(analyzer)) {
    std::unique_ptr<ViaArrayCharacterizer> ch;
    {
      ScopedSpan s("fea.solve");
      ch = std::make_unique<ViaArrayCharacterizer>(
          analyzer.specForPattern(pattern));
    }
    ScopedSpan s("viaarray.mc");
    ch->traces();
  }
}

/// analyze() split at its public calls so every layer is timed from
/// outside: level-1 characterization (FEA, Monte Carlo, lognormal fit),
/// wire-tree build, level-2 grid Monte Carlo, CDF and bootstrap. Mirrors
/// PowerGridEmAnalyzer::analyze(); its TTF samples must be bit-identical
/// to the real call's (checked by the caller).
Outcome tracedAnalyze(PowerGridEmAnalyzer& analyzer,
                      const AnalyzerConfig& config, Level1 level1) {
  ScopedSpan top("analyze");
  std::array<Lognormal, 3> fits = {Lognormal(0, 1), Lognormal(0, 1),
                                   Lognormal(0, 1)};
  for (const auto pattern : usedPatterns(analyzer)) {
    const auto spec = analyzer.specForPattern(pattern);
    std::shared_ptr<ViaArrayCharacterizer> ch;
    if (level1 != Level1::kLibrary) {
      {
        ScopedSpan s(level1 == Level1::kFea ? "fea.solve"
                                            : "viaarray.store_load");
        ch = std::make_shared<ViaArrayCharacterizer>(spec);
      }
      ScopedSpan s("viaarray.mc");
      ch->traces();
    } else {
      ScopedSpan s("viaarray.library_get");
      ch = analyzer.library().get(spec);
    }
    ScopedSpan s("viaarray.fit");
    fits[static_cast<std::size_t>(pattern)] = ch->ttfLognormal(kArrayCriterion);
  }
  GridMcOptions options;
  options.perArrayTtf.reserve(analyzer.sitePatterns().size());
  for (const auto p : analyzer.sitePatterns())
    options.perArrayTtf.push_back(fits[static_cast<std::size_t>(p)]);
  options.referenceCurrentAmps = config.characterization.totalCurrent();
  options.systemCriterion = kSystemCriterion;
  options.trials = config.trials;
  options.seed = config.seed;
  options.parallelism = config.parallelism;
  options.policy = config.policy;
  options.checkpoint = config.checkpoint;
  if (config.wireEmAudit) {
    ScopedSpan s("em.tree_build");
    options.wireEm.trees =
        WireTreeSet::build(analyzer.netlist(), config.wireGeometry);
    options.wireEm.mode = config.emMode;
    options.wireEm.stressMarginPa = config.wireStressMarginPa;
    options.wireEm.params = config.wireEmParams;
  }
  GridMcResult mc;
  {
    ScopedSpan s("grid_mc.run");
    mc = runGridMonteCarlo(analyzer.model(), options);
  }
  std::optional<EmpiricalCdf> cdf;
  {
    ScopedSpan s("core.cdf");
    cdf.emplace(mc.cdf());
  }
  Outcome out;
  out.worstCaseYears = cdf->worstCase() / units::year;
  out.medianYears = cdf->median() / units::year;
  out.digest = fnv1a(mc.ttfSamples);
  out.discarded = mc.discardedTrials;
  out.salvaged = mc.salvagedTrials;
  out.mortalConfigs = mc.wireMortalConfigs;
  {
    // As analyze() calls it.
    ScopedSpan s("core.bootstrap");
    Rng ciRng(config.seed ^ 0x517cc1b727220a95ull);
    bootstrapQuantileCi(mc.ttfSamples, 0.003, 0.95, 400, ciRng);
  }
  return out;
}

struct Reference {
  bool found = false;
  double worstCaseYears = 0.0;
  double medianYears = 0.0;
};

/// Reads `"<workload>/<instance>": [worst, median]` from the reference
/// file (a flat JSON object of two-number arrays written by run.py).
Reference loadReference(const std::string& path, const std::string& workload,
                        std::uint64_t instance) {
  Reference ref;
  std::ifstream is(path);
  if (!is) return ref;
  const std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  const std::string key =
      "\"" + workload + "/" + std::to_string(instance) + "\"";
  const auto at = text.find(key);
  if (at == std::string::npos) return ref;
  const auto open = text.find('[', at);
  const auto close = text.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return ref;
  std::istringstream values(text.substr(open + 1, close - open - 1));
  char comma = 0;
  values >> ref.worstCaseYears >> comma >> ref.medianYears;
  ref.found = static_cast<bool>(values) && comma == ',';
  return ref;
}

bool close(double a, double b) {
  return std::abs(a - b) <= kReferenceRelTol * std::max(std::abs(a), std::abs(b));
}

void checkOutcome(const Outcome& o, const Outcome& first, const Reference& ref,
                  Record& rec, const std::string& what) {
  bool ok = true;
  if (o.digest != first.digest) {
    rec.gate(false, what + ": TTF samples differ from the first analysis");
    ok = false;
  }
  if (!close(o.worstCaseYears, ref.worstCaseYears) ||
      !close(o.medianYears, ref.medianYears)) {
    rec.gate(false, what + ": worst-case/median TTF " +
                        serve::jsonNumber(o.worstCaseYears) + "/" +
                        serve::jsonNumber(o.medianYears) + " miss the reference " +
                        serve::jsonNumber(ref.worstCaseYears) + "/" +
                        serve::jsonNumber(ref.medianYears));
    ok = false;
  }
  if (o.discarded != 0 || o.salvaged != 0) {
    rec.gate(false, what + ": discarded or salvaged trials");
    ok = false;
  }
  ++rec.attempted;
  if (!ok) ++rec.failed;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// A traced batch run measures at least this many untraced/traced pairs,
// however short --seconds is: pg5_warm fits only two or three in 20 s.
constexpr std::size_t kMinTracedPairs = 6;

/// Layer coverage of the traced decompositions: for each pair of an
/// untraced analyze() and the traced decomposition run next to it, the
/// decomposition's summed layer spans over the real call's wall time; the
/// run reports the median of these ratios. A decomposition that drifts from
/// PowerGridEmAnalyzer::analyze() (skips a step, or keeps one the real call
/// dropped) moves it away from 1, and the run fails.
void recordCoverage(const std::vector<double>& layerTime,
                    const std::vector<double>& plain, Record& rec) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < std::min(layerTime.size(), plain.size()); ++i)
    ratios.push_back(layerTime[i] / plain[i]);
  const double coverage = median(ratios);
  rec.layerSamples["analyze.coverage"] = ratios;
  rec.layerValues["analyze.span_coverage"] = coverage;
  rec.gate(std::abs(coverage - 1.0) <= kCoverageTolerance,
           "layer spans of the traced analyses cover " +
               serve::jsonNumber(coverage) +
               " of the untraced analyze() wall time");
}

/// Three timed set-ups; setup_s is the median of all set-up samples.
template <typename Fn>
void repeatSetUp(Record& rec, Fn&& once) {
  for (int i = 0; i < 3; ++i) {
    const auto t = Clock::now();
    once();
    rec.setupSeconds.push_back(secondsSince(t));
  }
}

// Set-ups per cold analysis. A PG1 set-up takes milliseconds on one
// thread, and its speed depends on which core it lands on; many samples
// spread over the whole run keep their median steady.
constexpr int kColdSetUpsPerAnalysis = 8;

void runBatch(const BatchWorkload& w, double seconds, bool trace,
              const Reference& ref, Record& rec) {
  const bool cold = !w.warm;
  Prepared prepared;
  gTracer.setEnabled(trace);
  repeatSetUp(rec, [&] {
    ScopedSpan s("setup");
    prepared = setUp(w);
  });
  rec.netlistMb = static_cast<double>(w.netlistText.size()) / 1e6;

  // A cold analysis starts from a fresh set-up: parse, analyzer and an
  // empty library. Each is one more setup_s sample.
  const auto freshAnalyzer = [&] {
    if (!cold) return;
    for (int i = 0; i < kColdSetUpsPerAnalysis; ++i) {
      const auto t = Clock::now();
      prepared = setUp(w);
      rec.setupSeconds.push_back(secondsSince(t));
    }
  };

  Outcome first;
  bool haveFirst = false;
  const auto untraced = [&]() -> double {
    freshAnalyzer();
    const auto t = Clock::now();
    Outcome o;
    try {
      o = outcomeOf(prepared.analyzer->analyze(kArrayCriterion, kSystemCriterion));
    } catch (const std::exception& e) {
      rec.gate(false, std::string("analyze threw: ") + e.what());
      ++rec.attempted;
      ++rec.failed;
      return secondsSince(t);
    }
    const double dt = secondsSince(t);
    if (!haveFirst) {
      first = o;
      haveFirst = true;
    }
    checkOutcome(o, first, ref, rec, "analyze");
    return dt;
  };

  if (!trace) {
    const auto start = Clock::now();
    do {
      rec.analyzeSeconds.push_back(untraced());
      ++rec.completed;
    } while (secondsSince(start) < seconds);
    rec.measuredSeconds = secondsSince(start);
    for (const double s : rec.analyzeSeconds) rec.latencyMs.push_back(1e3 * s);
    return;
  }

  // Traced: per-layer probes, then pairs of an untraced analyze() and the
  // traced decomposition; their difference is the tracing overhead. The
  // order within a pair alternates so a cost that falls on whichever call
  // runs first cancels out.
  probeLayers(prepared.netlist, w.config, rec);
  if (w.warm) probeLevel1(*prepared.analyzer);
  gTracer.setEnabled(false);

  std::vector<double> plain, traced, layerTime;
  std::map<std::string, double> perAnalyze;
  const auto tracedOnce = [&]() -> bool {
    freshAnalyzer();
    const auto before = readCounters();
    gTracer.setEnabled(true);
    const auto t = Clock::now();
    Outcome o;
    try {
      o = tracedAnalyze(*prepared.analyzer, w.config,
                        cold ? Level1::kFea : Level1::kLibrary);
    } catch (const std::exception& e) {
      gTracer.setEnabled(false);
      rec.gate(false, std::string("traced analyze threw: ") + e.what());
      ++rec.attempted;
      ++rec.failed;
      return false;
    }
    traced.push_back(secondsSince(t));
    gTracer.setEnabled(false);
    layerTime.push_back(gTracer.lastChildTime("analyze"));
    for (const auto& [name, v] : counterDelta(before)) perAnalyze[name] += v;
    rec.layerValues["em.mortal_configs"] = o.mortalConfigs;
    checkOutcome(o, first, ref, rec, "traced analyze");
    return true;
  };
  const auto start = Clock::now();
  for (std::size_t pair = 0;
       pair < kMinTracedPairs || secondsSince(start) < seconds; ++pair) {
    const bool tracedFirst = pair % 2 == 1;
    if (tracedFirst && !tracedOnce()) continue;
    const double plainSeconds = untraced();
    if (!tracedFirst && !tracedOnce()) continue;
    plain.push_back(plainSeconds);
  }
  rec.measuredSeconds = secondsSince(start);
  rec.completed = static_cast<int>(traced.size());
  rec.analyzeSeconds = plain;
  for (const double s : plain) rec.latencyMs.push_back(1e3 * s);
  for (auto& [name, v] : perAnalyze)
    rec.layerValues[name] = v / std::max<std::size_t>(1, traced.size());
  rec.layerValues["trace_overhead_frac"] = median(traced) / median(plain) - 1.0;
  recordCoverage(layerTime, plain, rec);
  rec.layerValues["grid_mc.trials"] = w.config.trials;
  rec.layerValues["viaarray.trials"] = w.config.characterization.trials;
}

// --------------------------------------------------------------- serve_mix

struct Request {
  bool analyze = false;
  std::string body;  // also the key duplicate responses must agree on
};

struct Response {
  std::size_t index = 0;
  int status = 0;
  double ms = 0.0;
  std::string body;
};

// The request mix is an assumption; the repository holds no traffic record.
// See makeRequests() and perfbench/README.md for the reasons.
constexpr int kServeCharTrials = 200;
constexpr int kServeAnalyzeTrials = 100;
constexpr std::size_t kServeBlock = 50;  // one /v1/analyze per block
// More requests than any run completes; the clients stop at the deadline.
constexpr std::size_t kServeRequests = 20000;
// Untraced/traced analysis pairs behind trace_overhead_frac and the layer
// coverage on serve_mix (one PG1 analysis on a warm library takes ~50 ms).
constexpr int kServeTracedAnalyses = 20;

std::string analyzeBody() {
  serve::JsonObjectWriter w;
  w.add("preset", "PG1")
      .addInt("viaN", 4)
      .addInt("trials", kServeAnalyzeTrials)
      .addInt("charTrials", 300);
  return w.str();
}

/// The seeded request stream. In every block of fifty requests one is a
/// PG1 /v1/analyze, sixteen repeat an earlier characterize key (a library
/// memory hit or an in-flight join) and 33 characterize a fresh seed, with
/// n cycling through 2, 3, 4 and a random pattern. The shares are fixed,
/// not drawn, so the work per request does not vary from seed to seed.
/// An analysis takes about fifteen times as long as a characterization,
/// and the characterizations queued behind it wait for most of that; at
/// one analysis in fifty, those slow requests are about 5 % of all, so
/// latency_p90_ms lies among ordinary characterize latencies instead of
/// on the edge of the slow group.
std::vector<Request> makeRequests(std::uint64_t seed) {
  Rng rng(seed ^ 0x5e7e5e7e5e7e5e7eull, 0);
  const char* patterns[] = {"Plus", "T", "L"};
  std::vector<Request> out;
  std::vector<std::size_t> characterizeKeys;
  const int seedBase = 1000000 + static_cast<int>(seed % 1000) * 100000;
  int fresh = 0;
  for (std::size_t i = 0; i < kServeRequests; ++i) {
    const std::size_t slot = i % kServeBlock;
    Request r;
    if (slot == kServeBlock - 1) {
      r.analyze = true;
      r.body = analyzeBody();
    } else if (slot % 3 == 2 && !characterizeKeys.empty()) {
      r = out[characterizeKeys[rng.uniformInt(characterizeKeys.size())]];
    } else {
      serve::JsonObjectWriter w;
      w.addInt("n", 2 + fresh++ % 3)
          .add("pattern", patterns[rng.uniformInt(3)])
          .addInt("trials", kServeCharTrials)
          .add("criterion", "open")
          .addInt("seed", seedBase + static_cast<int>(i));
      r.body = w.str();
      characterizeKeys.push_back(out.size());
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// The response fields that must agree for one key: everything except
/// how this requester was served (memoryHit / joinedInFlight / deduped).
std::optional<serve::JsonObject> resultFields(const std::string& body) {
  auto obj = serve::parseFlatObject(body);
  if (!obj) return std::nullopt;
  obj->erase("memoryHit");
  obj->erase("joinedInFlight");
  obj->erase("deduped");
  return obj;
}

bool sameFields(const serve::JsonObject& a, const serve::JsonObject& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [k, v] : a) {
    const auto it = b.find(k);
    if (it == b.end() || it->second.kind != v.kind ||
        it->second.str != v.str || it->second.boolean != v.boolean)
      return false;
    // Numbers compare bit-exactly (jsonNumber round-trips).
    if (v.isNumber() && !(v.number == it->second.number)) return false;
  }
  return true;
}

ViaArrayCharacterizationSpec serveSpec(int n, IntersectionPattern pattern) {
  ViaArrayCharacterizationSpec spec;
  spec.array.n = n;
  spec.pattern = pattern;
  return spec;
}

/// The /v1/analyze handler's configuration (serve/server.cpp).
AnalyzerConfig serveAnalyzeConfig(std::shared_ptr<StressPrimitiveStore> store) {
  AnalyzerConfig config;
  config.viaArraySize = 4;
  config.trials = kServeAnalyzeTrials;
  config.characterization.trials = 300;
  config.characterization.primitiveStore = std::move(store);
  config.tuneNominalIrDropFraction = 0.06;
  config.parallelism.threads = kServeSolverThreads;
  return config;
}

void runServe(std::uint64_t seed, double seconds, bool trace,
              const std::string& workDir, Record& rec) {
  const std::string storePath = workDir + "/serve_mix.primitives";
  const auto requests = makeRequests(seed);
  serve::ServerConfig cfg;
  cfg.listen = "127.0.0.1:0";
  cfg.workers = kServeWorkers;
  cfg.parallelism.threads = kServeSolverThreads;
  cfg.primitiveStorePath = storePath;

  // Set-up: warm the stress-primitive store (FEA for every n × pattern the
  // stream asks for) and start the server.
  std::unique_ptr<serve::ViaductServer> server;
  std::vector<std::unique_ptr<serve::ViaductServer>> earlier;
  const auto setUpOnce = [&] {
    if (server) earlier.push_back(std::move(server));  // stopped below
    std::remove(storePath.c_str());
    auto store = std::make_shared<StressPrimitiveStore>(storePath);
    for (int n = 2; n <= 4; ++n) {
      for (const auto p : {IntersectionPattern::kPlus, IntersectionPattern::kT,
                           IntersectionPattern::kL}) {
        auto spec = serveSpec(n, p);
        spec.primitiveStore = store;
        spec.parallelism.threads = kSolverThreads;
        ScopedSpan s("fea.solve");
        ViaArrayCharacterizer prefill(spec);
      }
    }
    std::string error;
    server = serve::ViaductServer::start(cfg, &error);
    if (!server) throw std::runtime_error("server start: " + error);
  };
  if (trace) gTracer.setEnabled(true);
  repeatSetUp(rec, setUpOnce);
  gTracer.setEnabled(false);
  for (auto& e : earlier) e->drainAndStop();
  earlier.clear();

  const auto countersBefore = readCounters();
  const auto statsBefore = server->stats();
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::vector<Response> responses;
  const int port = server->port();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&] {
      std::vector<Response> mine;
      while (Clock::now() < deadline) {
        const std::size_t i = next.fetch_add(1);
        if (i >= requests.size()) break;
        const auto& r = requests[i];
        const auto t = Clock::now();
        const auto http = serve::httpRequest(
            "127.0.0.1", port, "POST",
            r.analyze ? "/v1/analyze" : "/v1/characterize", r.body, 60000);
        Response resp;
        resp.index = i;
        resp.ms = 1e3 * secondsSince(t);
        if (http) {
          resp.status = http->status;
          resp.body = http->body;
        }
        mine.push_back(std::move(resp));
      }
      std::lock_guard<std::mutex> lock(mutex);
      for (auto& m : mine) responses.push_back(std::move(m));
    });
  }
  for (auto& t : clients) t.join();
  rec.measuredSeconds = secondsSince(start);
  const auto statsAfter = server->stats();
  const auto counters = counterDelta(countersBefore);
  server->drainAndStop();
  server.reset();

  // Gates: every response 200, identical results per key, no 429s.
  std::sort(responses.begin(), responses.end(),
            [](const Response& a, const Response& b) { return a.index < b.index; });
  std::map<std::string, serve::JsonObject> firstByKey;
  std::vector<double> analyzeMs, characterizeMs;
  std::optional<serve::JsonObject> analyzeFields;
  for (const auto& resp : responses) {
    const auto& req = requests[resp.index];
    ++rec.attempted;
    rec.latencyMs.push_back(resp.ms);
    (req.analyze ? analyzeMs : characterizeMs).push_back(resp.ms);
    bool ok = resp.status == 200;
    if (!ok) {
      rec.gate(false, "HTTP " + std::to_string(resp.status) + " for " + req.body);
    } else if (const auto fields = resultFields(resp.body); !fields) {
      rec.gate(false, "unparseable body for " + req.body);
      ok = false;
    } else {
      const auto [it, inserted] = firstByKey.emplace(req.body, *fields);
      if (!inserted && !sameFields(it->second, *fields)) {
        rec.gate(false, "duplicate key answered differently: " + req.body);
        ok = false;
      }
      if (req.analyze && !analyzeFields) analyzeFields = *fields;
    }
    if (!ok) ++rec.failed;
  }
  rec.completed = static_cast<int>(responses.size());
  for (const double ms : analyzeMs) rec.analyzeSeconds.push_back(ms / 1e3);
  const auto rejected = statsAfter.rejected - statsBefore.rejected;
  rec.gate(rejected == 0, "server rejected " + std::to_string(rejected) +
                              " requests under the closed loop");

  // Reference: /v1/analyze against the same analysis through the library
  // API, and a sample of fresh characterize keys against direct
  // characterization, both on the warm primitive store.
  auto store = std::make_shared<StressPrimitiveStore>(storePath);
  auto library = std::make_shared<ViaArrayLibrary>();
  const AnalyzerConfig aconfig = serveAnalyzeConfig(store);
  PowerGridEmAnalyzer analyzer(generatePgBenchmark(PgPreset::kPg1), aconfig,
                               library);
  const auto report = analyzer.analyze(kArrayCriterion, kSystemCriterion);
  if (analyzeFields) {
    const auto num = [&](const char* k) {
      const auto it = analyzeFields->find(k);
      return it == analyzeFields->end() ? -1.0 : it->second.number;
    };
    const bool ok = num("worstCaseYears") == report.worstCaseYears &&
                    num("medianYears") == report.medianYears &&
                    num("meanFailuresToBreach") == report.meanFailuresToBreach &&
                    num("discardedTrials") == 0 && num("salvagedTrials") == 0;
    rec.gate(ok, "/v1/analyze result differs from the library API's");
    if (!ok) {
      // Every analyze response shares the first's fields (checked above).
      rec.failed += static_cast<int>(analyzeMs.size());
    }
  }
  int sampled = 0;
  for (const auto& [key, fields] : firstByKey) {
    if (sampled >= 3 || fields.count("mu") == 0) continue;
    const auto req = serve::parseFlatObject(key);
    if (!req) continue;
    const std::string pattern = req->at("pattern").str;
    auto spec = serveSpec(static_cast<int>(req->at("n").number),
                          pattern == "T"   ? IntersectionPattern::kT
                          : pattern == "L" ? IntersectionPattern::kL
                                           : IntersectionPattern::kPlus);
    spec.trials = static_cast<int>(req->at("trials").number);
    spec.seed = static_cast<std::uint64_t>(req->at("seed").number);
    spec.primitiveStore = store;
    spec.parallelism.threads = kServeSolverThreads;
    auto ch = library->get(spec);
    const auto fit = ch->ttfLognormal(kArrayCriterion);
    const auto cdf = ch->ttfCdf(kArrayCriterion);
    const bool ok = fields.at("mu").number == fit.mu() &&
                    fields.at("sigma").number == fit.sigma() &&
                    fields.at("medianYears").number == cdf.median() / units::year;
    rec.gate(ok, "/v1/characterize result differs from the library API's: " + key);
    if (!ok) ++rec.failed;
    ++sampled;
  }

  if (!trace) return;

  // Traced: the server's own counters and latency histograms, plus the
  // layers of one /v1/analyze computed through the library API.
  const double executed = static_cast<double>(statsAfter.executed - statsBefore.executed);
  const double deduped = static_cast<double>(statsAfter.deduped - statsBefore.deduped);
  rec.layerValues["serve.executed"] = executed;
  rec.layerValues["serve.rejected"] = static_cast<double>(rejected);
  rec.layerValues["serve.dedup_ratio"] =
      deduped / std::max(1.0, static_cast<double>(rec.completed));
  const auto snap = obs::Registry::instance().snapshot();
  for (const auto& [name, h] : snap.histograms) {
    if (name == "serve.latency.characterize")
      rec.layerValues["serve.characterize_p50_ms"] =
          1e3 * obs::histogramQuantile(h, 0.5);
    if (name == "serve.latency.analyze")
      rec.layerValues["serve.analyze_p50_ms"] =
          1e3 * obs::histogramQuantile(h, 0.5);
  }
  for (const auto& [name, v] : counters) rec.layerValues[name] = v;

  const Netlist pg1 = generatePgBenchmark(PgPreset::kPg1);
  gTracer.setEnabled(true);
  const std::string pg1Text = writeSpiceString(pg1);
  rec.netlistMb = static_cast<double>(pg1Text.size()) / 1e6;
  {
    ScopedSpan s("spice.parse");
    parseSpiceString(pg1Text);
  }
  probeLayers(pg1, aconfig, rec);
  gTracer.setEnabled(false);

  // Tracing overhead: analyze() against its traced decomposition on the
  // same warm library.
  std::vector<double> plain, traced, layerTime;
  const auto first = outcomeOf(report);
  for (int rep = 0; rep < kServeTracedAnalyses; ++rep) {
    auto t = Clock::now();
    const auto o = outcomeOf(analyzer.analyze(kArrayCriterion, kSystemCriterion));
    plain.push_back(secondsSince(t));
    gTracer.setEnabled(true);
    t = Clock::now();
    const auto tracedOutcome = tracedAnalyze(analyzer, aconfig, Level1::kLibrary);
    traced.push_back(secondsSince(t));
    gTracer.setEnabled(false);
    layerTime.push_back(gTracer.lastChildTime("analyze"));
    ++rec.attempted;
    if (o.digest != first.digest || tracedOutcome.digest != first.digest) {
      rec.gate(false, "traced analysis differs from /v1/analyze's");
      ++rec.failed;
    }
  }
  rec.layerValues["trace_overhead_frac"] = median(traced) / median(plain) - 1.0;
  recordCoverage(layerTime, plain, rec);
  // Level-1 Monte Carlo as a fresh-seed /v1/characterize runs it: a fresh
  // library on the warm primitive store, so no FEA.
  {
    PowerGridEmAnalyzer fresh(pg1, aconfig, std::make_shared<ViaArrayLibrary>());
    gTracer.setEnabled(true);
    const auto o = tracedAnalyze(fresh, aconfig, Level1::kStore);
    gTracer.setEnabled(false);
    ++rec.attempted;
    if (o.digest != first.digest) {
      rec.gate(false, "store-backed traced analysis differs from /v1/analyze's");
      ++rec.failed;
    }
  }
  rec.layerValues["em.mortal_configs"] = 0.0;
  rec.layerValues["grid_mc.trials"] = aconfig.trials;
  rec.layerValues["viaarray.trials"] = aconfig.characterization.trials;
}

// ------------------------------------------------------------ fingerprint

int onlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::string fingerprintJson(const std::string& workload) {
  const bool serve = workload == "serve_mix";
  const int solver = serve ? kServeSolverThreads : solverThreads(workload);
  const int threads = serve ? kServeWorkers * solver : solver;
  const int nproc = onlineCpus();
  std::ostringstream os;
  os << "{\"nproc\":" << nproc << ",\"hardware_concurrency\":"
     << std::thread::hardware_concurrency()
     << ",\"compiler\":" << jsonString(PERFBENCH_COMPILER)
     << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
     << ",\"solver_threads\":" << solver
     << ",\"server_workers\":" << (serve ? kServeWorkers : 0)
     << ",\"client_connections\":" << (serve ? kServeClients : 0)
     << ",\"threads_used\":" << threads
     << ",\"inconclusive\":" << (threads > nproc ? "true" : "false") << "}";
  return os.str();
}

// ------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string workDir = ".";
  std::string reference;
  int emitReference = 0;
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--work-dir") a.workDir = value;
    else if (flag == "--reference") a.reference = value;
    else if (flag == "--emit-reference") a.emitReference = std::stoi(value);
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (a.workload != "pg1_cold" && a.workload != "pg5_warm" &&
      a.workload != "mesh_audit" && a.workload != "serve_mix")
    throw std::runtime_error("unknown workload '" + a.workload + "'");
  return a;
}

std::string recordJson(const Args& a, const Record& rec) {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  std::ostringstream os;
  os << "{\"workload\":" << jsonString(a.workload) << ",\"seed\":" << a.seed
     << ",\"trace\":" << (a.trace ? "true" : "false")
     << ",\"fingerprint\":" << fingerprintJson(a.workload)
     << ",\"setup_s\":" << jsonList(rec.setupSeconds)
     << ",\"analyze_s\":" << jsonList(rec.analyzeSeconds)
     << ",\"latency_ms\":" << jsonList(rec.latencyMs)
     << ",\"measured_s\":" << serve::jsonNumber(rec.measuredSeconds)
     << ",\"completed\":" << rec.completed
     << ",\"peak_rss_mb\":" << serve::jsonNumber(static_cast<double>(usage.ru_maxrss) / 1024.0)
     << ",\"attempted\":" << rec.attempted << ",\"failed\":" << rec.failed
     << ",\"gate_failures\":[";
  for (std::size_t i = 0; i < rec.gateFailures.size(); ++i)
    os << (i ? "," : "") << jsonString(rec.gateFailures[i]);
  os << "],\"layer_samples\":{";
  bool firstEntry = true;
  for (const auto& [k, v] : rec.layerSamples) {
    os << (firstEntry ? "" : ",") << jsonString(k) << ":" << jsonList(v);
    firstEntry = false;
  }
  os << "},\"layer_values\":{";
  firstEntry = true;
  for (const auto& [k, v] : rec.layerValues) {
    os << (firstEntry ? "" : ",") << jsonString(k) << ":" << serve::jsonNumber(v);
    firstEntry = false;
  }
  os << "},\"netlist_mb\":" << serve::jsonNumber(rec.netlistMb) << "}";
  return os.str();
}

/// Reference TTFs of instances 0..count-1 (one JSON line each).
void emitReference(const std::string& workload, int count) {
  for (int i = 0; i < count; ++i) {
    const auto instance = static_cast<std::uint64_t>(i);
    BatchWorkload w = makeBatch(workload, instance);
    Prepared p = setUp(w);
    const auto o =
        outcomeOf(p.analyzer->analyze(kArrayCriterion, kSystemCriterion));
    std::cout << "{\"key\":" << jsonString(workload + "/" + std::to_string(i))
              << ",\"worst_case_years\":" << serve::jsonNumber(o.worstCaseYears)
              << ",\"median_years\":" << serve::jsonNumber(o.medianYears)
              << ",\"ok\":"
              << (o.discarded == 0 && o.salvaged == 0 ? "true" : "false")
              << "}" << std::endl;
  }
}

}  // namespace

int main(int argc, char** argv) {
  setLogLevel(LogLevel::kWarn);
  Args args;
  try {
    args = parseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
  try {
    if (args.emitReference > 0) {
      emitReference(args.workload, args.emitReference);
      return 0;
    }
    const std::uint64_t instance = args.seed % kInstances;
    Record rec;
    if (args.workload == "serve_mix") {
      runServe(args.seed, args.seconds, args.trace, args.workDir, rec);
    } else {
      const Reference ref =
          loadReference(args.reference, args.workload, instance);
      if (!ref.found)
        rec.gate(false, "no reference for " + args.workload + "/" +
                            std::to_string(instance) + " in " + args.reference);
      runBatch(makeBatch(args.workload, instance), args.seconds, args.trace,
               ref, rec);
    }
    if (args.trace) {
      for (const char* name :
           {"spice.parse", "grid.tune", "grid.model_build", "numerics.factor",
            "grid_mc.run", "fea.solve", "viaarray.mc", "em.tree_build",
            "em.audit", "core.bootstrap", "analyze", "setup"})
        rec.layerSamples[name] = gTracer.durations(name);
      const std::string path = args.workDir + "/spans-" + args.workload +
                               "-" + std::to_string(args.seed) + ".json";
      rec.gate(gTracer.write(path), "could not write spans to " + path);
    }
    std::cout << recordJson(args, rec) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << args.workload << " failed: "
              << e.what() << "\n";
    return 1;
  }
  return 0;
}
