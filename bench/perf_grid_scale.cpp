// PG-scale sweep of the level-2 grid engine (BENCH_grid_scale.json).
//
// For synthetic two-layer meshes from ~1e4 to ~1e6 nodes this measures, per
// size:
//   - the one-time shared base factorization (supernodal + AMD),
//   - the per-failure incremental update cost inside a Session,
//   - end-to-end grid Monte Carlo throughput with the shared base factor,
//   - the same Monte Carlo with sharedBaseFactor OFF (the legacy
//     factorization-per-trial architecture, given the same supernodal+AMD
//     backend — a charitable baseline), measured over fewer trials at the
//     large sizes and reported per-trial; `baseline_trials_measured` records
//     exactly how many trials the baseline number averages.
// It times one incidence column G0⁻¹·(e_i − e_j) per probe array both ways:
// the seeded, reach-limited SpdFactor::solveIncidence and the dense solve
// of e_i − e_j (medians over the probes), reports the share of the factor's
// panel entries the seeded forward sweep reads, and checks the two columns
// are bit-identical.
// It also counts the factored solves of the shared-base Monte Carlo per
// array failure (at most one incidence column each — none when the model's
// column cache already holds it — plus one per rebase; the fixed
// right-hand side reuses the model's cached base solution), reports the
// column cache's hit ratio, cross-checks
// healthy-grid voltages between up-looking+RCM and
// supernodal+AMD at the sizes where the banded factor is still tractable,
// and verifies the shared-base Monte Carlo is bit-identical across thread
// counts.
// It times Woodbury's x0 − Z·y pass (subtractScaledColumns) with the plain
// and, where the CPU has it, the AVX2 kernel over up to 1.5 MB of the
// model's incidence columns (woodbury_apply_gmac_per_s, with the kernel this CPU
// runs as woodbury_apply_kernel), and checks that a Session opening a
// sequence of arrays gives bit-identical voltages under both kernels.
//
// --smoke runs the smallest mesh only with reduced trial counts and asserts
// the parity, speedup, solves-per-failure, seeded-column and Woodbury-kernel
// bit-identity gates; tier-1 runs it on every commit.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/cli.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "grid/grid_mc.h"
#include "grid/mesh.h"
#include "grid/power_grid.h"
#include "grid/wire_mortality.h"
#include "numerics/supernodal_cholesky.h"
#include "numerics/woodbury.h"
#include "obs/obs.h"

using namespace viaduct;

namespace {

struct Point {
  Index targetNodes = 0;
  Index nodes = 0;
  std::size_t viaArrays = 0;
  std::size_t factorNnz = 0;
  double fillRatio = 0.0;
  double factorSeconds = 0.0;
  double perFailureSeconds = 0.0;
  // One incidence column per probe array: seeded (reach-limited) and dense
  // solve times, medians over the probes; the median share of panel
  // entries the seeded forward sweep reads; and whether every seeded
  // column was bit-identical to its dense solve.
  double incidenceSeededMs = 0.0;
  double incidenceDenseMs = 0.0;
  double forwardReachFraction = 0.0;
  bool incidenceBitIdentical = true;
  int sharedTrials = 0;
  double sharedSecondsPerTrial = 0.0;
  int baselineTrialsMeasured = 0;
  double baselineSecondsPerTrial = 0.0;
  double speedup = 0.0;
  // Shared-base Monte Carlo: array failures, Woodbury rebases, factored
  // (triangular) solves per failure, and the share of incidence columns
  // read from the model's column cache, from the obs counters.
  std::uint64_t mcFailures = 0;
  std::uint64_t mcRebases = 0;
  double solvesPerFailure = 0.0;
  double columnHitRatio = 0.0;
  double parityMaxRelDiff = -1.0;  // -1: not measured at this size
  // Woodbury x0 − Z·y pass: multiply-adds per second for each kernel (the
  // AVX2 one -1 when this CPU lacks AVX2) over `applyColumns` columns, the
  // kernel production runs here, and whether a Session's voltages after
  // each of a sequence of opens were bit-identical under both kernels.
  double applyGmacPlain = 0.0;
  double applyGmacAvx2 = -1.0;
  int applyColumns = 0;
  int applyKernel = 0;
  bool applyKernelsIdentical = true;
  bool deterministicAcrossThreads = true;
  // EM-mode axis (DESIGN.md §5.14): the wire-EM audit is diagnostic-only,
  // so TTF samples must be bit-identical across steady/transient/hybrid
  // (and audit-off), and hybrid must agree with transient on every verdict.
  int emTrials = 0;  // 0: axis not run at this size
  bool emSamplesIdentical = true;
  bool emVerdictIdentical = true;
  int emMortalConfigs = 0;
};

double seconds(const std::chrono::steady_clock::time_point& start) {
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - start;
  return dt.count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The via arrays the per-failure and incidence-column probes open: up to
/// eight, spread evenly over the model's sites.
std::vector<int> probeArrays(const PowerGridModel& model) {
  const int count = static_cast<int>(model.viaArrays().size());
  const int probes = std::min(8, count);
  std::vector<int> arrays;
  for (int f = 0; f < probes; ++f) arrays.push_back(f * count / probes);
  return arrays;
}

/// Times the seeded and the dense incidence-column solve on the model's
/// supernodal base factor for every probe array, and checks their bits.
void measureIncidenceSolves(const PowerGridModel& model, Point& p) {
  const auto& factor =
      dynamic_cast<const SupernodalCholesky&>(*model.baseFactor());
  constexpr int kRepeats = 3;
  std::vector<double> seededMs;
  std::vector<double> denseMs;
  std::vector<double> reach;
  for (const int array : probeArrays(model)) {
    const ViaArraySite& site = model.viaArrays()[array];
    std::vector<double> seededTimes;
    std::vector<double> denseTimes;
    for (int r = 0; r < kRepeats; ++r) {
      auto t0 = std::chrono::steady_clock::now();
      const std::vector<double> seeded = factor.solveIncidence(site.a, site.b);
      seededTimes.push_back(1e3 * seconds(t0));
      t0 = std::chrono::steady_clock::now();
      std::vector<double> a(static_cast<std::size_t>(factor.size()), 0.0);
      a[static_cast<std::size_t>(site.a)] = 1.0;
      a[static_cast<std::size_t>(site.b)] = -1.0;
      const std::vector<double> dense = factor.solve(a);
      denseTimes.push_back(1e3 * seconds(t0));
      if (std::memcmp(seeded.data(), dense.data(),
                      dense.size() * sizeof(double)) != 0)
        p.incidenceBitIdentical = false;
    }
    seededMs.push_back(median(seededTimes));
    denseMs.push_back(median(denseTimes));
    reach.push_back(factor.forwardReachFraction(site.a, site.b));
  }
  p.incidenceSeededMs = median(seededMs);
  p.incidenceDenseMs = median(denseMs);
  p.forwardReachFraction = median(reach);
}

/// Times subtractScaledColumns with each kernel over the incidence columns
/// of up to 64 arrays, as many as fit in 1.5 MB (PG5's ~90 pending columns
/// of 2048 nodes, so the pass runs from cache as it does there), and
/// compares a Session's
/// voltages under the two kernels after each of a sequence of opens.
void measureApplyKernels(const PowerGridModel& model, Point& p) {
  const std::size_t n = static_cast<std::size_t>(model.unknownCount());
  const int arrays = static_cast<int>(model.viaArrays().size());
  const int k = std::clamp(static_cast<int>((std::size_t{3} << 19) / 8 / n),
                           1, std::min(64, arrays));
  std::vector<std::vector<double>> z;
  std::vector<ScaledColumn> columns;
  for (int m = 0; m < k; ++m) {
    const ViaArraySite& site = model.viaArrays()[m * arrays / k];
    z.push_back(model.baseFactor()->solveIncidence(site.a, site.b));
    columns.push_back({z.back().data(), 1.0 / (m + 1.0)});
  }
  const std::vector<double> x0 = model.solveNominal().voltages;
  std::vector<double> x(n);
  const int reps =
      std::max(3, static_cast<int>(2e8 / (static_cast<double>(n) * k)));
  const auto gmac = [&](WoodburyKernel kernel) {
    subtractScaledColumns(kernel, x0, columns, x);  // warm the columns
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
      subtractScaledColumns(kernel, x0, columns, x);
    return static_cast<double>(n) * k * reps / seconds(t0) / 1e9;
  };
  p.applyColumns = k;
  p.applyKernel = static_cast<int>(WoodburySolver::applyKernel());
  p.applyGmacPlain = gmac(WoodburyKernel::kPlain);
  if (bestWoodburyKernel() != WoodburyKernel::kAvx2) return;
  p.applyGmacAvx2 = gmac(WoodburyKernel::kAvx2);

  const auto opens = [&](WoodburyKernel kernel) {
    WoodburySolver::setApplyKernelForTesting(kernel);
    PowerGridModel::Session session(model);
    std::vector<double> voltages;
    for (int m = 0; m < k; ++m) {
      session.openArray(m * arrays / k);
      const auto sol = session.solve();
      VIADUCT_CHECK(sol.solverOk);
      voltages.insert(voltages.end(), sol.voltages.begin(),
                      sol.voltages.end());
    }
    return voltages;
  };
  const std::vector<double> plain = opens(WoodburyKernel::kPlain);
  const std::vector<double> avx2 = opens(WoodburyKernel::kAvx2);
  WoodburySolver::setApplyKernelForTesting(bestWoodburyKernel());
  p.applyKernelsIdentical =
      plain.size() == avx2.size() &&
      std::memcmp(plain.data(), avx2.data(),
                  plain.size() * sizeof(double)) == 0;
}

GridMcOptions mcOptions(int trials, int maxFailures) {
  GridMcOptions opts;
  opts.arrayTtf = Lognormal(std::log(1.0e8), 0.5);
  opts.trials = trials;
  opts.seed = 2027;
  opts.maxFailuresPerTrial = maxFailures;
  return opts;
}

Point measure(Index targetNodes, int sharedTrials, int baselineTrials,
              int maxFailures, bool parity, bool threadSweep, int emTrials) {
  Point p;
  p.targetNodes = targetNodes;

  MeshSpec spec = meshSpecForNodeTarget(targetNodes);
  Netlist netlist = buildMeshNetlist(spec);

  PowerGridConfig config;
  config.gridSolver = SpdSolverKind::kSupernodal;
  config.gridOrdering = OrderingChoice::kAmd;
  // Healthy worst IR drop at 8% of Vdd: below the 10% failure criterion
  // with headroom that a handful of via-array opens can erase.
  tuneNominalIrDrop(netlist, 0.08, config);

  // Shared-base model; time the construction-embedded base factorization
  // by differencing against a factor-free build.
  auto t0 = std::chrono::steady_clock::now();
  PowerGridConfig noFactor = config;
  noFactor.sharedBaseFactor = false;
  const PowerGridModel stampOnly(netlist, noFactor);
  const double stampSeconds = seconds(t0);

  t0 = std::chrono::steady_clock::now();
  const PowerGridModel model(netlist, config);
  p.factorSeconds = std::max(0.0, seconds(t0) - stampSeconds);
  p.nodes = model.unknownCount();
  p.viaArrays = model.viaArrays().size();
  p.factorNnz = model.baseFactor()->factorNonZeroCount();
  p.fillRatio = static_cast<double>(p.factorNnz) /
                (static_cast<double>(model.conductanceMatrix().nonZeroCount() +
                                     model.conductanceMatrix().rows()) /
                 2.0);

  // Healthy-solve parity against the legacy up-looking+RCM pipeline.
  if (parity) {
    PowerGridConfig legacy;  // uplooking + rcm + shared base
    const PowerGridModel legacyModel(netlist, legacy);
    const auto a = model.solveNominal();
    const auto b = legacyModel.solveNominal();
    VIADUCT_CHECK(a.solverOk && b.solverOk);
    double maxRel = 0.0;
    for (std::size_t i = 0; i < a.voltages.size(); ++i) {
      const double scale =
          std::max({std::abs(a.voltages[i]), std::abs(b.voltages[i]), 1e-12});
      maxRel = std::max(maxRel,
                        std::abs(a.voltages[i] - b.voltages[i]) / scale);
    }
    p.parityMaxRelDiff = maxRel;
  }

  // Per-failure update cost: open a spread of arrays in one session.
  {
    PowerGridModel::Session session(model);
    const std::vector<int> arrays = probeArrays(model);
    t0 = std::chrono::steady_clock::now();
    for (const int array : arrays) {
      session.openArray(array);
      const auto sol = session.solve();
      VIADUCT_CHECK(sol.solverOk);
    }
    p.perFailureSeconds = seconds(t0) / static_cast<double>(arrays.size());
  }
  measureIncidenceSolves(model, p);
  measureApplyKernels(model, p);

  // End-to-end Monte Carlo, shared base.
  auto& registry = obs::Registry::instance();
  auto& solveCounter = registry.counter("cholesky.triangular_solves");
  auto& failureCounter = registry.counter("grid_mc.array_failures");
  auto& rebaseCounter = registry.counter("woodbury.rebases");
  auto& hitCounter = registry.counter("woodbury.column_cache_hits");
  auto& missCounter = registry.counter("woodbury.column_cache_misses");
  const std::uint64_t solves0 = solveCounter.value();
  const std::uint64_t failures0 = failureCounter.value();
  const std::uint64_t rebases0 = rebaseCounter.value();
  const std::uint64_t hits0 = hitCounter.value();
  const std::uint64_t misses0 = missCounter.value();
  const GridMcOptions shared = mcOptions(sharedTrials, maxFailures);
  t0 = std::chrono::steady_clock::now();
  GridMcResult sharedResult = runGridMonteCarlo(model, shared);
  p.sharedTrials = sharedTrials;
  p.sharedSecondsPerTrial = seconds(t0) / sharedTrials;
  p.mcFailures = failureCounter.value() - failures0;
  p.mcRebases = rebaseCounter.value() - rebases0;
  if (p.mcFailures > 0)
    p.solvesPerFailure = static_cast<double>(solveCounter.value() - solves0) /
                         static_cast<double>(p.mcFailures);
  const std::uint64_t hits = hitCounter.value() - hits0;
  const std::uint64_t lookups = hits + missCounter.value() - misses0;
  if (lookups > 0)
    p.columnHitRatio =
        static_cast<double>(hits) / static_cast<double>(lookups);

  // Baseline: identical physics, factorization per trial.
  const GridMcOptions base = mcOptions(baselineTrials, maxFailures);
  t0 = std::chrono::steady_clock::now();
  GridMcResult baseResult = runGridMonteCarlo(stampOnly, base);
  p.baselineTrialsMeasured = baselineTrials;
  p.baselineSecondsPerTrial = seconds(t0) / baselineTrials;
  p.speedup = p.baselineSecondsPerTrial / p.sharedSecondsPerTrial;

  // The two architectures must produce identical samples (same trials,
  // same solver backend — only the factor's ownership differs).
  const std::size_t common =
      std::min(sharedResult.ttfSamples.size(), baseResult.ttfSamples.size());
  for (std::size_t i = 0; i < common; ++i) {
    VIADUCT_CHECK_MSG(
        sharedResult.ttfSamples[i] == baseResult.ttfSamples[i],
        "shared-base and per-trial-factor Monte Carlo samples diverged");
  }

  // Bit-identity across thread counts (shared base, smallest sizes).
  if (threadSweep) {
    for (const int threads : {4, 8}) {
      GridMcOptions opts = shared;
      opts.parallelism.threads = threads;
      const GridMcResult result = runGridMonteCarlo(model, opts);
      if (result.ttfSamples != sharedResult.ttfSamples)
        p.deterministicAcrossThreads = false;
    }
  }

  // EM-mode axis: rerun a short Monte Carlo with the wire-EM audit in
  // every SignoffMode and demand bit-identical samples (the audit never
  // perturbs trial physics) and mode-identical verdict counts.
  if (emTrials > 0) {
    p.emTrials = emTrials;
    WireGeometry geometry;
    geometry.wirePrefixes = {"Rs1_", "Rs2_"};
    GridMcOptions opts = mcOptions(emTrials, maxFailures);
    const GridMcResult off = runGridMonteCarlo(model, opts);
    opts.wireEm.trees = WireTreeSet::build(netlist, geometry);
    int transientMortal = -1;
    for (const auto mode :
         {SignoffMode::kSteadyState, SignoffMode::kTransient,
          SignoffMode::kHybrid}) {
      opts.wireEm.mode = mode;
      const GridMcResult result = runGridMonteCarlo(model, opts);
      if (result.ttfSamples != off.ttfSamples) p.emSamplesIdentical = false;
      if (mode == SignoffMode::kTransient)
        transientMortal = result.wireMortalConfigs;
      if (mode == SignoffMode::kHybrid &&
          result.wireMortalConfigs != transientMortal)
        p.emVerdictIdentical = false;
      p.emMortalConfigs = result.wireMortalConfigs;
    }
  }
  return p;
}

void writePoint(std::ostream& os, const Point& p, bool last) {
  os << "    {\"target_nodes\": " << p.targetNodes
     << ", \"nodes\": " << p.nodes << ", \"via_arrays\": " << p.viaArrays
     << ", \"factor_nnz\": " << p.factorNnz
     << ", \"fill_ratio\": " << p.fillRatio
     << ", \"factor_seconds\": " << p.factorSeconds
     << ", \"per_failure_update_seconds\": " << p.perFailureSeconds
     << ", \"incidence_solve_ms\": {\"seeded\": " << p.incidenceSeededMs
     << ", \"dense\": " << p.incidenceDenseMs << "}"
     << ", \"forward_reach_fraction\": " << p.forwardReachFraction
     << ", \"incidence_bit_identical\": "
     << (p.incidenceBitIdentical ? "true" : "false")
     << ", \"shared_trials\": " << p.sharedTrials
     << ", \"shared_seconds_per_trial\": " << p.sharedSecondsPerTrial
     << ", \"baseline_trials_measured\": " << p.baselineTrialsMeasured
     << ", \"baseline_seconds_per_trial\": " << p.baselineSecondsPerTrial
     << ", \"end_to_end_speedup\": " << p.speedup
     << ", \"mc_array_failures\": " << p.mcFailures
     << ", \"mc_rebases\": " << p.mcRebases
     << ", \"solves_per_failure\": " << p.solvesPerFailure
     << ", \"column_hit_ratio\": " << p.columnHitRatio
     << ", \"parity_max_rel_diff\": " << p.parityMaxRelDiff
     << ", \"woodbury_apply_gmac_per_s\": {\"plain\": " << p.applyGmacPlain
     << ", \"avx2\": ";
  if (p.applyGmacAvx2 >= 0.0)
    os << p.applyGmacAvx2;
  else
    os << "null";
  os << "}, \"woodbury_apply_columns\": " << p.applyColumns
     << ", \"woodbury_apply_kernel\": " << p.applyKernel
     << ", \"woodbury_kernels_identical\": "
     << (p.applyKernelsIdentical ? "true" : "false")
     << ", \"deterministic_across_threads\": "
     << (p.deterministicAcrossThreads ? "true" : "false")
     << ", \"em_mode_trials\": " << p.emTrials
     << ", \"em_samples_identical\": "
     << (p.emSamplesIdentical ? "true" : "false")
     << ", \"em_verdict_identical\": "
     << (p.emVerdictIdentical ? "true" : "false")
     << ", \"em_mortal_configs\": " << p.emMortalConfigs << "}"
     << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_grid_scale.json";
  CliFlags flags("perf_grid_scale: level-2 engine scaling sweep");
  flags.addBool("smoke", &smoke,
                "smallest mesh only, reduced trials (tier-1 gate)");
  flags.addString("out", &out, "JSON report path");
  if (!flags.parse(argc, argv)) return 0;
  // kError, not the usual kWarn: the bench caps failures per trial on
  // purpose (uniform per-trial work), and trials that reach the cap without
  // breaching the IR criterion WARN by design — that expected chatter would
  // drown the measurements (and trip tier-1's WARN scan).
  setLogLevel(LogLevel::kError);

  std::cout << "=== perf_grid_scale: shared-base supernodal level-2 engine ==="
            << (smoke ? " [smoke]" : "") << "\n";

  std::vector<Point> points;
  if (smoke) {
    points.push_back(measure(/*targetNodes=*/10000, /*sharedTrials=*/12,
                             /*baselineTrials=*/6, /*maxFailures=*/3,
                             /*parity=*/true, /*threadSweep=*/true,
                             /*emTrials=*/3));
  } else {
    points.push_back(measure(10000, 40, 20, 4, true, true, 6));
    points.push_back(measure(100000, 20, 8, 4, true, false, 3));
    points.push_back(measure(1000000, 10, 2, 4, false, false, 0));
    points.push_back(measure(2000000, 6, 2, 3, false, false, 2));
  }

  for (const Point& p : points) {
    std::cout << "  n=" << p.nodes << " (" << p.viaArrays
              << " arrays): factor " << p.factorSeconds << " s, nnz(L) "
              << p.factorNnz << ", per-failure " << p.perFailureSeconds
              << " s, trial " << p.sharedSecondsPerTrial << " s vs baseline "
              << p.baselineSecondsPerTrial << " s ("
              << p.baselineTrialsMeasured << " trials) -> speedup "
              << p.speedup << "x, " << p.solvesPerFailure
              << " solves/failure, column hit ratio " << p.columnHitRatio
              << ", incidence column " << p.incidenceSeededMs
              << " ms seeded vs " << p.incidenceDenseMs << " ms dense (reach "
              << p.forwardReachFraction << "), x0-Z*y " << p.applyGmacPlain
              << " GMAC/s plain vs " << p.applyGmacAvx2 << " AVX2 (k="
              << p.applyColumns << ", kernel " << p.applyKernel << ")";
    if (p.parityMaxRelDiff >= 0.0)
      std::cout << ", parity " << p.parityMaxRelDiff;
    std::cout << "\n";
  }

  std::ofstream os(out);
  if (!os) {
    std::cerr << "cannot create " << out << "\n";
    return 1;
  }
  os << "{\n  \"smoke\": " << (smoke ? "true" : "false")
     << ",\n  \"hardware_concurrency\": "
     << ThreadPool::hardwareConcurrency()
     << ",\n  \"solver\": \"supernodal+amd\",\n  \"baseline\": "
        "\"factorization-per-trial, supernodal+amd\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i)
    writePoint(os, points[i], i + 1 == points.size());
  os << "  ],\n  \"largest_mesh_speedup\": " << points.back().speedup
     << "\n}\n";
  std::cout << "wrote " << out << "\n";

  // Gates. Parity everywhere it was measured; a conservative speedup floor
  // in smoke mode, the paper-level 5x floor for the full sweep's largest
  // mesh; determinism wherever the thread sweep ran; at most one factored
  // solve per array failure plus one per rebase; seeded incidence columns
  // bit-identical to the dense solve at every size.
  bool pass = true;
  for (const Point& p : points) {
    const double solveBudget =
        p.mcFailures > 0 ? 1.0 + static_cast<double>(p.mcRebases) /
                                     static_cast<double>(p.mcFailures)
                         : 0.0;
    if (p.mcFailures == 0 || p.solvesPerFailure > solveBudget) {
      std::cerr << "FAIL: " << p.solvesPerFailure
                << " factored solves per array failure (budget "
                << solveBudget << ", " << p.mcFailures
                << " failures counted) at n=" << p.nodes << "\n";
      pass = false;
    }
    if (!p.incidenceBitIdentical) {
      std::cerr << "FAIL: a seeded incidence column differs from its dense "
                   "solve at n="
                << p.nodes << "\n";
      pass = false;
    }
    if (!p.applyKernelsIdentical) {
      std::cerr << "FAIL: Session voltages differ between the plain and AVX2 "
                   "Woodbury kernels at n="
                << p.nodes << "\n";
      pass = false;
    }
    if (p.parityMaxRelDiff > 1e-10) {
      std::cerr << "FAIL: uplooking/supernodal parity " << p.parityMaxRelDiff
                << " at n=" << p.nodes << "\n";
      pass = false;
    }
    if (!p.deterministicAcrossThreads) {
      std::cerr << "FAIL: samples differ across thread counts at n="
                << p.nodes << "\n";
      pass = false;
    }
    if (!p.emSamplesIdentical) {
      std::cerr << "FAIL: samples differ across EM modes at n=" << p.nodes
                << "\n";
      pass = false;
    }
    if (!p.emVerdictIdentical) {
      std::cerr << "FAIL: hybrid and transient wire verdicts disagree at n="
                << p.nodes << "\n";
      pass = false;
    }
  }
  const double speedupFloor = smoke ? 1.3 : 5.0;
  if (points.back().speedup < speedupFloor) {
    std::cerr << "FAIL: largest-mesh speedup " << points.back().speedup
              << "x below the " << speedupFloor << "x floor\n";
    pass = false;
  }
  return pass ? 0 : 1;
}
