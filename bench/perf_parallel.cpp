// Parallel-scaling bench: wall-clock speedup and efficiency of the two
// deterministic parallel hot paths — the level-2 grid Monte Carlo and the
// multigrid FEA solve — at 1/2/4/N worker threads. Emits a machine-readable
// JSON report (BENCH_parallel.json) for CI trend tracking, and fails
// (nonzero exit) if any thread count changes the Monte Carlo samples:
// determinism across thread counts is part of the contract being measured.
// With a single hardware thread the speedups measure time-slicing, not
// scaling: the report then carries "conclusive": false and the summary says
// so (determinism is still checked).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/cli.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "fea/thermo_solver.h"
#include "grid/grid_mc.h"
#include "obs/obs.h"
#include "spice/generator.h"
#include "structures/cudd_builder.h"

using namespace viaduct;

namespace {

struct Sample {
  int threads = 0;
  double seconds = 0.0;
  double speedup = 0.0;     // vs the 1-thread run
  double efficiency = 0.0;  // speedup / threads
};

template <typename Fn>
double bestSeconds(int repeats, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, dt.count());
  }
  return best;
}

void fillDerived(std::vector<Sample>& samples) {
  const double base = samples.front().seconds;
  for (auto& s : samples) {
    s.speedup = base / s.seconds;
    s.efficiency = s.speedup / static_cast<double>(s.threads);
  }
}

void writeJsonSeries(std::ostream& os, const std::string& name,
                     const std::vector<Sample>& samples) {
  os << "  \"" << name << "\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    os << "    {\"threads\": " << s.threads << ", \"seconds\": " << s.seconds
       << ", \"speedup\": " << s.speedup
       << ", \"efficiency\": " << s.efficiency << "}"
       << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  os << "  ]";
}

}  // namespace

int main(int argc, char** argv) {
  int trials = 64;
  int stripes = 16;
  int repeats = 3;
  std::string out = "BENCH_parallel.json";
  CliFlags flags("perf_parallel: scaling of the deterministic parallel paths");
  flags.addInt("trials", &trials, "grid Monte Carlo trials per measurement");
  flags.addInt("stripes", &stripes, "power-grid stripes per direction");
  flags.addInt("repeats", &repeats, "repeats per point (best time kept)");
  flags.addString("out", &out, "JSON report path");
  if (!flags.parse(argc, argv)) return 0;
  setLogLevel(LogLevel::kWarn);

  // Thread counts 1, 2, 4, and N (hardware), deduplicated and sorted.
  std::vector<int> counts = {1, 2, 4, ThreadPool::hardwareConcurrency()};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  // One hardware thread cannot show parallel speedup; its timings must not
  // be read as a scaling result.
  const bool conclusive = ThreadPool::hardwareConcurrency() > 1;
  std::cout << "=== perf_parallel: deterministic scaling ("
            << ThreadPool::hardwareConcurrency() << " hardware threads) ===\n";

  // --- Workload 1: level-2 grid Monte Carlo ---
  GridGeneratorConfig gridCfg;
  gridCfg.stripesX = stripes;
  gridCfg.stripesY = stripes;
  gridCfg.seed = 23;
  Netlist netlist = generatePowerGrid(gridCfg);
  tuneNominalIrDrop(netlist, 0.06);
  const PowerGridModel model(netlist);

  GridMcOptions mcOpts;
  mcOpts.arrayTtf = Lognormal(std::log(1.0e8), 0.5);
  mcOpts.trials = trials;
  mcOpts.seed = 99;

  std::vector<Sample> mc;
  std::vector<double> referenceSamples;
  bool deterministic = true;
  for (const int t : counts) {
    mcOpts.parallelism.threads = t;
    GridMcResult result;
    const double secs =
        bestSeconds(repeats, [&] { result = runGridMonteCarlo(model, mcOpts); });
    if (referenceSamples.empty()) {
      referenceSamples = result.ttfSamples;
    } else if (result.ttfSamples != referenceSamples) {
      deterministic = false;
    }
    mc.push_back({.threads = t, .seconds = secs});
    std::cout << "  grid-mc  threads=" << t << "  " << secs << " s\n";
  }
  fillDerived(mc);

  // --- Workload 2: the FEA multigrid solve of a 4x4 via array. This routes
  // every CG matvec through the 27-point node-stencil operator and every
  // preconditioner application through the Chebyshev smoother, so it times
  // the stencil build + halo gather + stencil sweep + smoother recurrence
  // at each pool size. The displacement field must be bit-identical across
  // thread counts (fixed chunk layout + fixed-order per-node sums).
  ViaArrayStructureSpec feaSpec;
  feaSpec.resolutionXy = 0.125e-6;
  const BuiltStructure built = buildViaArrayStructure(feaSpec);

  std::vector<Sample> feaMg;
  std::vector<double> mgReference;
  bool feaMgIdentical = true;
  for (const int t : counts) {
    std::vector<double> field;
    const double secs = bestSeconds(repeats, [&] {
      ThermoSolverOptions opts;
      opts.parallelism.threads = t;
      ThermoSolver solver(built.grid, opts);
      const CgResult res = solver.solve();
      VIADUCT_CHECK_MSG(res.converged, "FEA multigrid solve did not converge");
      field.clear();
      for (Index k = 0; k <= built.grid.nz(); ++k)
        for (Index j = 0; j <= built.grid.ny(); ++j)
          for (Index i = 0; i <= built.grid.nx(); ++i) {
            const auto u = solver.displacement(i, j, k);
            field.insert(field.end(), u.begin(), u.end());
          }
    });
    if (mgReference.empty()) {
      mgReference = field;
    } else if (field != mgReference) {
      feaMgIdentical = false;
    }
    feaMg.push_back({.threads = t, .seconds = secs});
    std::cout << "  fea-mg   threads=" << t << "  " << secs << " s\n";
  }
  fillDerived(feaMg);

  // --- Observability overhead: grid MC with obs disabled vs enabled at the
  // highest thread count. The instrumentation budget is <1% wall clock; the
  // samples must also be bit-identical with obs on and off (telemetry may
  // never perturb the RNG streams or the trial math).
  const bool obsWasEnabled = obs::enabled();
  mcOpts.parallelism.threads = counts.back();
  obs::setEnabled(false);
  GridMcResult obsOffResult;
  const double obsOffSecs = bestSeconds(
      repeats, [&] { obsOffResult = runGridMonteCarlo(model, mcOpts); });
  obs::setEnabled(true);
  GridMcResult obsOnResult;
  const double obsOnSecs = bestSeconds(
      repeats, [&] { obsOnResult = runGridMonteCarlo(model, mcOpts); });
  obs::setEnabled(obsWasEnabled);
  const double obsOverheadPercent =
      obsOffSecs > 0.0 ? 100.0 * (obsOnSecs - obsOffSecs) / obsOffSecs : 0.0;
  const bool obsBitIdentical =
      obsOffResult.ttfSamples == obsOnResult.ttfSamples &&
      obsOnResult.ttfSamples == referenceSamples;
  std::cout << "  obs overhead: disabled " << obsOffSecs << " s, enabled "
            << obsOnSecs << " s (" << obsOverheadPercent << "%), samples "
            << (obsBitIdentical ? "bit-identical" : "DIFFER") << "\n";

  std::ofstream os(out);
  if (!os) {
    std::cerr << "cannot create " << out << "\n";
    return 1;
  }
  os << "{\n  \"hardware_concurrency\": " << ThreadPool::hardwareConcurrency()
     << ",\n  \"conclusive\": " << (conclusive ? "true" : "false")
     << ",\n  \"mc_trials\": " << trials
     << ",\n  \"deterministic_across_thread_counts\": "
     << (deterministic ? "true" : "false") << ",\n";
  writeJsonSeries(os, "grid_mc", mc);
  os << ",\n  \"fea_mg_bit_identical\": " << (feaMgIdentical ? "true" : "false")
     << ",\n";
  writeJsonSeries(os, "fea_mg", feaMg);
  os << ",\n  \"obs_overhead\": {\"threads\": " << counts.back()
     << ", \"seconds_disabled\": " << obsOffSecs
     << ", \"seconds_enabled\": " << obsOnSecs
     << ", \"overhead_percent\": " << obsOverheadPercent
     << ", \"bit_identical\": " << (obsBitIdentical ? "true" : "false")
     << "}\n}\n";
  std::cout << "wrote " << out << "\n";
  if (!conclusive) {
    std::cout << "inconclusive: 1 hardware thread, so the speedups above are "
                 "not a scaling result (\"conclusive\": false)\n";
  }

  if (!deterministic) {
    std::cerr << "FAIL: Monte Carlo samples differ across thread counts\n";
    return 1;
  }
  if (!obsBitIdentical) {
    std::cerr << "FAIL: Monte Carlo samples change when obs is toggled\n";
    return 1;
  }
  if (!feaMgIdentical) {
    std::cerr << "FAIL: FEA multigrid field differs across thread counts\n";
    return 1;
  }
  return 0;
}
