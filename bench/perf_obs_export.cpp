// Telemetry overhead + bit-identity gate (BENCH_obs_export.json).
//
// Runs the level-2 grid Monte Carlo on a ~1e4-node synthetic mesh twice per
// repeat — obs disabled vs. obs fully live (registry enabled, background
// JSONL sampler, HTTP listener, and a scraper thread hammering /metrics the
// whole time) — with the two configurations interleaved so drift hits both
// equally. It gates on:
//
//   - overhead: the live-telemetry per-trial cost over the obs-off cost,
//     min-of-N vs. min-of-N (min is the low-noise estimator for a fixed
//     workload), must stay under the budget (1%). One automatic retry with
//     doubled repeats before declaring failure, so a single noisy scheduler
//     hiccup does not fail CI.
//   - bit-identity: ttfSamples must be byte-for-byte identical across obs
//     on/off and across thread counts {1, 4} — telemetry must never touch
//     an RNG stream or reorder trial work.
//   - liveness: the scraper must have served real OpenMetrics scrapes
//     (terminated with "# EOF") and the sampler must have written samples.
//
// --smoke shrinks trials/repeats for the tier-1 gate; the gates themselves
// are identical.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/cli.h"
#include "common/logging.h"
#include "grid/grid_mc.h"
#include "grid/mesh.h"
#include "grid/power_grid.h"
#include "obs/obs.h"
#include "obs/sampler.h"
#include "serve/protocol.h"

using namespace viaduct;

namespace {

struct Report {
  Index nodes = 0;
  int trials = 0;
  int repeats = 0;  // repeats actually used (after any retry)
  double offSecondsPerTrial = 0.0;
  double onSecondsPerTrial = 0.0;
  double overheadPercent = 0.0;
  std::uint64_t scrapesServed = 0;
  std::uint64_t samplerSamples = 0;
  bool scrapesValid = true;
  bool bitIdenticalObsOnOff = true;
  bool deterministicAcrossThreads = true;
};

double seconds(const std::chrono::steady_clock::time_point& start) {
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - start;
  return dt.count();
}

GridMcOptions mcOptions(int trials, int threads) {
  GridMcOptions opts;
  opts.arrayTtf = Lognormal(std::log(1.0e8), 0.5);
  opts.trials = trials;
  opts.seed = 2027;
  opts.maxFailuresPerTrial = 3;
  opts.parallelism.threads = threads;
  return opts;
}

double timedRun(const PowerGridModel& model, const GridMcOptions& opts,
                std::vector<double>* samples) {
  const auto t0 = std::chrono::steady_clock::now();
  GridMcResult result = runGridMonteCarlo(model, opts);
  const double dt = seconds(t0);
  if (samples) *samples = std::move(result.ttfSamples);
  return dt / opts.trials;
}

/// One obs-live measurement: registry on, sampler streaming, HTTP server
/// up, and a scraper thread pulling /metrics continuously for the whole
/// run. Startup/teardown stays outside the timed region.
double timedRunLive(const PowerGridModel& model, const GridMcOptions& opts,
                    const std::string& streamPath, Report* report,
                    std::vector<double>* samples) {
  obs::setEnabled(true);
  obs::resetAll();

  std::string error;
  auto server = serve::startTelemetryListener("127.0.0.1:0", &error);
  VIADUCT_CHECK_MSG(server != nullptr, "telemetry server failed to start");
  auto sampler = obs::MetricsSampler::start(streamPath, 0.25, &error);
  VIADUCT_CHECK_MSG(sampler != nullptr, "metrics sampler failed to start");

  // The scraper polls at ~20 Hz — already two orders of magnitude hotter
  // than a real Prometheus scrape interval (seconds), while still landing
  // several in-flight scrapes inside each timed window.
  std::atomic<bool> stopScraper{false};
  std::uint64_t scrapes = 0;
  bool scrapesValid = true;
  const int port = server->port();
  std::thread scraper([&] {
    while (!stopScraper.load(std::memory_order_relaxed)) {
      const auto response =
          serve::httpRequest("127.0.0.1", port, "GET", "/metrics", "");
      if (response) {
        ++scrapes;
        if (response->status != 200 ||
            response->body.find("# EOF") == std::string::npos)
          scrapesValid = false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  const double perTrial = timedRun(model, opts, samples);

  stopScraper.store(true);
  scraper.join();
  report->scrapesServed += scrapes;
  report->scrapesValid = report->scrapesValid && scrapesValid && scrapes > 0;
  report->samplerSamples += sampler->samplesWritten();
  sampler.reset();
  server.reset();
  obs::setEnabled(false);
  return perTrial;
}

double minOf(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

/// Interleaved off/on repeats; fills the timing half of the report and
/// returns the measured overhead percentage (min-vs-min).
double measureOverhead(const PowerGridModel& model, int trials, int repeats,
                       const std::string& streamPath, Report* report) {
  const GridMcOptions opts = mcOptions(trials, /*threads=*/0);
  std::vector<double> off, on;
  for (int r = 0; r < repeats; ++r) {
    // ABBA ordering: alternate which configuration goes first so monotone
    // drift (frequency scaling, cache warm-up) cannot credit either side.
    for (const int leg : {0, 1}) {
      if ((r + leg) % 2 == 0) {
        obs::setEnabled(false);
        off.push_back(timedRun(model, opts, nullptr));
      } else {
        on.push_back(timedRunLive(model, opts, streamPath, report, nullptr));
      }
    }
  }
  report->trials = trials;
  report->repeats += repeats;
  report->offSecondsPerTrial = minOf(off);
  report->onSecondsPerTrial = minOf(on);
  return (report->onSecondsPerTrial / report->offSecondsPerTrial - 1.0) *
         100.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_obs_export.json";
  CliFlags flags("perf_obs_export: live-telemetry overhead and bit-identity");
  flags.addBool("smoke", &smoke, "reduced trials/repeats (tier-1 gate)");
  flags.addString("out", &out, "JSON report path");
  if (!flags.parse(argc, argv)) return 0;
  // kError for the same reason as perf_grid_scale: trials that hit the
  // failure cap WARN by design, and that chatter would drown the numbers.
  setLogLevel(LogLevel::kError);

  const int trials = smoke ? 64 : 192;
  const int repeats = smoke ? 4 : 6;
  const double budgetPercent = 1.0;
  const std::string streamPath =
      "perf_obs_export_stream_" + std::to_string(::getpid()) + ".jsonl";

  std::cout << "=== perf_obs_export: telemetry overhead + bit-identity ==="
            << (smoke ? " [smoke]" : "") << "\n";

  const MeshSpec spec = meshSpecForNodeTarget(10000);
  Netlist netlist = buildMeshNetlist(spec);
  PowerGridConfig config;
  config.gridSolver = SpdSolverKind::kSupernodal;
  config.gridOrdering = OrderingChoice::kAmd;
  tuneNominalIrDrop(netlist, 0.08, config);
  const PowerGridModel model(netlist, config);

  Report report;
  report.nodes = model.unknownCount();

  // Bit-identity: reference samples with obs off at the default thread
  // count, then every telemetry/thread variation must reproduce them.
  obs::setEnabled(false);
  std::vector<double> reference;
  timedRun(model, mcOptions(trials, 0), &reference);  // also a warm-up
  for (const int threads : {1, 4}) {
    std::vector<double> offSamples, onSamples;
    obs::setEnabled(false);
    timedRun(model, mcOptions(trials, threads), &offSamples);
    timedRunLive(model, mcOptions(trials, threads), streamPath, &report,
                 &onSamples);
    if (onSamples != offSamples) report.bitIdenticalObsOnOff = false;
    if (offSamples != reference) report.deterministicAcrossThreads = false;
  }

  // Overhead, with one automatic doubled-repeats retry before failing.
  report.overheadPercent =
      measureOverhead(model, trials, repeats, streamPath, &report);
  if (report.overheadPercent > budgetPercent) {
    std::cout << "  overhead " << report.overheadPercent
              << "% over budget; retrying with " << 2 * repeats
              << " repeats\n";
    report.overheadPercent =
        measureOverhead(model, trials, 2 * repeats, streamPath, &report);
  }
  std::remove(streamPath.c_str());

  std::cout << "  n=" << report.nodes << ", " << report.trials
            << " trials x " << report.repeats << " repeats: off "
            << report.offSecondsPerTrial << " s/trial, live "
            << report.onSecondsPerTrial << " s/trial -> overhead "
            << report.overheadPercent << "% (budget " << budgetPercent
            << "%), " << report.scrapesServed << " scrapes, "
            << report.samplerSamples << " stream samples\n";

  std::ofstream os(out);
  if (!os) {
    std::cerr << "cannot create " << out << "\n";
    return 1;
  }
  os << "{\n  \"smoke\": " << (smoke ? "true" : "false")
     << ",\n  \"nodes\": " << report.nodes
     << ",\n  \"trials\": " << report.trials
     << ",\n  \"repeats\": " << report.repeats
     << ",\n  \"off_seconds_per_trial\": " << report.offSecondsPerTrial
     << ",\n  \"live_seconds_per_trial\": " << report.onSecondsPerTrial
     << ",\n  \"overhead_percent\": " << report.overheadPercent
     << ",\n  \"budget_percent\": " << budgetPercent
     << ",\n  \"scrapes_served\": " << report.scrapesServed
     << ",\n  \"sampler_samples\": " << report.samplerSamples
     << ",\n  \"scrapes_valid\": " << (report.scrapesValid ? "true" : "false")
     << ",\n  \"bit_identical_obs_on_off\": "
     << (report.bitIdenticalObsOnOff ? "true" : "false")
     << ",\n  \"deterministic_across_threads\": "
     << (report.deterministicAcrossThreads ? "true" : "false");

  bool pass = true;
  if (!report.bitIdenticalObsOnOff) {
    std::cerr << "FAIL: ttfSamples differ between obs on and obs off\n";
    pass = false;
  }
  if (!report.deterministicAcrossThreads) {
    std::cerr << "FAIL: ttfSamples differ across thread counts\n";
    pass = false;
  }
  if (!report.scrapesValid) {
    std::cerr << "FAIL: scraper saw zero or malformed /metrics responses\n";
    pass = false;
  }
  if (report.samplerSamples == 0) {
    std::cerr << "FAIL: sampler wrote no JSONL samples\n";
    pass = false;
  }
  if (report.overheadPercent > budgetPercent) {
    std::cerr << "FAIL: live-telemetry overhead " << report.overheadPercent
              << "% exceeds the " << budgetPercent << "% budget\n";
    pass = false;
  }
  os << ",\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  std::cout << "wrote " << out << "\n";
  return pass ? 0 : 1;
}
