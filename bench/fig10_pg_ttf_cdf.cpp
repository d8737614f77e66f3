// Figure 10: percentile curves of the PG1 power-grid TTF with 4x4 (a) and
// 8x8 (b) via arrays, for the four combinations of {system: weakest-link,
// 10% IR-drop} x {via array: weakest-link, R=inf}. The paper reports the
// realistic (IR-drop) system criterion outliving weakest-link for any
// array criterion (the mesh tolerates failures), the R=inf array criterion
// outliving weakest-link, and the 8x8 grid outliving the 4x4 grid.
#include <iostream>

#include "bench_util.h"
#include "common/cli.h"
#include "common/logging.h"
#include "core/analyzer.h"
#include "spice/generator.h"

using namespace viaduct;

int main(int argc, char** argv) {
  int trials = 500;
  int charTrials = 500;
  int threads = 0;
  std::string csvDir;
  std::string cachePath;
  CliFlags flags("Figure 10: PG1 TTF percentile curves");
  flags.addString("cache", &cachePath,
                  "characterization cache file (shared across benches)");
  flags.addInt("trials", &trials, "grid Monte Carlo trials");
  flags.addInt("char-trials", &charTrials, "characterization trials");
  flags.addInt("threads", &threads,
               "worker threads (0 = hardware concurrency); results are "
               "identical for any value");
  flags.addString("csv-dir", &csvDir, "directory for CSV dumps");
  if (!flags.parse(argc, argv)) return 0;
  setLogLevel(LogLevel::kWarn);

  std::cout << "=== Figure 10: PG1 grid TTF percentile curves ===\n\n";
  std::cout << "Paper: IR-drop system criterion > weakest-link; R=inf array "
               "criterion > weakest-link; 8x8 > 4x4.\n\n";

  auto library = openViaArrayLibrary(cachePath);
  using AC = ViaArrayFailureCriterion;
  using SC = GridFailureCriterion;

  struct Curve {
    int n;
    std::string label;
    EmpiricalCdf cdf;
  };
  std::vector<Curve> curves;

  for (int n : {4, 8}) {
    AnalyzerConfig config;
    config.viaArraySize = n;
    config.trials = trials;
    config.characterization.trials = charTrials;
    config.parallelism.threads = threads;
    PowerGridEmAnalyzer analyzer(generatePgBenchmark(PgPreset::kPg1), config,
                                 library);
    std::cout << "--- PG1 with " << n << "x" << n << " via arrays (Figure 10"
              << (n == 4 ? "a" : "b") << ") ---\n";
    for (const auto& [sc, scName] :
         {std::pair{SC::weakestLink(), std::string("sys WL")},
          std::pair{SC::irDrop(0.10), std::string("sys 10% IR")}}) {
      for (const auto& [ac, acName] :
           {std::pair{AC::weakestLink(), std::string("array WL")},
            std::pair{AC::openCircuit(), std::string("array R=inf")}}) {
        const auto report = analyzer.analyze(ac, sc);
        const std::string label = scName + ", " + acName;
        curves.push_back({n, label, report.mc.cdf()});
        bench::printCdfRow(label, curves.back().cdf);
        if (!csvDir.empty()) {
          std::string file = label;
          for (char& c : file)
            if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
          bench::writeCdfCsv(
              csvDir + "/fig10_" + std::to_string(n) + "x_" + file + ".csv",
              curves.back().cdf, 1.0 / units::year, "ttf_years");
        }
      }
    }
    std::cout << "\n";
  }

  auto find = [&](int n, const std::string& label) -> const EmpiricalCdf& {
    for (const auto& c : curves)
      if (c.n == n && c.label == label) return c.cdf;
    throw InternalError("curve not found: " + label);
  };

  bench::ShapeChecks checks("Figure 10");
  for (int n : {4, 8}) {
    const auto& wlwl = find(n, "sys WL, array WL");
    const auto& wlinf = find(n, "sys WL, array R=inf");
    const auto& irwl = find(n, "sys 10% IR, array WL");
    const auto& irinf = find(n, "sys 10% IR, array R=inf");
    const std::string tag = std::to_string(n) + "x" + std::to_string(n);
    checks.check(tag + ": IR-drop criterion outlives weakest-link (median)",
                 irwl.median() > wlwl.median() &&
                     irinf.median() > wlinf.median());
    checks.check(tag + ": R=inf array criterion outlives weakest-link",
                 wlinf.median() > wlwl.median() &&
                     irinf.median() > irwl.median());
  }
  checks.check("8x8 outlives 4x4 under the realistic criteria (0.3%ile)",
               find(8, "sys 10% IR, array R=inf").worstCase() >
                   find(4, "sys 10% IR, array R=inf").worstCase());
  bench::writeMetricsArtifact(csvDir, "fig10");
  return checks.exitCode();
}
