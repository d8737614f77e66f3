// Table 2: worst-case (0.3rd-percentile) TTF in years for the PG1, PG2,
// and PG5 power-grid benchmarks (scaled-down stand-ins; see DESIGN.md §2)
// using 4x4 and 8x8 via arrays, under {system: weakest-link, 10% IR-drop}
// x {via array: weakest-link, R=inf}.
//
// Paper's values (years):
//             weakest-link sys      10% IR-drop sys
//             WL-array  Rinf-array  WL-array  Rinf-array
//   4x4 PG1     0.8       2.0         1.5       3.9
//   4x4 PG2     0.9       3.1         2.2       5.5
//   4x4 PG5     1.7       4.4         3.1      10.2
//   8x8 PG1     0.9       4.2         1.7       7.6
//   8x8 PG2     1.0       4.9         2.8       7.9
//   8x8 PG5     1.9       8.4         4.5      16.7
#include <iostream>
#include <map>

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
  std::string cachePath, csvDir;
  CliFlags flags("Table 2: worst-case TTF for PG benchmarks");
  flags.addString("cache", &cachePath,
                  "characterization cache file (shared across benches)");
  flags.addString("csv-dir", &csvDir, "directory for metrics artifacts");
  flags.addInt("trials", &trials, "grid Monte Carlo trials");
  flags.addInt("char-trials", &charTrials, "characterization trials");
  flags.addInt("threads", &threads,
               "worker threads (0 = hardware concurrency); results are "
               "identical for any value");
  if (!flags.parse(argc, argv)) return 0;
  setLogLevel(LogLevel::kWarn);

  std::cout << "=== Table 2: worst-case (0.3%ile) TTF [years] ===\n\n";

  auto library = openViaArrayLibrary(cachePath);
  using AC = ViaArrayFailureCriterion;
  using SC = GridFailureCriterion;
  const PgPreset presets[] = {PgPreset::kPg1, PgPreset::kPg2, PgPreset::kPg5};

  // results[n][preset] = {wl/wl, wl/inf, ir/wl, ir/inf}.
  std::map<int, std::map<std::string, std::array<double, 4>>> results;

  for (int n : {4, 8}) {
    std::cout << "--- worst-case TTF (years) when " << n << "x" << n
              << " via array used ---\n";
    TextTable table({"PG benchmark", "WL sys / WL array", "WL sys / R=inf",
                     "10% IR / WL array", "10% IR / R=inf"});
    for (const auto preset : presets) {
      AnalyzerConfig config;
      config.viaArraySize = n;
      config.trials = trials;
      config.characterization.trials = charTrials;
      config.parallelism.threads = threads;
      config.tuneNominalIrDropFraction =
          pgPresetConfig(preset).suggestedIrDropTarget;
      PowerGridEmAnalyzer analyzer(generatePgBenchmark(preset), config,
                                   library);
      std::array<double, 4> row{};
      int idx = 0;
      for (const auto& sc : {SC::weakestLink(), SC::irDrop(0.10)}) {
        for (const auto& ac : {AC::weakestLink(), AC::openCircuit()}) {
          row[idx++] = analyzer.analyze(ac, sc).worstCaseYears;
        }
      }
      results[n][pgPresetName(preset)] = row;
      table.addRow({pgPresetName(preset), TextTable::num(row[0], 2),
                    TextTable::num(row[1], 2), TextTable::num(row[2], 2),
                    TextTable::num(row[3], 2)});
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  bench::ShapeChecks checks("Table 2");
  for (int n : {4, 8}) {
    for (const auto preset : presets) {
      const auto& r = results[n][pgPresetName(preset)];
      const std::string tag =
          std::to_string(n) + "x/" + pgPresetName(preset);
      checks.check(tag + ": R=inf array criterion > weakest-link",
                   r[1] > r[0] && r[3] > r[2]);
      checks.check(tag + ": 10% IR system criterion > weakest-link",
                   r[2] > r[0] && r[3] > r[1]);
    }
  }
  for (const auto preset : presets) {
    const auto& r4 = results[4][pgPresetName(preset)];
    const auto& r8 = results[8][pgPresetName(preset)];
    checks.check(std::string(pgPresetName(preset)) +
                     ": 8x8 beats 4x4 under realistic criteria",
                 r8[3] > r4[3] && r8[1] > r4[1]);
  }
  // Benchmark ordering: larger, more redundant, more padded grids live
  // longer (paper: PG1 < PG2 < PG5 in every column).
  for (int col : {1, 3}) {
    checks.check("PG1 < PG2 < PG5 ordering (column " + std::to_string(col) +
                     ", 4x4)",
                 results[4]["PG1"][col] < results[4]["PG2"][col] &&
                     results[4]["PG2"][col] < results[4]["PG5"][col]);
  }
  checks.check("worst-case TTFs within a 0.1-30 year sanity envelope",
               results[4]["PG1"][0] > 0.1 && results[8]["PG5"][3] < 30.0);
  bench::writeMetricsArtifact(csvDir, "table2");
  return checks.exitCode();
}
