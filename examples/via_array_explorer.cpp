// Via-array explorer: characterize a single via-array configuration and
// inspect every intermediate artifact of the level-1 analysis —
// per-via thermomechanical stress, current crowding, and the TTF
// distribution under a chosen failure criterion.
//
//   ./via_array_explorer --n 4 --pattern Plus --criterion 8
//   ./via_array_explorer --n 8 --criterion open --csv cdf.csv
#include <fstream>
#include <iostream>

#include "common/check.h"
#include "common/cli.h"
#include "common/logging.h"
#include "common/table.h"
#include "common/units.h"
#include "viaarray/characterize.h"
#include "viaarray/network.h"

using namespace viaduct;

namespace {

IntersectionPattern parsePattern(const std::string& s) {
  if (s == "Plus" || s == "plus") return IntersectionPattern::kPlus;
  if (s == "T" || s == "t") return IntersectionPattern::kT;
  if (s == "L" || s == "l") return IntersectionPattern::kL;
  throw PreconditionError("unknown pattern: " + s + " (Plus/T/L)");
}

ViaArrayFailureCriterion parseCriterion(const std::string& s, int viaCount) {
  if (s == "open") return ViaArrayFailureCriterion::openCircuit();
  if (s == "weakest") return ViaArrayFailureCriterion::weakestLink();
  if (!s.empty() && s.back() == 'x')
    return ViaArrayFailureCriterion::resistanceRatio(
        std::stod(s.substr(0, s.size() - 1)));
  const int k = std::stoi(s);
  VIADUCT_REQUIRE_MSG(k >= 1 && k <= viaCount, "k out of range");
  return ViaArrayFailureCriterion::kthVia(k);
}

}  // namespace

int main(int argc, char** argv) {
  int n = 4;
  std::string pattern = "Plus";
  std::string criterion = "open";
  int trials = 500;
  double currentDensity = 1e10;
  std::string csvPath;
  CliFlags flags(
      "viaduct via-array explorer: level-1 characterization artifacts");
  flags.addInt("n", &n, "via array dimension (n x n)");
  flags.addString("pattern", &pattern, "intersection pattern: Plus, T, or L");
  flags.addString("criterion", &criterion,
                  "failure criterion: open, weakest, <k> (k-th via), or "
                  "<r>x (resistance ratio, e.g. 2x)");
  flags.addInt("trials", &trials, "Monte Carlo trials");
  flags.addDouble("j", &currentDensity, "total current density [A/m^2]");
  flags.addString("csv", &csvPath, "write the TTF CDF as CSV to this file");
  if (!flags.parse(argc, argv)) return 0;

  setLogLevel(LogLevel::kInfo);

  ViaArrayCharacterizationSpec spec;
  spec.array.n = n;
  spec.pattern = parsePattern(pattern);
  spec.trials = trials;
  spec.totalCurrentDensity = currentDensity;
  ViaArrayCharacterizer ch(spec);

  // Per-via stress and healthy current distribution.
  ViaArrayNetworkConfig netCfg = spec.network;
  netCfg.n = n;
  netCfg.totalCurrentAmps = spec.totalCurrent();
  ViaArrayNetwork network(netCfg);
  const auto currents = network.viaCurrents();

  std::cout << "\n" << n << "x" << n << " " << patternName(spec.pattern)
            << " via array, j = " << currentDensity
            << " A/m^2 (I = " << spec.totalCurrent() * 1e3 << " mA), "
            << "nominal R = " << ch.nominalResistance() << " ohm\n\n";

  TextTable table({"via (row,col)", "sigma_T [MPa]", "I share [%]"});
  for (std::size_t i = 0; i < ch.sigmaT().size(); ++i) {
    const auto& v = ch.vias()[i];
    std::string site = "(";
    site += std::to_string(v.row);
    site += ',';
    site += std::to_string(v.col);
    site += v.interior ? ") int" : ")";
    table.addRow({site,
                  TextTable::num(ch.sigmaT()[i] / units::MPa, 1),
                  TextTable::num(100.0 * currents[i] / spec.totalCurrent(), 2)});
  }
  table.print(std::cout);

  const auto crit = parseCriterion(criterion, n * n);
  const auto cdf = ch.ttfCdf(crit);
  const Lognormal fit = ch.ttfLognormal(crit);
  std::cout << "\nTTF under criterion '" << crit.describe() << "' ("
            << trials << " trials):\n";
  TextTable stats({"percentile", "TTF [years]"});
  for (double p : {0.003, 0.25, 0.5, 0.75, 0.997})
    stats.addRow({TextTable::num(p, 3),
                  TextTable::num(cdf.quantile(p) / units::year, 2)});
  stats.print(std::cout);
  std::cout << "lognormal fit: median " << fit.median() / units::year
            << " years, sigma " << fit.sigma() << "\n";

  if (!csvPath.empty()) {
    std::ofstream os(csvPath);
    CsvWriter csv(os, {"ttf_years", "cumulative_probability"});
    const auto& sorted = cdf.sorted();
    for (std::size_t i = 0; i < sorted.size(); ++i)
      csv.writeRow({sorted[i] / units::year,
                    (i + 1.0) / static_cast<double>(sorted.size())});
    std::cout << "wrote CDF to " << csvPath << "\n";
  }
  return 0;
}
