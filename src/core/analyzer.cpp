#include "core/analyzer.h"

#include <algorithm>
#include <array>
#include <charconv>

#include "common/check.h"
#include "common/logging.h"
#include "common/units.h"

namespace viaduct {

namespace {

/// Parses "Rvia_<x>_<y>" into coordinates; returns false on mismatch.
bool parseViaSiteName(const std::string& name, const std::string& prefix,
                      int* x, int* y) {
  if (name.rfind(prefix + "_", 0) != 0) return false;
  const std::string rest = name.substr(prefix.size() + 1);
  const auto underscore = rest.find('_');
  if (underscore == std::string::npos) return false;
  const auto parse = [](const std::string& s, int* out) {
    const auto [ptr, ec] =
        std::from_chars(s.data(), s.data() + s.size(), *out);
    return ec == std::errc() && ptr == s.data() + s.size();
  };
  return parse(rest.substr(0, underscore), x) &&
         parse(rest.substr(underscore + 1), y);
}

}  // namespace

PowerGridEmAnalyzer::PowerGridEmAnalyzer(
    Netlist netlist, const AnalyzerConfig& config,
    std::shared_ptr<ViaArrayLibrary> library)
    : netlist_(std::move(netlist)),
      config_(config),
      library_(library ? std::move(library)
                       : std::make_shared<ViaArrayLibrary>()) {
  VIADUCT_REQUIRE(config_.viaArraySize >= 1);

  // One policy governs every layer: electrical model (Woodbury/session
  // recovery) and characterization (FEA ladder, MC trial semantics).
  config_.gridConfig.policy = config_.policy;
  config_.characterization.policy = config_.policy;

  if (config_.tuneNominalIrDropFraction) {
    const double factor = tuneNominalIrDrop(
        netlist_, *config_.tuneNominalIrDropFraction, config_.gridConfig);
    VIADUCT_DEBUG << "tuned loads by factor " << factor;
  }
  model_ = std::make_unique<PowerGridModel>(netlist_, config_.gridConfig);
  VIADUCT_REQUIRE_MSG(!model_->viaArrays().empty(),
                      "netlist contains no via-array branches (prefix '" +
                          config_.gridConfig.viaArrayPrefix + "')");
  nominalIrDropFraction_ = model_->solveNominal().worstIrDropFraction;
  assignPatterns();
}

void PowerGridEmAnalyzer::assignPatterns() {
  const auto& sites = model_->viaArrays();
  sitePatterns_.assign(sites.size(), IntersectionPattern::kPlus);
  if (!config_.usePositionalPatterns) return;

  // First pass: parse coordinates and find the mesh extents.
  std::vector<std::pair<int, int>> coords(sites.size(), {-1, -1});
  int maxX = -1, maxY = -1;
  bool allParsed = true;
  for (std::size_t m = 0; m < sites.size(); ++m) {
    int x = 0, y = 0;
    if (parseViaSiteName(sites[m].name, config_.gridConfig.viaArrayPrefix, &x,
                         &y)) {
      coords[m] = {x, y};
      maxX = std::max(maxX, x);
      maxY = std::max(maxY, y);
    } else {
      allParsed = false;
    }
  }
  if (!allParsed || maxX < 1 || maxY < 1) {
    VIADUCT_DEBUG << "via-array names are not positional; using Plus for all";
    return;
  }
  for (std::size_t m = 0; m < sites.size(); ++m) {
    const auto [x, y] = coords[m];
    const bool edgeX = x == 0 || x == maxX;
    const bool edgeY = y == 0 || y == maxY;
    if (edgeX && edgeY) {
      sitePatterns_[m] = IntersectionPattern::kL;
    } else if (edgeX || edgeY) {
      sitePatterns_[m] = IntersectionPattern::kT;
    } else {
      sitePatterns_[m] = IntersectionPattern::kPlus;
    }
  }
}

ViaArrayCharacterizationSpec PowerGridEmAnalyzer::specForPattern(
    IntersectionPattern p) const {
  ViaArrayCharacterizationSpec spec = config_.characterization;
  spec.array.n = config_.viaArraySize;
  spec.pattern = p;
  spec.parallelism = config_.parallelism;
  if (config_.checkpoint.enabled()) {
    // Each pattern's level-1 run snapshots to its own file next to the
    // level-2 snapshot; cadence and resume flag are shared.
    spec.checkpoint = config_.checkpoint;
    spec.checkpoint.path =
        config_.checkpoint.path + ".l1-" + patternName(p);
  }
  return spec;
}

GridTtfReport PowerGridEmAnalyzer::analyze(
    const ViaArrayFailureCriterion& arrayCriterion,
    const GridFailureCriterion& systemCriterion) {
  // Level 1: per-pattern TTF lognormals (memoized in the library).
  const std::vector<IntersectionPattern> patterns = {IntersectionPattern::kPlus,
                                               IntersectionPattern::kT,
                                               IntersectionPattern::kL};
  std::vector<bool> patternUsed(3, false);
  for (const auto p : sitePatterns_)
    patternUsed[static_cast<std::size_t>(p)] = true;

  std::array<Lognormal, 3> fits = {Lognormal(0, 1), Lognormal(0, 1),
                                   Lognormal(0, 1)};
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    if (!patternUsed[static_cast<std::size_t>(patterns[i])]) continue;
    auto ch = library_->get(specForPattern(patterns[i]));
    fits[static_cast<std::size_t>(patterns[i])] =
        ch->ttfLognormal(arrayCriterion);
  }

  GridMcOptions options;
  options.perArrayTtf.reserve(sitePatterns_.size());
  for (const auto p : sitePatterns_)
    options.perArrayTtf.push_back(fits[static_cast<std::size_t>(p)]);
  options.referenceCurrentAmps = config_.characterization.totalCurrent();
  options.systemCriterion = systemCriterion;
  options.trials = config_.trials;
  options.seed = config_.seed;
  options.parallelism = config_.parallelism;
  options.policy = config_.policy;
  options.checkpoint = config_.checkpoint;
  if (config_.wireEmAudit) {
    // netlist_ and the geometry are fixed after construction, so the first
    // audited analysis decomposes the wires for every later one.
    if (!wireTrees_)
      wireTrees_ = WireTreeSet::build(netlist_, config_.wireGeometry);
    options.wireEm.trees = wireTrees_;
    options.wireEm.mode = config_.emMode;
    options.wireEm.stressMarginPa = config_.wireStressMarginPa;
    options.wireEm.params = config_.wireEmParams;
  }

  GridTtfReport report;
  report.mc = runGridMonteCarlo(*model_, options);
  const EmpiricalCdf cdf = report.mc.cdf();
  report.worstCaseYears = cdf.worstCase() / units::year;
  {
    Rng ciRng(config_.seed ^ 0x517cc1b727220a95ull);
    const ConfidenceInterval ci =
        bootstrapQuantileCi(report.mc.ttfSamples, 0.003, 0.95, 400, ciRng);
    report.worstCaseCiLowYears = ci.lower / units::year;
    report.worstCaseCiHighYears = ci.upper / units::year;
  }
  report.medianYears = cdf.median() / units::year;
  report.meanFailuresToBreach = report.mc.meanFailuresToBreach;
  report.discardedTrials = report.mc.discardedTrials;
  report.salvagedTrials = report.mc.salvagedTrials;
  report.resumedTrials = report.mc.resumedTrials;
  report.wireAuditedConfigs = report.mc.wireAuditedConfigs;
  report.wireMortalConfigs = report.mc.wireMortalConfigs;
  report.wireMortalTrials = report.mc.wireMortalTrials;
  report.nominalIrDropFraction = nominalIrDropFraction_;
  report.arrayCriterion = arrayCriterion.describe();
  report.systemCriterion = systemCriterion.describe();
  return report;
}

}  // namespace viaduct
