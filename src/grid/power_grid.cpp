#include "grid/power_grid.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "common/check.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "fault/fault.h"
#include "obs/obs.h"

namespace viaduct {

namespace {

/// Builds the model's immutable base factorization with the configured
/// backend, falling back down a retry ladder (configured → up-looking+RCM)
/// when the policy layer allows recovery. The "grid.base_factor" fault site
/// models acquisition failures of the configured backend (e.g. a marginal
/// pivot that the scalar factorization's ordering survives).
std::shared_ptr<const SpdFactor> buildBaseFactor(const CsrMatrix& g,
                                                 const PowerGridConfig& config) {
  VIADUCT_SPAN("grid.base_factor");
  auto attempt = [&](SpdSolverKind kind, OrderingChoice ordering)
      -> std::shared_ptr<const SpdFactor> {
    if (fault::shouldInject("grid.base_factor")) {
      throw NumericalError(
          "grid base factorization rejected (injected fault)");
    }
    ThreadPool pool(std::max(1, config.factorThreads));
    return buildSpdFactor(g, kind, ordering, &pool);
  };
  try {
    return attempt(config.gridSolver, config.gridOrdering);
  } catch (const NumericalError& e) {
    const bool configuredIsFallback =
        config.gridSolver == SpdSolverKind::kUplooking &&
        config.gridOrdering == OrderingChoice::kRcm;
    if (!config.policy.enabled || configuredIsFallback) throw;
    VIADUCT_WARN << "grid base factorization ("
                 << spdSolverKindName(config.gridSolver) << "+"
                 << orderingChoiceName(config.gridOrdering) << ") failed: "
                 << e.what() << "; retrying with uplooking+rcm";
    VIADUCT_COUNTER_ADD("fault.policy.base_factor_fallbacks", 1);
    return attempt(SpdSolverKind::kUplooking, OrderingChoice::kRcm);
  }
}

struct ReducedIndexing {
  std::vector<Index> toUnknown;       // netlist node -> reduced index or -1
  std::vector<double> knownVoltage;   // netlist node -> voltage (if known)
  std::vector<bool> known;            // netlist node -> is known
  Index unknownCount = 0;
};

ReducedIndexing buildIndexing(const Netlist& netlist) {
  const Index n = netlist.nodeCount();
  ReducedIndexing idx;
  idx.toUnknown.assign(static_cast<std::size_t>(n), -1);
  idx.knownVoltage.assign(static_cast<std::size_t>(n), 0.0);
  idx.known.assign(static_cast<std::size_t>(n), false);

  for (const auto& v : netlist.voltageSources()) {
    Index node;
    double volts;
    if (v.negative == kGroundNode) {
      node = v.positive;
      volts = v.volts;
    } else if (v.positive == kGroundNode) {
      node = v.negative;
      volts = -v.volts;
    } else {
      throw ParseError("voltage source " + v.name +
                       " is not referenced to ground; unsupported topology");
    }
    VIADUCT_CHECK(node >= 0);
    if (idx.known[static_cast<std::size_t>(node)] &&
        idx.knownVoltage[static_cast<std::size_t>(node)] != volts) {
      throw ParseError("conflicting voltage sources at node " +
                       netlist.nodeName(node));
    }
    idx.known[static_cast<std::size_t>(node)] = true;
    idx.knownVoltage[static_cast<std::size_t>(node)] = volts;
  }

  for (Index i = 0; i < n; ++i) {
    if (!idx.known[static_cast<std::size_t>(i)])
      idx.toUnknown[static_cast<std::size_t>(i)] = idx.unknownCount++;
  }
  return idx;
}

}  // namespace

PowerGridModel::PowerGridModel(const Netlist& netlist,
                               const PowerGridConfig& config)
    : config_(config) {
  VIADUCT_REQUIRE(config.irDropThresholdFraction > 0.0 &&
                  config.irDropThresholdFraction < 1.0);
  VIADUCT_REQUIRE_MSG(!netlist.voltageSources().empty(),
                      "power grid has no supply pads");

  const ReducedIndexing idx = buildIndexing(netlist);
  unknownCount_ = idx.unknownCount;
  VIADUCT_REQUIRE_MSG(unknownCount_ > 0, "no unknown nodes in the grid");

  vdd_ = 0.0;
  for (const auto& v : netlist.voltageSources())
    vdd_ = std::max(vdd_, std::abs(v.volts));
  VIADUCT_REQUIRE_MSG(vdd_ > 0.0, "Vdd is zero");

  auto reduced = [&](Index node) -> std::pair<Index, double> {
    // Returns (unknown index or kGroundNode, known voltage).
    if (node == kGroundNode) return {kGroundNode, 0.0};
    if (idx.known[static_cast<std::size_t>(node)])
      return {kGroundNode, idx.knownVoltage[static_cast<std::size_t>(node)]};
    return {idx.toUnknown[static_cast<std::size_t>(node)], 0.0};
  };

  TripletMatrix triplets(unknownCount_, unknownCount_);
  triplets.reserve(4 * netlist.resistors().size() + 16);
  std::vector<double> rhs(static_cast<std::size_t>(unknownCount_), 0.0);

  for (const auto& r : netlist.resistors()) {
    VIADUCT_REQUIRE_MSG(r.ohms > 0.0,
                        "zero-resistance branch " + r.name +
                            " (the paper re-inserts via resistances; "
                            "preprocess the netlist)");
    const double g = 1.0 / r.ohms;
    const auto [ia, va] = reduced(r.a);
    const auto [ib, vb] = reduced(r.b);
    const bool isVia = r.name.rfind(config_.viaArrayPrefix, 0) == 0;
    if (ia == kGroundNode && ib == kGroundNode) continue;  // pad-to-pad
    triplets.stampConductance(ia, ib, g);
    if (ia == kGroundNode && ib >= 0) rhs[ib] += g * va;
    if (ib == kGroundNode && ia >= 0) rhs[ia] += g * vb;
    if (isVia) {
      VIADUCT_REQUIRE_MSG(
          ia >= 0 && ib >= 0,
          "via-array branch " + r.name + " touches a pad/known node");
      viaArrays_.push_back({r.name, ia, ib, r.ohms});
    }
  }

  for (const auto& c : netlist.currentSources()) {
    const auto [ip, vp] = reduced(c.positive);
    const auto [in, vn] = reduced(c.negative);
    (void)vp;
    (void)vn;
    if (ip >= 0) rhs[ip] -= c.amps;
    if (in >= 0) rhs[in] += c.amps;
  }
  rhs_ = std::make_shared<const std::vector<double>>(std::move(rhs));

  conductance_ =
      std::make_shared<const CsrMatrix>(CsrMatrix::fromTriplets(triplets));
  nodeToUnknown_ = idx.toUnknown;
  nodeKnownVoltage_ = idx.knownVoltage;
  nodeIsKnown_ = idx.known;
  if (config_.sharedBaseFactor) {
    baseFactor_ = buildBaseFactor(*conductance_, config_);
    rhsBaseSolution_ =
        std::make_shared<const std::vector<double>>(baseFactor_->solve(*rhs_));
    columnCache_ = std::make_shared<IncidenceColumnCache>(
        IncidenceColumnCache::budgetFor(*baseFactor_));
  }
  VIADUCT_DEBUG << "power grid: " << unknownCount_ << " unknowns, "
                << viaArrays_.size() << " via arrays, Vdd=" << vdd_
                << (baseFactor_ ? ", shared base factor" : "");
}

WoodburySolver PowerGridModel::makeSolver() const {
  WoodburySolver::Options opts;
  opts.policy = config_.policy;
  opts.solver = config_.gridSolver;
  opts.ordering = config_.gridOrdering;
  if (baseFactor_)
    return WoodburySolver({.g0 = conductance_,
                           .factor = baseFactor_,
                           .rhs = rhs_,
                           .rhsBaseSolution = rhsBaseSolution_,
                           .columns = columnCache_},
                          opts);
  return WoodburySolver(*conductance_, opts, rhs_);
}

double PowerGridModel::nodeVoltage(Index netlistNode,
                                   const DcSolution& solution) const {
  VIADUCT_REQUIRE_MSG(solution.solverOk,
                      "nodeVoltage on a failed solution (check solverOk)");
  if (netlistNode == kGroundNode) return 0.0;
  VIADUCT_REQUIRE(netlistNode >= 0 &&
                  static_cast<std::size_t>(netlistNode) <
                      nodeToUnknown_.size());
  VIADUCT_REQUIRE(solution.voltages.size() ==
                  static_cast<std::size_t>(unknownCount_));
  if (nodeIsKnown_[static_cast<std::size_t>(netlistNode)])
    return nodeKnownVoltage_[static_cast<std::size_t>(netlistNode)];
  return solution.voltages[static_cast<std::size_t>(
      nodeToUnknown_[static_cast<std::size_t>(netlistNode)])];
}

PowerGridModel::NodeTerminal PowerGridModel::resolveNode(
    Index netlistNode) const {
  if (netlistNode == kGroundNode) return {};
  VIADUCT_REQUIRE(netlistNode >= 0 &&
                  static_cast<std::size_t>(netlistNode) <
                      nodeToUnknown_.size());
  const auto node = static_cast<std::size_t>(netlistNode);
  if (nodeIsKnown_[node]) return {kGroundNode, nodeKnownVoltage_[node]};
  return {nodeToUnknown_[node], 0.0};
}

PowerGridModel::DcSolution PowerGridModel::evaluate(
    const WoodburySolver& solver, const std::vector<double>& arrayOhms) const {
  VIADUCT_COUNTER_ADD("power_grid.solves", 1);
  DcSolution sol;
  sol.pendingUpdates = solver.pendingUpdateCount();
  try {
    sol.voltages = solver.solveFixedRhs();
  } catch (const NumericalError& e) {
    VIADUCT_COUNTER_ADD("power_grid.solve_failures", 1);
    VIADUCT_DEBUG << "power grid DC solve failed (" << e.what()
                  << "); reporting explicit failure state";
    // Explicit failure state: no voltages at all, rather than whatever a
    // partially failed solve left behind — nodeVoltage() enforces this.
    sol.voltages.clear();
    sol.solverOk = false;
    sol.solverError = e.what();
    sol.worstIrDrop = std::numeric_limits<double>::infinity();
    sol.worstIrDropFraction = std::numeric_limits<double>::infinity();
    sol.viaArrayCurrents.assign(viaArrays_.size(), 0.0);
    return sol;
  }
  double minV = std::numeric_limits<double>::infinity();
  for (double v : sol.voltages) minV = std::min(minV, v);
  sol.worstIrDrop = vdd_ - minV;
  sol.worstIrDropFraction = sol.worstIrDrop / vdd_;

  sol.viaArrayCurrents.reserve(viaArrays_.size());
  for (std::size_t m = 0; m < viaArrays_.size(); ++m) {
    const auto& site = viaArrays_[m];
    const double va = site.a >= 0 ? sol.voltages[site.a] : 0.0;
    const double vb = site.b >= 0 ? sol.voltages[site.b] : 0.0;
    sol.viaArrayCurrents.push_back(std::abs(va - vb) / arrayOhms[m]);
  }
  return sol;
}

PowerGridModel::DcSolution PowerGridModel::solveNominal() const {
  WoodburySolver solver = makeSolver();
  std::vector<double> ohms;
  ohms.reserve(viaArrays_.size());
  for (const auto& site : viaArrays_) ohms.push_back(site.nominalOhms);
  return evaluate(solver, ohms);
}

double PowerGridModel::kclResidual(const DcSolution& solution) const {
  VIADUCT_REQUIRE(solution.voltages.size() ==
                  static_cast<std::size_t>(unknownCount_));
  return conductance_->residualNorm(solution.voltages, *rhs_);
}

std::uint64_t PowerGridModel::structureDigest() const {
  std::ostringstream os;
  os.precision(17);
  os << unknownCount_ << '|' << vdd_ << '|'
     << config_.openResidualFraction << '|';
  for (const auto& site : viaArrays_)
    os << site.name << ',' << site.a << ',' << site.b << ','
       << site.nominalOhms << ';';
  os << '|';
  for (const double v : *rhs_) os << v << ',';
  os << '|';
  for (const Index p : conductance_->rowPointers()) os << p << ',';
  os << '|';
  for (const Index c : conductance_->colIndices()) os << c << ',';
  os << '|';
  for (const double v : conductance_->values()) os << v << ',';
  return fnv1aHash(os.str());
}

PowerGridModel::Session::Session(const PowerGridModel& model)
    : model_(model), solver_(model.makeSolver()) {
  currentOhms_.reserve(model.viaArrays_.size());
  for (const auto& site : model.viaArrays_)
    currentOhms_.push_back(site.nominalOhms);
  open_.assign(model.viaArrays_.size(), false);
}

void PowerGridModel::Session::degradeArray(int arrayIndex, double factor) {
  VIADUCT_REQUIRE(arrayIndex >= 0 &&
                  static_cast<std::size_t>(arrayIndex) < currentOhms_.size());
  VIADUCT_REQUIRE_MSG(factor > 1.0, "degrade factor must exceed 1");
  VIADUCT_REQUIRE_MSG(!open_[static_cast<std::size_t>(arrayIndex)],
                      "array already open");
  const auto& site = model_.viaArrays_[static_cast<std::size_t>(arrayIndex)];
  const double oldG = 1.0 / currentOhms_[static_cast<std::size_t>(arrayIndex)];
  currentOhms_[static_cast<std::size_t>(arrayIndex)] *= factor;
  const double newG = 1.0 / currentOhms_[static_cast<std::size_t>(arrayIndex)];
  solver_.updateBranch(site.a, site.b, newG - oldG);
}

void PowerGridModel::Session::openArray(int arrayIndex) {
  VIADUCT_REQUIRE(arrayIndex >= 0 &&
                  static_cast<std::size_t>(arrayIndex) < currentOhms_.size());
  VIADUCT_REQUIRE_MSG(!open_[static_cast<std::size_t>(arrayIndex)],
                      "array already open");
  const auto& site = model_.viaArrays_[static_cast<std::size_t>(arrayIndex)];
  const double oldG = 1.0 / currentOhms_[static_cast<std::size_t>(arrayIndex)];
  const double newG = oldG * model_.config_.openResidualFraction;
  currentOhms_[static_cast<std::size_t>(arrayIndex)] = 1.0 / newG;
  open_[static_cast<std::size_t>(arrayIndex)] = true;
  solver_.updateBranch(site.a, site.b, newG - oldG);
}

bool PowerGridModel::Session::arrayOpen(int arrayIndex) const {
  VIADUCT_REQUIRE(arrayIndex >= 0 &&
                  static_cast<std::size_t>(arrayIndex) < open_.size());
  return open_[static_cast<std::size_t>(arrayIndex)];
}

PowerGridModel::DcSolution PowerGridModel::Session::solve() {
  DcSolution sol = model_.evaluate(solver_, currentOhms_);
  const fault::FailurePolicy& policy = model_.config_.policy;
  if (!sol.solverOk && policy.enabled && policy.refactorOnWoodburyFailure &&
      solver_.pendingUpdateCount() > 0) {
    // The stacked low-rank updates may be the problem (an ill-conditioned
    // capacitance system); fold them into a fresh base factorization and
    // retry once. If the base matrix itself is singular the rebase throws
    // and the explicit failure state stands.
    VIADUCT_COUNTER_ADD("fault.policy.session_rebases", 1);
    try {
      solver_.rebase();
    } catch (const NumericalError&) {
      return sol;
    }
    sol = model_.evaluate(solver_, currentOhms_);
  }
  return sol;
}

void scaleLoads(Netlist& netlist, double factor) {
  VIADUCT_REQUIRE(factor > 0.0);
  for (auto& c : netlist.mutableCurrentSources()) c.amps *= factor;
}

double tuneNominalIrDrop(Netlist& netlist, double targetFraction,
                         const PowerGridConfig& config) {
  VIADUCT_REQUIRE(targetFraction > 0.0 && targetFraction < 1.0);
  const PowerGridModel model(netlist, config);
  const auto sol = model.solveNominal();
  // A failed solve reports +inf IR drop, which would scale every load to 0.
  if (!sol.solverOk) {
    throw NumericalError("IR-drop tuning: nominal DC solve failed: " +
                         sol.solverError);
  }
  VIADUCT_REQUIRE_MSG(sol.worstIrDrop > 0.0,
                      "grid has no IR drop; nothing to tune");
  const double factor = targetFraction * model.vdd() / sol.worstIrDrop;
  scaleLoads(netlist, factor);
  return factor;
}

}  // namespace viaduct
