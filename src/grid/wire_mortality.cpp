#include "grid/wire_mortality.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <span>
#include <unordered_map>

#include "common/check.h"
#include "em/blech.h"
#include "grid/power_grid.h"
#include "obs/obs.h"

namespace viaduct {

namespace {

bool matchesWirePrefix(const std::string& name, const WireGeometry& geometry) {
  return std::any_of(geometry.wirePrefixes.begin(),
                     geometry.wirePrefixes.end(),
                     [&](const std::string& p) {
                       return name.rfind(p, 0) == 0;
                     });
}

std::uint64_t fnv1aMix64(std::uint64_t hash, std::uint64_t value) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffull;
    hash *= kPrime;
  }
  return hash;
}

}  // namespace

WireMortality classifyWires(const Netlist& netlist,
                            const WireGeometry& geometry, double stressMargin,
                            const EmParameters& params) {
  VIADUCT_REQUIRE(geometry.crossSectionArea > 0.0 &&
                  geometry.segmentLength > 0.0);
  VIADUCT_REQUIRE(!geometry.wirePrefixes.empty());

  const PowerGridModel model(netlist);
  const auto solution = model.solveNominal();

  WireMortality census;
  census.productLimit = blechProductLimit(stressMargin, params);

  for (const auto& r : netlist.resistors()) {
    const bool isWire =
        std::any_of(geometry.wirePrefixes.begin(),
                    geometry.wirePrefixes.end(), [&](const std::string& p) {
                      return r.name.rfind(p, 0) == 0;
                    });
    if (!isWire) continue;
    const double va = model.nodeVoltage(r.a, solution);
    const double vb = model.nodeVoltage(r.b, solution);
    const double current = std::abs(va - vb) / r.ohms;
    const double j = current / geometry.crossSectionArea;
    const double product = j * geometry.segmentLength;
    ++census.totalWires;
    census.worstProduct = std::max(census.worstProduct, product);
    census.worstCurrentDensity = std::max(census.worstCurrentDensity, j);
    if (product >= census.productLimit) ++census.mortalWires;
  }
  VIADUCT_REQUIRE_MSG(census.totalWires > 0,
                      "no wire segments matched the configured prefixes");
  return census;
}

std::string_view signoffModeName(SignoffMode mode) {
  switch (mode) {
    case SignoffMode::kTransient:
      return "transient";
    case SignoffMode::kSteadyState:
      return "steady";
    case SignoffMode::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

SignoffMode parseSignoffMode(std::string_view text) {
  if (text == "transient") return SignoffMode::kTransient;
  if (text == "steady" || text == "steady-state" || text == "steadystate")
    return SignoffMode::kSteadyState;
  if (text == "hybrid") return SignoffMode::kHybrid;
  throw ParseError("unknown --em-mode '" + std::string(text) +
                   "' (expected steady|transient|hybrid)");
}

std::shared_ptr<const WireTreeSet> WireTreeSet::build(
    const Netlist& netlist, const WireGeometry& geometry) {
  VIADUCT_REQUIRE(geometry.crossSectionArea > 0.0 &&
                  geometry.segmentLength > 0.0);
  VIADUCT_REQUIRE(!geometry.wirePrefixes.empty());

  auto set = std::make_shared<WireTreeSet>();
  set->geometry_ = geometry;

  // Vertex interning: distinct netlist nodes become vertices; each ground
  // terminal becomes its OWN vertex (ground is a blocking endpoint for
  // atom transport, not a junction shared across the chip).
  struct Edge {
    int u = 0;
    int v = 0;
    Index a = kGroundNode;
    Index b = kGroundNode;
    double conductance = 0.0;
  };
  std::vector<Edge> edges;
  std::unordered_map<Index, int> vertexOf;
  int vertexCount = 0;
  for (const auto& r : netlist.resistors()) {
    if (!matchesWirePrefix(r.name, geometry)) continue;
    VIADUCT_REQUIRE_MSG(r.ohms > 0.0, "wire resistor needs positive ohms");
    auto intern = [&](Index node) {
      if (node == kGroundNode) return vertexCount++;
      auto [it, inserted] = vertexOf.try_emplace(node, vertexCount);
      if (inserted) ++vertexCount;
      return it->second;
    };
    Edge edge;
    edge.u = intern(r.a);
    edge.v = intern(r.b);
    edge.a = r.a;
    edge.b = r.b;
    edge.conductance = 1.0 / r.ohms;
    edges.push_back(edge);
  }
  VIADUCT_REQUIRE_MSG(!edges.empty(),
                      "no wire segments matched the configured prefixes");

  std::vector<std::vector<int>> adjacency(
      static_cast<std::size_t>(vertexCount));
  for (std::size_t e = 0; e < edges.size(); ++e) {
    adjacency[static_cast<std::size_t>(edges[e].u)].push_back(
        static_cast<int>(e));
    adjacency[static_cast<std::size_t>(edges[e].v)].push_back(
        static_cast<int>(e));
  }

  // Connected components in deterministic (netlist resistor) order.
  std::uint64_t digest = 1469598103934665603ull;
  std::vector<int> componentVertex(static_cast<std::size_t>(vertexCount), -1);
  std::vector<char> edgeSeen(edges.size(), 0);
  std::vector<Segment> cyclic;
  for (std::size_t seedEdge = 0; seedEdge < edges.size(); ++seedEdge) {
    if (edgeSeen[seedEdge]) continue;
    // BFS this component, assigning local node ids in discovery order.
    std::vector<int> localEdges;
    int localNodes = 0;
    std::queue<int> frontier;
    auto visit = [&](int vertex) {
      if (componentVertex[static_cast<std::size_t>(vertex)] < 0) {
        componentVertex[static_cast<std::size_t>(vertex)] = localNodes++;
        frontier.push(vertex);
      }
    };
    visit(edges[seedEdge].u);
    while (!frontier.empty()) {
      const int vertex = frontier.front();
      frontier.pop();
      for (int edgeIdx : adjacency[static_cast<std::size_t>(vertex)]) {
        if (!edgeSeen[static_cast<std::size_t>(edgeIdx)]) {
          edgeSeen[static_cast<std::size_t>(edgeIdx)] = 1;
          localEdges.push_back(edgeIdx);
        }
        visit(edges[static_cast<std::size_t>(edgeIdx)].u);
        visit(edges[static_cast<std::size_t>(edgeIdx)].v);
      }
    }

    if (static_cast<int>(localEdges.size()) == localNodes - 1) {
      // A tree: hand it to the linear-time steady-state solver.
      const auto branchOffset = static_cast<int>(set->segments_.size());
      std::vector<SteadyBranch> branches;
      branches.reserve(localEdges.size());
      for (int edgeIdx : localEdges) {
        const Edge& edge = edges[static_cast<std::size_t>(edgeIdx)];
        SteadyBranch branch;
        branch.a = componentVertex[static_cast<std::size_t>(edge.u)];
        branch.b = componentVertex[static_cast<std::size_t>(edge.v)];
        branch.length = geometry.segmentLength;
        branch.area = geometry.crossSectionArea;
        branches.push_back(branch);
        set->segments_.push_back(Segment{edge.a, edge.b, edge.conductance});
      }
      set->trees_.push_back(
          Tree{SteadyStateTreeSolver(localNodes, std::move(branches)),
               branchOffset});
      const std::uint64_t treeDigest = set->trees_.back().solver.digest();
      digest = fnv1aMix64(digest, treeDigest);
      set->maxTreeNodes_ = std::max(set->maxTreeNodes_,
                                    static_cast<std::size_t>(localNodes));
    } else {
      // Cyclic wire graph (hand-written netlist): per-segment Blech
      // fallback keeps the audit total-coverage.
      ++set->cyclicComponents_;
      for (int edgeIdx : localEdges) {
        const Edge& edge = edges[static_cast<std::size_t>(edgeIdx)];
        cyclic.push_back(Segment{edge.a, edge.b, edge.conductance});
        digest = fnv1aMix64(
            digest, static_cast<std::uint64_t>(edge.u) * 0x9e3779b9u +
                        static_cast<std::uint64_t>(edge.v));
      }
    }
    // Vertices keep their local ids only within one component; reset the
    // map for reuse is unnecessary because each vertex belongs to exactly
    // one component (ids already assigned stay put).
  }

  set->branchCount_ = static_cast<int>(set->segments_.size());
  set->segments_.insert(set->segments_.end(), cyclic.begin(), cyclic.end());
  VIADUCT_COUNTER_ADD("em.steady_trees",
                      static_cast<std::uint64_t>(set->treeCount()));
  set->digest_ = digest;
  return set;
}

WireTreeSet::Scratch WireTreeSet::makeScratch() const {
  Scratch scratch;
  scratch.currentDensity.resize(segments_.size());
  scratch.nodeStress.resize(maxTreeNodes_);
  return scratch;
}

WireTreeSet::Terminals WireTreeSet::resolve(
    const PowerGridModel& model) const {
  Terminals terminals;
  terminals.unknownCount = model.unknownCount();
  terminals.segments.reserve(segments_.size());
  for (const Segment& segment : segments_)
    terminals.segments.push_back(
        {model.resolveNode(segment.a), model.resolveNode(segment.b)});
  return terminals;
}

WireTreeSet::Audit WireTreeSet::audit(
    const Terminals& terminals, const PowerGridModel::DcSolution& solution,
    SignoffMode mode, double stressMarginPa, const EmParameters& params,
    Scratch& scratch) const {
  VIADUCT_SPAN("em.steady_pass");
  VIADUCT_REQUIRE_MSG(stressMarginPa > 0.0, "stress margin must be positive");
  VIADUCT_REQUIRE_MSG(solution.solverOk,
                      "wire audit on a failed solution (check solverOk)");
  VIADUCT_REQUIRE(terminals.segments.size() == segments_.size() &&
                  solution.voltages.size() ==
                      static_cast<std::size_t>(terminals.unknownCount));
  VIADUCT_REQUIRE(scratch.currentDensity.size() == segments_.size());
  VIADUCT_REQUIRE(scratch.nodeStress.size() >= maxTreeNodes_);

  // Signed current densities along each segment's a→b orientation at this
  // operating point — the only per-configuration input the verdicts need.
  const std::span<const double> v = solution.voltages;
  const double invArea = 1.0 / geometry_.crossSectionArea;
  for (std::size_t k = 0; k < segments_.size(); ++k) {
    const auto& [a, b] = terminals.segments[k];
    scratch.currentDensity[k] =
        (a.voltage(v) - b.voltage(v)) * segments_[k].conductance * invArea;
  }

  Audit result;
  for (const Tree& tree : trees_) {
    const std::span<const double> branchJ(
        scratch.currentDensity.data() +
            static_cast<std::size_t>(tree.branchOffset),
        static_cast<std::size_t>(tree.solver.branchCount()));
    const std::span<double> nodeStress(
        scratch.nodeStress.data(),
        static_cast<std::size_t>(tree.solver.nodeCount()));

    double rise = 0.0;
    const bool wantTransient = mode == SignoffMode::kTransient;
    if (!wantTransient || !tree.solver.isPath()) {
      rise = tree.solver.maxStressRise(branchJ, params, nodeStress);
      ++result.steadySolves;
    }
    const bool steadyMortal = rise >= stressMarginPa;
    if (tree.solver.isPath() &&
        (wantTransient ||
         (mode == SignoffMode::kHybrid && steadyMortal))) {
      TransientPathReference reference(tree.solver, branchJ, params,
                                       /*sigmaT=*/0.0);
      reference.runToSteadyState();
      rise = reference.maxNodalStressRise();
      ++result.transientSolves;
      if (mode == SignoffMode::kHybrid) ++result.transientFallbacks;
    }
    if (rise >= stressMarginPa) ++result.mortalTrees;
    result.worstStressRisePa = std::max(result.worstStressRisePa, rise);
  }

  // Cyclic components: per-segment Blech verdicts (legacy criterion).
  if (cyclicSegments() > 0) {
    const double productLimit = blechProductLimit(stressMarginPa, params);
    for (std::size_t k = static_cast<std::size_t>(branchCount_);
         k < segments_.size(); ++k) {
      const double j = std::abs(scratch.currentDensity[k]);
      if (j * geometry_.segmentLength >= productLimit)
        ++result.mortalCyclicSegments;
    }
  }

  VIADUCT_COUNTER_ADD("em.steady_solves",
                      static_cast<std::uint64_t>(result.steadySolves));
  VIADUCT_COUNTER_ADD("em.transient_fallbacks",
                      static_cast<std::uint64_t>(result.transientFallbacks));
  return result;
}

WireTreeSet::Audit WireTreeSet::audit(
    const PowerGridModel& model, const PowerGridModel::DcSolution& solution,
    SignoffMode mode, double stressMarginPa, const EmParameters& params,
    Scratch& scratch) const {
  return audit(resolve(model), solution, mode, stressMarginPa, params,
               scratch);
}

WireEmCensus classifyWiresEm(const Netlist& netlist,
                             const WireGeometry& geometry,
                             double stressMargin, const EmParameters& params,
                             SignoffMode mode) {
  const auto trees = WireTreeSet::build(netlist, geometry);
  const PowerGridModel model(netlist);
  const auto solution = model.solveNominal();
  auto scratch = trees->makeScratch();
  const WireTreeSet::Audit audit =
      trees->audit(model, solution, mode, stressMargin, params, scratch);

  WireEmCensus census;
  census.mode = mode;
  census.trees = trees->treeCount();
  census.branches = trees->branchCount();
  census.mortalTrees = audit.mortalTrees;
  census.cyclicComponents = trees->cyclicComponents();
  census.mortalCyclicSegments = audit.mortalCyclicSegments;
  census.transientFallbacks = audit.transientFallbacks;
  census.worstStressRisePa = audit.worstStressRisePa;
  census.stressMarginPa = stressMargin;
  return census;
}

}  // namespace viaduct
