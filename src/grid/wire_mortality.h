// Wire-segment immortality census for a power grid.
//
// The paper restricts EM failures to via arrays, assuming the grid "is
// designed such that spanning voids in wires have a very low probability"
// (§5.2). This module verifies that assumption for a concrete netlist: it
// computes every wire segment's current density at the healthy DC
// operating point and applies the Blech immortality criterion
// (em/blech.h). bench/ablation_wire_em reports the census for the PG
// stand-ins.
// PR 10 extends the census with tree-aware steady-state analysis
// (DESIGN.md §5.14): WireTreeSet decomposes the wire resistors into
// connected interconnect trees once, and audits any DC operating point in
// O(branches) with the linear-time steady-state solver — strictly more
// accurate than the per-segment Blech product because opposing current
// directions along a path cancel their stress contributions.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "em/em_params.h"
#include "em/steady_state.h"
#include "grid/power_grid.h"
#include "spice/netlist.h"

namespace viaduct {

struct WireGeometry {
  /// Wire cross-section area [m²] used to convert branch current to j.
  double crossSectionArea = 2.0e-6 * 0.3e-6;  // 2 um wide, 0.3 um thick
  /// Segment length [m] (one stripe pitch in generated grids).
  double segmentLength = 20e-6;
  /// Resistor-name prefixes identifying wire segments.
  std::vector<std::string> wirePrefixes = {"Rh_", "Rv_"};
};

struct WireMortality {
  int totalWires = 0;
  int mortalWires = 0;
  /// Worst (largest) jL product over all wires [A/m].
  double worstProduct = 0.0;
  /// (jL)_crit used for the verdicts [A/m].
  double productLimit = 0.0;
  /// Largest wire current density seen [A/m²].
  double worstCurrentDensity = 0.0;

  double mortalFraction() const {
    return totalWires == 0 ? 0.0
                           : static_cast<double>(mortalWires) /
                                 static_cast<double>(totalWires);
  }
};

/// Classifies every wire segment of the netlist at the healthy grid's DC
/// operating point. `stressMargin` is (σ_C − σ_T) for the wires [Pa].
WireMortality classifyWires(const Netlist& netlist,
                            const WireGeometry& geometry, double stressMargin,
                            const EmParameters& params);

/// How wire-EM verdicts are computed (tentpole of DESIGN.md §5.14).
///  kTransient   — march the Korhonen PDE to its asymptote per tree (the
///                 reference baseline; path-shaped trees only, others use
///                 the closed form).
///  kSteadyState — closed-form two-pass tree solve, O(branches).
///  kHybrid      — steady-state as an immortality filter; only trees the
///                 filter marks mortal are re-judged transiently (the
///                 paper-accurate configuration at near-steady cost).
enum class SignoffMode { kTransient, kSteadyState, kHybrid };

std::string_view signoffModeName(SignoffMode mode);
/// Accepts "transient" | "steady" | "hybrid" (throws ParseError otherwise).
SignoffMode parseSignoffMode(std::string_view text);

/// Immutable decomposition of a netlist's wire resistors into connected
/// interconnect trees, shared read-only across Monte Carlo threads. Each
/// audit() recomputes only per-branch current densities and the O(n)
/// stress passes; the topology (and the per-tree SteadyStateTreeSolver
/// traversal order) is built once. Components that are not trees (cyclic
/// wire graphs from hand-written netlists) fall back to the per-segment
/// Blech product.
class WireTreeSet {
 public:
  /// Decomposes `netlist`'s wire resistors (by geometry.wirePrefixes).
  /// Resistor terminals on the ground node are treated as distinct
  /// blocking endpoints, not merged.
  static std::shared_ptr<const WireTreeSet> build(const Netlist& netlist,
                                                  const WireGeometry& geometry);

  int treeCount() const { return static_cast<int>(trees_.size()); }
  int branchCount() const { return branchCount_; }
  int cyclicComponents() const { return cyclicComponents_; }
  int cyclicSegments() const {
    return static_cast<int>(segments_.size()) - branchCount_;
  }
  const WireGeometry& geometry() const { return geometry_; }
  /// Stable digest over topology + geometry (checkpoint-key material).
  std::uint64_t digest() const { return digest_; }

  /// One wire resistor: its netlist terminals and conductance.
  struct Segment {
    Index a = kGroundNode;
    Index b = kGroundNode;
    double conductance = 0.0;
  };
  /// Every wire segment in audit order: the tree branches tree by tree
  /// (branchCount() of them), then the cyclic components' segments.
  const std::vector<Segment>& segments() const { return segments_; }

  /// Reusable per-thread buffers for audit(); sized at build.
  struct Scratch {
    /// Signed a→b current density per segment [A/m²], in segments() order.
    std::vector<double> currentDensity;
    std::vector<double> nodeStress;
  };
  Scratch makeScratch() const;

  /// The segments' terminals resolved against one model's reduced system
  /// (PowerGridModel::resolveNode), so an audit reads
  /// DcSolution::voltages by index instead of making two checked
  /// nodeVoltage() calls per segment. Immutable: resolve once per Monte
  /// Carlo run and share it across trials and threads.
  struct Terminals {
    Index unknownCount = 0;
    /// {a, b} per segment, in segments() order.
    std::vector<std::array<PowerGridModel::NodeTerminal, 2>> segments;
  };
  Terminals resolve(const PowerGridModel& model) const;

  struct Audit {
    int mortalTrees = 0;
    int steadySolves = 0;
    int transientSolves = 0;
    /// Hybrid only: trees the steady filter marked mortal and re-judged
    /// transiently.
    int transientFallbacks = 0;
    /// Mortal segments among cyclic (non-tree) components, per-segment
    /// Blech verdicts.
    int mortalCyclicSegments = 0;
    /// Largest steady-state stress rise over σ_T across all trees [Pa].
    double worstStressRisePa = 0.0;
    bool anyMortal() const {
      return mortalTrees > 0 || mortalCyclicSegments > 0;
    }
  };

  /// Audits one DC operating point: wire currents from `solution` (read
  /// through `terminals`, resolved on the solution's model), verdicts per
  /// `mode` against `stressMarginPa` = σ_C − σ_T − σ_pkg. Thread-safe:
  /// all mutable state lives in `scratch`.
  Audit audit(const Terminals& terminals,
              const PowerGridModel::DcSolution& solution, SignoffMode mode,
              double stressMarginPa, const EmParameters& params,
              Scratch& scratch) const;
  /// One-off audit: audit(resolve(model), …).
  Audit audit(const PowerGridModel& model,
              const PowerGridModel::DcSolution& solution, SignoffMode mode,
              double stressMarginPa, const EmParameters& params,
              Scratch& scratch) const;

 private:
  struct Tree {
    SteadyStateTreeSolver solver;
    int branchOffset = 0;  // into segments_
  };

  WireGeometry geometry_;
  std::vector<Tree> trees_;
  int branchCount_ = 0;
  int cyclicComponents_ = 0;
  std::uint64_t digest_ = 0;
  std::size_t maxTreeNodes_ = 0;
  // Tree branches concatenated tree-by-tree (so per-tree spans are
  // contiguous), then the cyclic segments judged by the Blech product.
  std::vector<Segment> segments_;
};

/// Tree-level wire census at the healthy DC operating point — the
/// steady-state/hybrid upgrade of classifyWires().
struct WireEmCensus {
  SignoffMode mode = SignoffMode::kSteadyState;
  int trees = 0;
  int branches = 0;
  int mortalTrees = 0;
  int cyclicComponents = 0;
  int mortalCyclicSegments = 0;
  int transientFallbacks = 0;
  double worstStressRisePa = 0.0;
  double stressMarginPa = 0.0;
  bool passed() const {
    return mortalTrees == 0 && mortalCyclicSegments == 0;
  }
};

WireEmCensus classifyWiresEm(const Netlist& netlist,
                             const WireGeometry& geometry,
                             double stressMargin, const EmParameters& params,
                             SignoffMode mode);

}  // namespace viaduct
