// Power-grid electrical model built from a SPICE netlist.
//
// Reduced nodal analysis: every voltage source must tie a pad node to
// ground (the form used by the IBM power-grid benchmarks), so pad nodes
// have known voltages and are eliminated, leaving an SPD conductance
// system over the unknown nodes. Via-array branches are identified by
// resistor-name prefix ("Rvia" in generated netlists) and can be degraded /
// opened for the EM Monte Carlo through a Woodbury-updated solver.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fault/policy.h"
#include "numerics/woodbury.h"
#include "spice/netlist.h"

namespace viaduct {

struct PowerGridConfig {
  /// Resistor-name prefix marking via-array branches.
  std::string viaArrayPrefix = "Rvia";
  /// IR-drop failure threshold as a fraction of Vdd (the paper: 10 %).
  double irDropThresholdFraction = 0.10;
  /// Residual conductance fraction left when an array is opened, keeping
  /// the system numerically nonsingular while guaranteeing an IR breach.
  double openResidualFraction = 1e-9;
  /// Direct-solver backend and fill ordering for the reduced conductance
  /// system. PG-scale meshes want supernodal+AMD; the defaults keep the
  /// historical (and bitwise-identical) up-looking+RCM pipeline.
  SpdSolverKind gridSolver = SpdSolverKind::kUplooking;
  OrderingChoice gridOrdering = OrderingChoice::kRcm;
  /// Threads for the one-time base factorization (supernodal only; the
  /// factor is bit-identical for every value).
  int factorThreads = 1;
  /// Build one immutable base factorization per model and share it
  /// (read-only) across every Session / Monte Carlo trial, so a trial pays
  /// only its Woodbury deltas instead of a full factorization. Disabling
  /// restores the legacy factor-per-session behavior (ablation/bench).
  bool sharedBaseFactor = true;
  /// Failure policy threaded into the Woodbury solver (update-rejection
  /// recovery) and the failure Session (rebase-and-retry on a failed
  /// incremental solve).
  fault::FailurePolicy policy;
};

/// One via-array site in the grid.
struct ViaArraySite {
  std::string name;
  Index a = kGroundNode;  // unknown-node indices (reduced numbering);
  Index b = kGroundNode;  // kGroundNode if tied to an eliminated node
  double nominalOhms = 0.0;
};

class PowerGridModel {
 public:
  PowerGridModel(const Netlist& netlist, const PowerGridConfig& config);
  explicit PowerGridModel(const Netlist& netlist)
      : PowerGridModel(netlist, PowerGridConfig{}) {}

  Index unknownCount() const { return unknownCount_; }
  double vdd() const { return vdd_; }
  const PowerGridConfig& config() const { return config_; }
  const std::vector<ViaArraySite>& viaArrays() const { return viaArrays_; }

  struct DcSolution {
    std::vector<double> voltages;       // per unknown node
    double worstIrDrop = 0.0;           // max (Vdd - v) [V]
    double worstIrDropFraction = 0.0;   // / Vdd
    std::vector<double> viaArrayCurrents;  // |I| per via-array site [A]
    /// Solver health: false when the direct solve failed (matrix no longer
    /// positive definite, e.g. a fully partitioned grid). The failure state
    /// is explicit: `voltages` is EMPTY and the IR-drop fields are +inf, so
    /// stale or partial node voltages can never be read past a failure
    /// (nodeVoltage() rejects a failed solution outright). `pendingUpdates`
    /// is the number of Woodbury low-rank updates stacked on the base
    /// factorization when the solve ran (0 for a fresh factor).
    bool solverOk = true;
    int pendingUpdates = 0;
    std::string solverError;
  };

  /// Solves the healthy grid (fresh factorization).
  DcSolution solveNominal() const;

  /// Voltage of an original netlist node under a solution: unknown nodes
  /// read from `solution.voltages`, pad nodes return their source value,
  /// ground returns 0.
  double nodeVoltage(Index netlistNode, const DcSolution& solution) const;

  /// A netlist node resolved against the reduced system: the unknown's
  /// index into DcSolution::voltages, or kGroundNode with the node's fixed
  /// voltage (a pad's source value, 0 for ground). Hot loops resolve once
  /// and read by index; nodeVoltage() stays the checked reference.
  struct NodeTerminal {
    Index unknown = kGroundNode;
    double fixedVoltage = 0.0;
    /// The node's voltage under a successful solution's `voltages`; the
    /// same value nodeVoltage() returns.
    double voltage(std::span<const double> voltages) const {
      return unknown >= 0 ? voltages[static_cast<std::size_t>(unknown)]
                          : fixedVoltage;
    }
  };
  NodeTerminal resolveNode(Index netlistNode) const;

  /// A mutable failure session over this grid: degrade via arrays one at a
  /// time and re-evaluate cheaply (Woodbury incremental updates).
  class Session {
   public:
    explicit Session(const PowerGridModel& model);

    /// Multiplies a via array's resistance by `factor` (>1 degrades;
    /// use openArray() for a full open).
    void degradeArray(int arrayIndex, double factor);

    /// Opens a via array (leaves the configured residual conductance).
    void openArray(int arrayIndex);

    bool arrayOpen(int arrayIndex) const;

    /// Current DC solution; `worstIrDropFraction` is +inf if the grid has
    /// become effectively disconnected. When the incremental solve fails
    /// and the config policy allows it, the accumulated updates are folded
    /// into a fresh base factorization and the solve is retried once
    /// (non-const for exactly that recovery path).
    DcSolution solve();

    /// The session's incremental solver (tests compare solve() against
    /// its general solve(rhs) path).
    const WoodburySolver& solver() const { return solver_; }

   private:
    const PowerGridModel& model_;
    WoodburySolver solver_;
    std::vector<double> currentOhms_;
    std::vector<bool> open_;
  };

  /// KCL residual of a solution against the healthy matrix (tests).
  double kclResidual(const DcSolution& solution) const;

  /// Healthy reduced conductance system G v = b: read-only views for
  /// benchmarks and external solver experiments (bench/perf_solvers.cpp
  /// exercises the real stamped system through these instead of a
  /// synthetic stand-in).
  const CsrMatrix& conductanceMatrix() const { return *conductance_; }
  const std::vector<double>& rhsVector() const { return *rhs_; }

  /// The shared base factorization (nullptr when sharedBaseFactor is off).
  std::shared_ptr<const SpdFactor> baseFactor() const { return baseFactor_; }

  /// The incidence columns solved on baseFactor() by every Session so far
  /// (nullptr when sharedBaseFactor is off).
  std::shared_ptr<const IncidenceColumnCache> columnCache() const {
    return columnCache_;
  }

  /// Stable digest of the full electrical system (reduced conductance
  /// matrix, loads, Vdd, via-array sites). Two models with the same digest
  /// produce the same Monte Carlo trials; used to key checkpoint snapshots
  /// so a stale snapshot is rejected rather than silently resumed.
  std::uint64_t structureDigest() const;

 private:
  friend class Session;
  DcSolution evaluate(const WoodburySolver& solver,
                      const std::vector<double>& arrayOhms) const;

  /// A per-session/per-trial incremental solver bound to rhs_. Shared-base
  /// mode adopts the model's immutable factor, base solution and column
  /// cache (O(1)); otherwise the solver factors a private copy and solves
  /// rhs_ on it, like the legacy pipeline.
  WoodburySolver makeSolver() const;

  PowerGridConfig config_;
  Index unknownCount_ = 0;
  double vdd_ = 0.0;
  /// Healthy reduced system, behind a shared_ptr so shared-base solvers
  /// can alias it without copying.
  std::shared_ptr<const CsrMatrix> conductance_;
  std::shared_ptr<const SpdFactor> baseFactor_;
  /// Load + pad injections, and its solution on baseFactor_ (null when
  /// sharedBaseFactor is off), solved once and shared by every Session.
  std::shared_ptr<const std::vector<double>> rhs_;
  std::shared_ptr<const std::vector<double>> rhsBaseSolution_;
  /// Incidence columns solved on baseFactor_, shared by every Session the
  /// same way; bounded by the factor's own storage (null with no shared
  /// base).
  std::shared_ptr<IncidenceColumnCache> columnCache_;
  std::vector<ViaArraySite> viaArrays_;
  // Netlist-node -> reduced-system mapping (for nodeVoltage()).
  std::vector<Index> nodeToUnknown_;
  std::vector<double> nodeKnownVoltage_;
  std::vector<bool> nodeIsKnown_;
};

/// Scales every current-source load by `factor` (in place).
void scaleLoads(Netlist& netlist, double factor);

/// Scales loads so the healthy grid's worst IR drop equals
/// `targetFraction`·Vdd (DC response is linear in the loads, so one solve
/// suffices). Returns the applied factor. This mirrors the paper's "tuned
/// ... to obtain a reasonable IR drop" step.
double tuneNominalIrDrop(Netlist& netlist, double targetFraction,
                         const PowerGridConfig& config = PowerGridConfig{});

}  // namespace viaduct
