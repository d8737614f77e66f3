// Electrical model of an n×n via array with current crowding.
//
// The array is discretized as two n×n plates of nodes (upper metal above
// each via, lower metal below each via) connected by the via resistances.
// Plate nodes are linked laterally by sheet-resistance segments. Current
// enters from a feed rail at the upper wire's −y edge and leaves through a
// drain rail at the lower wire's +x edge — the "turn the corner" flow of a
// power-grid intersection, which produces the edge/corner current crowding
// reported for multi-via structures [Li et al., SISPAD'12].
//
// Failing a via removes its branch; the remaining vias' currents
// redistribute (and increase), which is what couples redundancy to EM in
// Algorithm 1.
//
// Solver architecture (DESIGN.md §5.9): the healthy-array system is
// stamped and Cholesky-factored ONCE per configuration into an immutable
// shared base. Copy-constructing a network shares that base, so a Monte
// Carlo trial's handle is cheap; the first failVia() clones the base
// factor (copy-on-write) and every failure after that is a rank-1
// Sherman–Morrison downdate of the clone — O(N²) per step instead of the
// O(N³) from-scratch factorization, N = 2n²+1. The solved node-voltage
// vector is memoized per failure state, so viaCurrents() and
// effectiveResistance() share a single solve. Every incremental solve is
// residual-guarded: when accumulated downdate roundoff (or a rejected
// downdate, or an injected "network.resolve" fault under a permissive
// FailurePolicy) breaks the tolerance, the current state is re-stamped and
// factored from scratch instead of aborting the trial. A from-scratch
// dense LU solve of stampedMatrix() is kept only as a test and bench
// oracle (bench/network_lu_oracle.h).
#pragma once

#include <memory>
#include <vector>

#include "fault/policy.h"
#include "numerics/dense.h"
#include "numerics/dense_cholesky.h"

namespace viaduct {

struct ViaArrayNetworkConfig {
  int n = 4;
  /// Nominal resistance of the WHOLE healthy array [Ω]; one via is n²×this.
  double arrayResistanceOhms = 0.4;
  /// Plate sheet resistance [Ω/sq] for the lateral segments.
  double sheetResistancePerSquare = 0.02;
  /// Total current pushed through the array [A].
  double totalCurrentAmps = 0.01;

  /// Normalized KCL backward error
  /// ‖Gv − b‖ / ‖ |G||v| + |b| ‖ above which the downdated factor is
  /// discarded and re-factored from scratch.
  double refreshResidualTolerance = 1e-10;

  /// Recovery behavior of the incremental solve: with the policy enabled
  /// and `refactorOnWoodburyFailure`, an injected "network.resolve" fault
  /// degrades to a fresh factorization instead of failing the trial.
  /// Rejected downdates and residual breaches always refresh (they are
  /// accuracy guards, not failures, and stay deterministic across policy
  /// toggles).
  fault::FailurePolicy policy;
};

class ViaArrayNetwork {
 public:
  explicit ViaArrayNetwork(const ViaArrayNetworkConfig& config);

  /// Copies share the immutable healthy-array base (matrix, factor, and
  /// solved voltages); per-instance failure state is independent. Copying
  /// a healthy network is O(n²) bookkeeping — the intended Monte Carlo
  /// pattern is one healthy prototype copied per trial. Copying a network
  /// with failures deep-copies its downdated factor.
  ViaArrayNetwork(const ViaArrayNetwork&) = default;
  ViaArrayNetwork& operator=(const ViaArrayNetwork&) = default;

  int viaCount() const { return config_.n * config_.n; }
  int aliveCount() const { return aliveCount_; }
  bool viaAlive(int via) const;

  /// Marks a via failed (idempotent-checked: failing twice throws) and
  /// downdates the copy-on-write factor in O(N²).
  void failVia(int via);

  /// Restores all vias (drops back to the shared base factor).
  void reset();

  /// Per-via currents [A] under the configured total current; failed vias
  /// carry 0. Throws NumericalError if no conducting path remains.
  std::vector<double> viaCurrents() const;

  /// The same currents written into `currents` (resized to the via count),
  /// so a caller that re-solves per failure reuses one buffer.
  void viaCurrents(std::vector<double>& currents) const;

  /// Effective feed-to-drain resistance of the array network [Ω].
  /// Infinite (throws NumericalError) once all vias have failed.
  double effectiveResistance() const;

  /// Healthy-array effective resistance (cached at construction).
  double nominalResistance() const { return base_->nominalResistance; }

  /// Eq. (5): idealized fractional resistance increase when nF of n² equal
  /// parallel vias fail: ΔR/R = nF/(n² − nF). Static, for analysis/tests.
  static double idealResistanceIncrease(int totalVias, int failedVias);

  /// Via index helpers (row-major: via = row*n + col).
  int viaIndex(int row, int col) const;

  /// The dense conductance system of the CURRENT alive state. Node layout:
  /// upper plate 0..n²-1, lower plate n²..2n²-1, feed rail 2n² (the drain
  /// rail is ground). The solver stamps it only when it re-factors from
  /// scratch; the LU test oracle solves it directly.
  DenseMatrix stampedMatrix() const;

 private:
  /// Immutable healthy-array state shared by every copy of a network.
  struct Base {
    std::vector<double> rhs;             // current injection at the feed
    DenseCholeskyFactor healthyFactor;
    std::vector<double> healthyVoltages;
    double nominalResistance = 0.0;
    double gVia = 0.0;
  };

  /// Memoized node voltages of the current failure state; one solve per
  /// state regardless of how many viaCurrents()/effectiveResistance()
  /// queries follow. NOT thread-safe: a network instance belongs to one
  /// trial/thread (copies are independent).
  const std::vector<double>& nodeVoltages() const;

  /// Incremental resolve: shared base factor for the healthy state, the
  /// downdated copy-on-write factor otherwise, with the residual-guarded
  /// refactor fallback.
  void solveIncremental(std::vector<double>& v) const;

  /// KCL residual ‖Gv − b‖₂/‖b‖₂ of the current topology, computed from
  /// the stamped branches in O(n²) (never forms the dense matrix).
  double topologyResidual(const std::vector<double>& v) const;

  ViaArrayNetworkConfig config_;
  std::shared_ptr<const Base> base_;
  std::vector<bool> alive_;
  int aliveCount_ = 0;

  // Copy-on-write incremental state.
  mutable DenseCholeskyFactor factor_;  // clone of base factor + downdates
  bool ownFactor_ = false;
  mutable bool factorStale_ = false;  // rejected downdate: refresh on solve

  // Per-failure-state solve memo.
  mutable std::vector<double> voltages_;
  mutable bool voltagesValid_ = false;

  // Step scratch (avoids per-step allocations on the hot path).
  mutable std::vector<double> scratchA_;
  mutable std::vector<double> scratchB_;
};

}  // namespace viaduct
