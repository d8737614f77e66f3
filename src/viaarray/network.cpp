#include "viaarray/network.h"

#include <cmath>

#include "common/check.h"
#include "fault/fault.h"
#include "obs/obs.h"

namespace viaduct {

namespace {

// Node layout for the dense solve:
//   0 .. n²-1        upper plate nodes (row-major)
//   n² .. 2n²-1      lower plate nodes
//   2n²              feed rail (current injected here)
// The drain rail is ground (eliminated).
//
// One topology walk shared by the matrix stamping and the (matrix-free)
// KCL residual: `branch(a, b, g)` is called once per two-terminal
// conductance, with b < 0 denoting ground.
template <typename Fn>
void forEachBranch(const ViaArrayNetworkConfig& config,
                   const std::vector<bool>& alive, Fn&& branch) {
  const int n = config.n;
  const int plate = n * n;
  const int feed = 2 * plate;
  const double gVia =
      1.0 / (config.arrayResistanceOhms * static_cast<double>(plate));
  // Lateral plate segments: one square per pitch step per track.
  const double gSheet = config.sheetResistancePerSquare > 0.0
                            ? 1.0 / config.sheetResistancePerSquare
                            : 0.0;
  // Rail hookups use a half-segment. The degenerate n == 1 case with no
  // sheet segments is handled by the 1e6 rail conductances (they cancel
  // out of relative comparisons).
  const double gRail = gSheet > 0.0 ? 2.0 * gSheet : 1e6;

  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      const int u = r * n + c;
      const int l = plate + r * n + c;
      if (alive[static_cast<std::size_t>(u)]) branch(u, l, gVia);
      if (gSheet > 0.0) {
        if (c + 1 < n) {
          branch(u, r * n + c + 1, gSheet);
          branch(l, plate + r * n + c + 1, gSheet);
        }
        if (r + 1 < n) {
          branch(u, (r + 1) * n + c, gSheet);
          branch(l, plate + (r + 1) * n + c, gSheet);
        }
      }
      // Feed rail ties to the upper plate's -y edge (row 0).
      if (r == 0) branch(feed, u, gRail);
      // Drain (ground) ties to the lower plate's +x edge (col n-1).
      if (c == n - 1) branch(l, -1, gRail);
    }
  }
}

}  // namespace

ViaArrayNetwork::ViaArrayNetwork(const ViaArrayNetworkConfig& config)
    : config_(config) {
  VIADUCT_REQUIRE(config.n >= 1);
  VIADUCT_REQUIRE(config.arrayResistanceOhms > 0.0);
  VIADUCT_REQUIRE(config.sheetResistancePerSquare >= 0.0);
  VIADUCT_REQUIRE(config.totalCurrentAmps > 0.0);
  VIADUCT_REQUIRE(config.refreshResidualTolerance > 0.0);
  alive_.assign(static_cast<std::size_t>(viaCount()), true);
  aliveCount_ = viaCount();

  // Build the immutable shared base: the healthy system stamped, factored
  // and solved exactly once per configuration. Every copy of this network
  // shares it.
  const int plate = config_.n * config_.n;
  const int feed = 2 * plate;
  const auto total = static_cast<std::size_t>(2 * plate + 1);
  auto base = std::make_shared<Base>();
  base->gVia =
      1.0 / (config_.arrayResistanceOhms * static_cast<double>(plate));
  base->rhs.assign(total, 0.0);
  base->rhs[static_cast<std::size_t>(feed)] = config_.totalCurrentAmps;
  {
    VIADUCT_SPAN("viaarray.base_factor");
    VIADUCT_COUNTER_ADD("viaarray.base_factor_builds", 1);
    base->healthyFactor = DenseCholeskyFactor(stampedMatrix());
    base->healthyVoltages = base->healthyFactor.solve(base->rhs);
  }
  base->nominalResistance =
      base->healthyVoltages[static_cast<std::size_t>(feed)] /
      config_.totalCurrentAmps;
  base_ = std::move(base);
  voltages_ = base_->healthyVoltages;
  voltagesValid_ = true;
}

void ViaArrayNetwork::reset() {
  alive_.assign(static_cast<std::size_t>(viaCount()), true);
  aliveCount_ = viaCount();
  factor_ = DenseCholeskyFactor();
  ownFactor_ = false;
  factorStale_ = false;
  voltages_ = base_->healthyVoltages;
  voltagesValid_ = true;
}

bool ViaArrayNetwork::viaAlive(int via) const {
  VIADUCT_REQUIRE(via >= 0 && via < viaCount());
  return alive_[static_cast<std::size_t>(via)];
}

void ViaArrayNetwork::failVia(int via) {
  VIADUCT_REQUIRE(via >= 0 && via < viaCount());
  VIADUCT_REQUIRE_MSG(alive_[static_cast<std::size_t>(via)],
                      "via already failed");
  alive_[static_cast<std::size_t>(via)] = false;
  --aliveCount_;
  voltagesValid_ = false;

  if (aliveCount_ == 0) {
    // Singular system: no downdate (and no solve — nodeVoltages() throws).
    factorStale_ = true;
    return;
  }
  if (!ownFactor_) {
    // Copy-on-write: clone the shared healthy factor on first failure.
    factor_ = base_->healthyFactor;
    ownFactor_ = true;
  }
  if (factorStale_) return;  // already awaiting a refresh; keep it stale
  // Removing a via is the rank-1 conductance change
  //   G ← G − gVia (e_u − e_l)(e_u − e_l)ᵀ,
  // a Sherman–Morrison downdate of the Cholesky factor.
  const int plate = config_.n * config_.n;
  scratchA_.assign(static_cast<std::size_t>(2 * plate + 1), 0.0);
  std::vector<double>& incidence = scratchA_;
  incidence[static_cast<std::size_t>(via)] = 1.0;
  incidence[static_cast<std::size_t>(plate + via)] = -1.0;
  try {
    factor_.rankOneUpdate(incidence, -base_->gVia);
    VIADUCT_COUNTER_ADD("viaarray.downdates", 1);
  } catch (const NumericalError&) {
    // A rejected downdate (accumulated roundoff near singularity) is not a
    // trial failure: degrade to a from-scratch factorization at the next
    // solve. Deterministic — independent of the failure policy.
    factorStale_ = true;
  }
}

int ViaArrayNetwork::viaIndex(int row, int col) const {
  VIADUCT_REQUIRE(row >= 0 && row < config_.n && col >= 0 && col < config_.n);
  return row * config_.n + col;
}

double ViaArrayNetwork::idealResistanceIncrease(int totalVias,
                                                int failedVias) {
  VIADUCT_REQUIRE(totalVias >= 1 && failedVias >= 0 &&
                  failedVias < totalVias);
  return static_cast<double>(failedVias) /
         static_cast<double>(totalVias - failedVias);
}

DenseMatrix ViaArrayNetwork::stampedMatrix() const {
  const auto total = static_cast<std::size_t>(2 * config_.n * config_.n + 1);
  DenseMatrix g(total, total);
  forEachBranch(config_, alive_, [&g](int a, int b, double cond) {
    if (a >= 0)
      g(static_cast<std::size_t>(a), static_cast<std::size_t>(a)) += cond;
    if (b >= 0)
      g(static_cast<std::size_t>(b), static_cast<std::size_t>(b)) += cond;
    if (a >= 0 && b >= 0) {
      g(static_cast<std::size_t>(a), static_cast<std::size_t>(b)) -= cond;
      g(static_cast<std::size_t>(b), static_cast<std::size_t>(a)) -= cond;
    }
  });
  return g;
}

double ViaArrayNetwork::topologyResidual(const std::vector<double>& v) const {
  // r = G v − b accumulated branch by branch in O(n²): the dense matrix is
  // never formed, which keeps the per-solve residual guard far cheaper
  // than the triangular solves it protects. Normalized backward-error
  // style, ‖r‖ / ‖ |G||v| + |b| ‖, so that ill-scaled stampings (the 1e6
  // rail conductance of the zero-sheet degenerate case) don't flag a
  // perfectly backward-stable solve.
  const std::vector<double>& rhs = base_->rhs;
  scratchA_.resize(rhs.size());
  scratchB_.resize(rhs.size());
  std::vector<double>& r = scratchA_;
  std::vector<double>& scale = scratchB_;
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] = -rhs[i];
    scale[i] = std::abs(rhs[i]);
  }
  forEachBranch(config_, alive_, [&](int a, int b, double cond) {
    const double va = a >= 0 ? v[static_cast<std::size_t>(a)] : 0.0;
    const double vb = b >= 0 ? v[static_cast<std::size_t>(b)] : 0.0;
    const double flow = cond * (va - vb);
    const double mag = cond * (std::abs(va) + std::abs(vb));
    if (a >= 0) {
      r[static_cast<std::size_t>(a)] += flow;
      scale[static_cast<std::size_t>(a)] += mag;
    }
    if (b >= 0) {
      r[static_cast<std::size_t>(b)] -= flow;
      scale[static_cast<std::size_t>(b)] += mag;
    }
  });
  double rr = 0.0;
  double ss = 0.0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    rr += r[i] * r[i];
    ss += scale[i] * scale[i];
  }
  return ss > 0.0 ? std::sqrt(rr / ss) : std::sqrt(rr);
}

void ViaArrayNetwork::solveIncremental(std::vector<double>& v) const {
  bool forceRefresh = false;
  if (fault::shouldInject("network.resolve")) {
    // FailurePolicy tie-in: under a permissive policy a failed incremental
    // solve degrades to a fresh factorization of the current state instead
    // of aborting the trial; otherwise it surfaces as a NumericalError, the
    // same type as the organic all-vias-failed singularity, so level-1
    // trial salvage/discard handling treats both alike.
    if (ownFactor_ && config_.policy.enabled &&
        config_.policy.refactorOnWoodburyFailure) {
      VIADUCT_COUNTER_ADD("viaarray.fault_degraded_solves", 1);
      forceRefresh = true;
    } else {
      throw NumericalError("via array network solve failed (injected fault)");
    }
  }
  if (!ownFactor_) {
    // Healthy state (normally served by the memo): shared base solution.
    v = base_->healthyVoltages;
    return;
  }
  const auto refresh = [this] {
    VIADUCT_SPAN("viaarray.network_refactor");
    VIADUCT_COUNTER_ADD("viaarray.refactors", 1);
    factor_.factor(stampedMatrix());  // throws NumericalError when singular
    factorStale_ = false;
  };
  if (factorStale_ || forceRefresh) refresh();
  v.resize(base_->rhs.size());
  factor_.solve(base_->rhs, v);
  // Residual guard: downdate roundoff accumulates over a trial's failure
  // sequence; when it breaches the tolerance the state is re-factored from
  // scratch (counted, so the collapse in factorizations stays observable).
  const double residual = topologyResidual(v);
  if (!(residual <= config_.refreshResidualTolerance)) {
    refresh();
    factor_.solve(base_->rhs, v);
    const double after = topologyResidual(v);
    if (!(after <= config_.refreshResidualTolerance)) {
      throw NumericalError(
          "via array network residual above tolerance after a fresh "
          "factorization");
    }
  }
}

const std::vector<double>& ViaArrayNetwork::nodeVoltages() const {
  if (aliveCount_ == 0)
    throw NumericalError("via array fully failed: no conducting path");
  if (!voltagesValid_) {
    VIADUCT_COUNTER_ADD("viaarray.network_solves", 1);
    solveIncremental(voltages_);
    voltagesValid_ = true;
  }
  return voltages_;
}

std::vector<double> ViaArrayNetwork::viaCurrents() const {
  std::vector<double> currents;
  viaCurrents(currents);
  return currents;
}

void ViaArrayNetwork::viaCurrents(std::vector<double>& currents) const {
  const std::vector<double>& v = nodeVoltages();
  const int plate = config_.n * config_.n;
  currents.assign(static_cast<std::size_t>(plate), 0.0);
  for (int i = 0; i < plate; ++i) {
    if (!alive_[static_cast<std::size_t>(i)]) continue;
    currents[static_cast<std::size_t>(i)] =
        (v[static_cast<std::size_t>(i)] -
         v[static_cast<std::size_t>(plate + i)]) *
        base_->gVia;
  }
}

double ViaArrayNetwork::effectiveResistance() const {
  const std::vector<double>& v = nodeVoltages();
  const int feed = 2 * config_.n * config_.n;
  return v[static_cast<std::size_t>(feed)] / config_.totalCurrentAmps;
}

}  // namespace viaduct
