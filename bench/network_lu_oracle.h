// From-scratch dense LU oracle for the via-array crowding network, shared
// between the level-1 solver bench (bench/perf_viaarray.cpp) and the
// solver's property tests (tests/viaarray_network_incremental_test.cpp).
//
// ViaArrayNetwork solves only by rank-1 downdates of one shared Cholesky
// factor (DESIGN.md §5.9). This oracle re-stamps the network's CURRENT
// failure state (ViaArrayNetwork::stampedMatrix()) and LU-solves it with
// partial pivoting, sharing nothing with the downdate path but the stamp.
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "numerics/dense.h"
#include "viaarray/network.h"

namespace viaduct {

struct NetworkLuSolution {
  /// Per-via currents [A]; failed vias carry 0.
  std::vector<double> viaCurrents;
  /// Feed-to-drain resistance [Ω].
  double effectiveResistance = 0.0;
};

/// Solves `net`'s current failure state from scratch. `config` must be the
/// configuration `net` was built from (the oracle reads the injected
/// current and the via conductance from it). Throws NumericalError once no
/// via is left, like the network itself.
inline NetworkLuSolution luOracleSolve(const ViaArrayNetwork& net,
                                       const ViaArrayNetworkConfig& config) {
  VIADUCT_REQUIRE(net.viaCount() == config.n * config.n);
  if (net.aliveCount() == 0)
    throw NumericalError("via array fully failed: no conducting path");
  const int plate = config.n * config.n;
  const auto feed = static_cast<std::size_t>(2 * plate);
  std::vector<double> rhs(feed + 1, 0.0);
  rhs[feed] = config.totalCurrentAmps;
  const std::vector<double> v = net.stampedMatrix().solve(rhs);

  const double gVia =
      1.0 / (config.arrayResistanceOhms * static_cast<double>(plate));
  NetworkLuSolution out;
  out.viaCurrents.assign(static_cast<std::size_t>(plate), 0.0);
  for (int i = 0; i < plate; ++i) {
    if (!net.viaAlive(i)) continue;
    out.viaCurrents[static_cast<std::size_t>(i)] =
        (v[static_cast<std::size_t>(i)] -
         v[static_cast<std::size_t>(plate + i)]) *
        gVia;
  }
  out.effectiveResistance = v[feed] / config.totalCurrentAmps;
  return out;
}

}  // namespace viaduct
