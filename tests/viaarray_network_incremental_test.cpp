// Property tests of the incremental (shared-base + rank-1 downdate)
// network solver against a from-scratch dense LU oracle (DESIGN.md §5.9,
// bench/network_lu_oracle.h): copies of one healthy prototype — the way
// the characterizer uses the network — must agree with the oracle step by
// step over random failure sequences, survive the all-but-one-failed
// extreme, fail like the oracle on a fully open array, and degrade to a
// fresh factorization — not a lost trial — under injected
// "network.resolve" faults when the failure policy allows it.
#include "viaarray/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "network_lu_oracle.h"
#include "obs/obs.h"

namespace viaduct {
namespace {

ViaArrayNetworkConfig configFor(int n) {
  ViaArrayNetworkConfig cfg;
  cfg.n = n;
  cfg.arrayResistanceOhms = 0.4;
  cfg.sheetResistancePerSquare = 0.02;
  cfg.totalCurrentAmps = 0.01;
  return cfg;
}

/// Random permutation of all via indices: a full failure order.
std::vector<int> failureOrder(int count, Rng& rng) {
  std::vector<int> order(static_cast<std::size_t>(count));
  std::iota(order.begin(), order.end(), 0);
  for (int i = count - 1; i > 0; --i) {
    const auto j = static_cast<int>(
        rng.uniformInt(static_cast<std::uint64_t>(i + 1)));
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(j)]);
  }
  return order;
}

class ViaArrayNetworkIncremental : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Registry::instance().disarmAll();
    fault::Registry::instance().setSeed(0);
  }
  void TearDown() override { fault::Registry::instance().disarmAll(); }
};

TEST_F(ViaArrayNetworkIncremental, MatchesExactOverRandomFailureSequences) {
  Rng rng(24601);
  for (const int n : {2, 3, 4, 5, 6, 9}) {
    const ViaArrayNetworkConfig cfg = configFor(n);
    const ViaArrayNetwork prototype(cfg);
    const int orders = n <= 6 ? 8 : 2;
    for (int o = 0; o < orders; ++o) {
      // One Monte Carlo trial: a copy of the shared healthy prototype.
      ViaArrayNetwork net = prototype;
      const auto order = failureOrder(net.viaCount(), rng);
      // Compare at every step down to a single surviving via (the
      // all-but-one-failed edge case is the last iteration).
      for (std::size_t step = 0; step + 1 < order.size(); ++step) {
        net.failVia(order[step]);
        const NetworkLuSolution exact = luOracleSolve(net, cfg);
        const double r = net.effectiveResistance();
        ASSERT_NEAR(r, exact.effectiveResistance,
                    1e-10 * std::max(1.0, std::abs(exact.effectiveResistance)))
            << "n=" << n << " order=" << o << " step=" << step;
        const auto currents = net.viaCurrents();
        ASSERT_EQ(currents.size(), exact.viaCurrents.size());
        for (std::size_t v = 0; v < currents.size(); ++v) {
          ASSERT_NEAR(currents[v], exact.viaCurrents[v], 1e-10)
              << "n=" << n << " order=" << o << " step=" << step
              << " via=" << v;
        }
        // Conservation: alive currents always sum to the injected total.
        const double sum =
            std::accumulate(currents.begin(), currents.end(), 0.0);
        ASSERT_NEAR(sum, 0.01, 1e-10);
      }
    }
    // The prototype itself never left the healthy state.
    EXPECT_EQ(prototype.aliveCount(), prototype.viaCount());
    EXPECT_NEAR(prototype.effectiveResistance(),
                luOracleSolve(prototype, cfg).effectiveResistance,
                1e-10 * prototype.effectiveResistance());
  }
}

TEST_F(ViaArrayNetworkIncremental, ResetRejoinsSharedBase) {
  ViaArrayNetwork net(configFor(4));
  const double nominal = net.effectiveResistance();
  net.failVia(0);
  net.failVia(5);
  EXPECT_GT(net.effectiveResistance(), nominal);
  net.reset();
  EXPECT_EQ(net.aliveCount(), net.viaCount());
  EXPECT_DOUBLE_EQ(net.effectiveResistance(), nominal);
}

TEST_F(ViaArrayNetworkIncremental, CopiesShareBaseButFailIndependently) {
  ViaArrayNetwork proto(configFor(4));
  ViaArrayNetwork a = proto;
  ViaArrayNetwork b = proto;
  a.failVia(0);
  EXPECT_EQ(b.aliveCount(), b.viaCount());
  EXPECT_DOUBLE_EQ(b.effectiveResistance(), proto.effectiveResistance());
  // Via 1 is not a symmetry image of via 0 (15 would be, under the
  // feed/drain reflection), so the resistances must differ.
  b.failVia(1);
  EXPECT_NE(a.effectiveResistance(), b.effectiveResistance());
  // Copying a partially failed network carries its state along.
  ViaArrayNetwork c = a;
  EXPECT_EQ(c.aliveCount(), a.aliveCount());
  EXPECT_DOUBLE_EQ(c.effectiveResistance(), a.effectiveResistance());
}

TEST_F(ViaArrayNetworkIncremental, FullFailureThrowsOnBothPaths) {
  const ViaArrayNetworkConfig cfg = configFor(2);
  ViaArrayNetwork net(cfg);
  for (int v = 0; v < net.viaCount(); ++v) net.failVia(v);
  EXPECT_THROW(net.effectiveResistance(), NumericalError);
  EXPECT_THROW(net.viaCurrents(), NumericalError);
  EXPECT_THROW(luOracleSolve(net, cfg), NumericalError);
}

TEST_F(ViaArrayNetworkIncremental, MemoizesSolvePerFailureState) {
  auto& solves = obs::Registry::instance().counter("viaarray.network_solves");
  ViaArrayNetwork net(configFor(4));
  net.failVia(3);
  const auto before = solves.value();
  net.effectiveResistance();
  net.viaCurrents();
  net.viaCurrents();
  net.effectiveResistance();
  // One failure state, many queries: exactly one solve.
  EXPECT_EQ(solves.value(), before + 1);
  net.failVia(7);
  net.effectiveResistance();
  net.viaCurrents();
  EXPECT_EQ(solves.value(), before + 2);
}

TEST_F(ViaArrayNetworkIncremental, OneDowndatePerFailureNoRefactors) {
  auto& downdates = obs::Registry::instance().counter("viaarray.downdates");
  auto& refactors = obs::Registry::instance().counter("viaarray.refactors");
  const auto d0 = downdates.value();
  const auto r0 = refactors.value();
  Rng rng(7);
  ViaArrayNetwork net(configFor(6));
  const auto order = failureOrder(net.viaCount(), rng);
  for (std::size_t step = 0; step + 1 < order.size(); ++step) {
    net.failVia(order[step]);
    net.effectiveResistance();
  }
  EXPECT_EQ(downdates.value() - d0,
            static_cast<std::uint64_t>(net.viaCount() - 1));
  // A healthy sequence at this size never trips the residual guard.
  EXPECT_EQ(refactors.value(), r0);
}

TEST_F(ViaArrayNetworkIncremental, InjectedFaultDegradesToRefactor) {
  auto& reg = fault::Registry::instance();
  auto& degraded =
      obs::Registry::instance().counter("viaarray.fault_degraded_solves");
  auto& refactors = obs::Registry::instance().counter("viaarray.refactors");
  reg.arm("network.resolve", {.probability = 1.0});
  const auto g0 = degraded.value();
  const auto r0 = refactors.value();

  const ViaArrayNetworkConfig cfg = configFor(4);  // policy enabled
  ViaArrayNetwork net(cfg);
  net.failVia(2);
  const double r = net.effectiveResistance();
  EXPECT_GT(degraded.value(), g0);
  EXPECT_GT(refactors.value(), r0);
  // The degraded solve still produces the right answer.
  EXPECT_NEAR(r, luOracleSolve(net, cfg).effectiveResistance, 1e-10);
}

TEST_F(ViaArrayNetworkIncremental, InjectedFaultThrowsUnderDisabledPolicy) {
  auto& reg = fault::Registry::instance();
  reg.arm("network.resolve", {.probability = 1.0});
  ViaArrayNetworkConfig cfg = configFor(4);
  cfg.policy = fault::FailurePolicy::disabled();
  ViaArrayNetwork net(cfg);
  net.failVia(2);
  EXPECT_THROW(net.effectiveResistance(), NumericalError);
}

TEST_F(ViaArrayNetworkIncremental, HealthyStateServedFromMemoEvenUnderFault) {
  // The healthy-state solution is computed once at construction and
  // restored by reset(), so healthy queries never re-enter the solver —
  // an armed fault cannot touch them.
  auto& reg = fault::Registry::instance();
  ViaArrayNetwork net(configFor(3));  // memo seeded at construction
  reg.arm("network.resolve", {.probability = 1.0});
  net.failVia(0);
  net.reset();  // restores the healthy memo
  EXPECT_NO_THROW(net.effectiveResistance());
}

TEST_F(ViaArrayNetworkIncremental, TightToleranceForcesRefactorsButAgrees) {
  // An absurdly tight residual tolerance makes the guard fire on roundoff;
  // the refresh path must keep the answers identical to the LU oracle's,
  // only slower. (After a fresh factorization the residual is within
  // machine roundoff of the backward-stable optimum, so the post-refresh
  // check passes and nothing throws.)
  ViaArrayNetworkConfig cfg = configFor(5);
  cfg.refreshResidualTolerance = 1e-18;
  ViaArrayNetwork net(cfg);
  auto& refactors = obs::Registry::instance().counter("viaarray.refactors");
  const auto r0 = refactors.value();
  Rng rng(99);
  const auto order = failureOrder(net.viaCount(), rng);
  bool threw = false;
  for (std::size_t step = 0; step + 1 < order.size(); ++step) {
    net.failVia(order[step]);
    try {
      EXPECT_NEAR(net.effectiveResistance(),
                  luOracleSolve(net, cfg).effectiveResistance, 1e-9);
    } catch (const NumericalError&) {
      // Acceptable only if even a fresh factor can't hit 1e-18 — which is
      // the expected outcome for most steps; the point is determinism, not
      // success.
      threw = true;
    }
  }
  // The guard must have fired at least once (1e-18 is below achievable).
  EXPECT_TRUE(refactors.value() > r0 || threw);
}

}  // namespace
}  // namespace viaduct
