#include "grid/power_grid.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/check.h"
#include "fault/fault.h"
#include "spice/generator.h"
#include "spice/parser.h"

namespace viaduct {
namespace {

Netlist smallGrid(double totalCurrent = 1.0) {
  GridGeneratorConfig cfg;
  cfg.stripesX = 8;
  cfg.stripesY = 8;
  cfg.padCount = 4;
  cfg.totalCurrentAmps = totalCurrent;
  cfg.seed = 7;
  return generatePowerGrid(cfg);
}

TEST(PowerGridModel, BuildsFromGeneratedNetlist) {
  const PowerGridModel model(smallGrid());
  EXPECT_EQ(model.viaArrays().size(), 64u);
  EXPECT_DOUBLE_EQ(model.vdd(), 1.0);
  EXPECT_GT(model.unknownCount(), 100);
}

TEST(PowerGridModel, NominalSolveSatisfiesKcl) {
  const PowerGridModel model(smallGrid());
  const auto sol = model.solveNominal();
  EXPECT_LT(model.kclResidual(sol), 1e-8);
}

TEST(PowerGridModel, VoltagesBelowVddAboveZero) {
  const PowerGridModel model(smallGrid());
  const auto sol = model.solveNominal();
  for (double v : sol.voltages) {
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, model.vdd() + 1e-12);
  }
  EXPECT_GT(sol.worstIrDropFraction, 0.0);
  EXPECT_LT(sol.worstIrDropFraction, 1.0);
}

TEST(PowerGridModel, IrDropScalesWithLoad) {
  const PowerGridModel light(smallGrid(0.5));
  const PowerGridModel heavy(smallGrid(1.0));
  const double dropLight = light.solveNominal().worstIrDrop;
  const double dropHeavy = heavy.solveNominal().worstIrDrop;
  EXPECT_NEAR(dropHeavy, 2.0 * dropLight, 1e-6 * dropHeavy);
}

TEST(PowerGridModel, ViaArrayCurrentsArePositiveSomewhere) {
  const PowerGridModel model(smallGrid());
  const auto sol = model.solveNominal();
  double total = 0.0;
  for (double i : sol.viaArrayCurrents) {
    EXPECT_GE(i, 0.0);
    total += i;
  }
  // All load current passes through via arrays (upper layer -> lower).
  EXPECT_GT(total, 0.9);
}

TEST(PowerGridModel, RejectsZeroResistanceBranches) {
  const Netlist n = parseSpiceString(
      "R1 a b 0\n"
      "V1 p 0 1.0\n"
      "Rp p a 0.01\n"
      "I1 b 0 0.1\n");
  EXPECT_THROW(PowerGridModel{n}, PreconditionError);
}

TEST(PowerGridModel, RejectsFloatingVoltageSource) {
  const Netlist n = parseSpiceString(
      "V1 a b 1.0\n"
      "R1 a b 1.0\n");
  EXPECT_THROW(PowerGridModel{n}, ParseError);
}

TEST(PowerGridModel, RejectsGridWithoutPads) {
  const Netlist n = parseSpiceString("R1 a 0 1.0\nI1 a 0 0.1\n");
  EXPECT_THROW(PowerGridModel{n}, PreconditionError);
}

TEST(Session, OpeningHighCurrentArraysIncreasesIrDrop) {
  // Per-node voltages are not monotone under branch removal in a
  // multi-source grid, but opening the array carrying the largest current
  // must worsen the worst-case IR drop.
  const PowerGridModel model(smallGrid());
  PowerGridModel::Session session(model);
  for (int round = 0; round < 3; ++round) {
    const auto sol = session.solve();
    int victim = 0;
    for (std::size_t m = 1; m < sol.viaArrayCurrents.size(); ++m) {
      if (!session.arrayOpen(static_cast<int>(m)) &&
          sol.viaArrayCurrents[m] > sol.viaArrayCurrents[victim])
        victim = static_cast<int>(m);
    }
    session.openArray(victim);
    EXPECT_GT(session.solve().worstIrDropFraction, sol.worstIrDropFraction);
  }
}

TEST(Session, MatchesFreshModelAfterOpens) {
  // Woodbury-updated session must agree with a from-scratch model whose
  // netlist has those arrays opened.
  Netlist netlist = smallGrid();
  const PowerGridModel model(netlist);
  PowerGridModel::Session session(model);
  const std::vector<std::string> toOpen = {"Rvia_2_3", "Rvia_5_5", "Rvia_0_7"};
  for (const auto& name : toOpen) {
    for (std::size_t m = 0; m < model.viaArrays().size(); ++m) {
      if (model.viaArrays()[m].name == name) {
        session.openArray(static_cast<int>(m));
      }
    }
  }
  // Fresh model: bump those resistors to the same residual conductance.
  const double residual = model.config().openResidualFraction;
  for (auto& r : netlist.mutableResistors()) {
    for (const auto& name : toOpen)
      if (r.name == name) r.ohms /= residual;
  }
  const PowerGridModel reopened(netlist);
  const auto a = session.solve();
  const auto b = reopened.solveNominal();
  ASSERT_EQ(a.voltages.size(), b.voltages.size());
  for (std::size_t i = 0; i < a.voltages.size(); ++i)
    EXPECT_NEAR(a.voltages[i], b.voltages[i], 1e-8);
}

TEST(Session, DegradeArrayIncreasesItsResistanceEffect) {
  const PowerGridModel model(smallGrid());
  PowerGridModel::Session session(model);
  const auto before = session.solve();
  int victim = 0;  // the highest-current array reacts measurably
  for (std::size_t m = 1; m < before.viaArrayCurrents.size(); ++m)
    if (before.viaArrayCurrents[m] > before.viaArrayCurrents[victim])
      victim = static_cast<int>(m);
  session.degradeArray(victim, 2.0);
  const auto after = session.solve();
  EXPECT_GT(after.worstIrDropFraction, before.worstIrDropFraction);
  EXPECT_LT(after.viaArrayCurrents[victim], before.viaArrayCurrents[victim]);
  EXPECT_FALSE(session.arrayOpen(victim));
  session.openArray(victim);
  EXPECT_TRUE(session.arrayOpen(victim));
  EXPECT_THROW(session.openArray(victim), PreconditionError);
}

TEST(Session, MassiveOpeningDrivesIrTowardInfinity) {
  const PowerGridModel model(smallGrid());
  PowerGridModel::Session session(model);
  // Open every array: the lower layer (which holds all loads) loses its
  // supply entirely.
  for (int m = 0; m < 64; ++m) session.openArray(m);
  const auto sol = session.solve();
  EXPECT_GT(sol.worstIrDropFraction, 10.0);
}

TEST(PowerGridModel, FailedSolveHasNoStaleVoltages) {
  // Regression: a failed DC solve used to hand back the last iterate's
  // voltages with only a warning; callers ignoring solverOk read stale
  // (or garbage) values. The failure state is now explicit — voltages are
  // cleared and nodeVoltage() refuses failed solutions.
  const Netlist n = smallGrid();
  const PowerGridModel model(n);
  fault::Registry::instance().arm("woodbury.solve", {.nth = 1});
  const auto sol = model.solveNominal();
  fault::Registry::instance().disarmAll();

  EXPECT_FALSE(sol.solverOk);
  EXPECT_FALSE(sol.solverError.empty());
  EXPECT_TRUE(sol.voltages.empty());
  const Index inner = n.findNode("n1_3_3").value();
  EXPECT_THROW(model.nodeVoltage(inner, sol), PreconditionError);

  // With the fault cleared the same model solves cleanly again.
  const auto healthy = model.solveNominal();
  EXPECT_TRUE(healthy.solverOk);
  EXPECT_FALSE(healthy.voltages.empty());
  EXPECT_GT(model.nodeVoltage(inner, healthy), 0.0);
}

TEST(ScaleLoads, ScalesAllSources) {
  Netlist n = smallGrid(1.0);
  double before = 0.0;
  for (const auto& c : n.currentSources()) before += c.amps;
  scaleLoads(n, 0.25);
  double after = 0.0;
  for (const auto& c : n.currentSources()) after += c.amps;
  EXPECT_NEAR(after, 0.25 * before, 1e-12);
}

TEST(TuneNominalIrDrop, HitsTarget) {
  Netlist n = smallGrid(1.0);
  const double factor = tuneNominalIrDrop(n, 0.06);
  EXPECT_GT(factor, 0.0);
  const PowerGridModel model(n);
  EXPECT_NEAR(model.solveNominal().worstIrDropFraction, 0.06, 1e-9);
}

TEST(TuneNominalIrDrop, FailedNominalSolveIsANumericalError) {
  // A failed solve reports +inf IR drop; tuning must not turn that into a
  // zero load scale (or an internal assertion) but surface the solver error.
  Netlist n = smallGrid(1.0);
  const double before = n.currentSources().front().amps;
  auto& faults = fault::Registry::instance();
  faults.arm("woodbury.solve", {.nth = 1});
  const std::string solverError = PowerGridModel(n).solveNominal().solverError;
  ASSERT_FALSE(solverError.empty());
  faults.disarmAll();
  faults.arm("woodbury.solve", {.nth = 1});
  try {
    tuneNominalIrDrop(n, 0.06);
    ADD_FAILURE() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_NE(std::string(e.what()).find(solverError), std::string::npos)
        << e.what();
  }
  faults.disarmAll();
  EXPECT_EQ(n.currentSources().front().amps, before) << "loads rescaled";
}

TEST(TuneNominalIrDrop, RejectsBadFraction) {
  Netlist n = smallGrid();
  EXPECT_THROW(tuneNominalIrDrop(n, 0.0), PreconditionError);
  EXPECT_THROW(tuneNominalIrDrop(n, 1.0), PreconditionError);
}

}  // namespace
}  // namespace viaduct
