#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/check.h"
#include "grid/power_grid.h"
#include "grid/wire_mortality.h"
#include "spice/generator.h"

namespace viaduct {
namespace {

Netlist grid(double amps = 1.0) {
  GridGeneratorConfig cfg;
  cfg.stripesX = 8;
  cfg.stripesY = 8;
  cfg.totalCurrentAmps = amps;
  cfg.seed = 77;
  return generatePowerGrid(cfg);
}

/// A three-node ladder whose "Rh_stub" wire dead-ends into an unloaded
/// node and therefore carries exactly zero current at DC.
Netlist ladderWithDeadEnd() {
  Netlist n;
  const Index pad = n.internNode("pad_0");
  const Index mid = n.internNode("mid");
  const Index stub = n.internNode("stub");
  n.addVoltageSource("Vdd", pad, kGroundNode, 1.0);
  n.addResistor("Rh_feed", pad, mid, 1.0);
  n.addResistor("Rh_stub", mid, stub, 1.0);
  n.addCurrentSource("Iload", mid, kGroundNode, 0.5);
  return n;
}

TEST(WireMortality, CensusCountsAllWireSegments) {
  const Netlist n = grid();
  const auto census = classifyWires(n, WireGeometry{}, 100e6,
                                    EmParameters{});
  // 8x8 grid: 7*8 upper + 8*7 lower = 112 wire segments.
  EXPECT_EQ(census.totalWires, 112);
  EXPECT_GT(census.productLimit, 0.0);
  EXPECT_GT(census.worstProduct, 0.0);
}

TEST(WireMortality, GeneratedGridsAreMostlyImmortalStressBlind) {
  // The paper's assumption: grid wires are designed Blech-safe — under
  // the traditional stress-blind margin (the full sigma_C, as a foundry
  // characterization would derive it).
  Netlist n = grid();
  tuneNominalIrDrop(n, 0.06);
  const auto census =
      classifyWires(n, WireGeometry{}, 340e6, EmParameters{});
  // This tiny 8x8 test grid concentrates pad current harder than the PG
  // presets (which pass at < 2%); only the pad-adjacent straps flag.
  EXPECT_LT(census.mortalFraction(), 0.10);
}

TEST(WireMortality, StressAwareMarginFlagsMoreWires) {
  // Including sigma_T shrinks the margin and can only add mortal wires —
  // the Blech-side expression of the paper's thesis.
  Netlist n = grid();
  tuneNominalIrDrop(n, 0.06);
  const auto blind = classifyWires(n, WireGeometry{}, 340e6, EmParameters{});
  const auto aware = classifyWires(n, WireGeometry{}, 120e6, EmParameters{});
  EXPECT_GE(aware.mortalWires, blind.mortalWires);
  EXPECT_LT(aware.productLimit, blind.productLimit);
}

TEST(WireMortality, OverloadedGridViolates) {
  Netlist n = grid();
  scaleLoads(n, 500.0);
  const auto census =
      classifyWires(n, WireGeometry{}, 100e6, EmParameters{});
  EXPECT_GT(census.mortalFraction(), 0.1);
}

TEST(WireMortality, PrefixFilterIsRespected) {
  const Netlist n = grid();
  WireGeometry geo;
  geo.wirePrefixes = {"Rh_"};  // upper layer only
  const auto census = classifyWires(n, geo, 100e6, EmParameters{});
  EXPECT_EQ(census.totalWires, 56);
  geo.wirePrefixes = {"Zz_"};
  EXPECT_THROW(classifyWires(n, geo, 100e6, EmParameters{}),
               PreconditionError);
}

TEST(WireMortality, ZeroCurrentWireIsNeverMortal) {
  // A dead-end wire carries zero current, so its jL product is exactly
  // zero and it stays below any positive (jL)_crit — even under a margin
  // tight enough to flag the current-carrying feed.
  const Netlist n = ladderWithDeadEnd();
  const auto probe = classifyWires(n, WireGeometry{}, 1e6, EmParameters{});
  ASSERT_EQ(probe.totalWires, 2);
  ASSERT_GT(probe.worstProduct, 0.0);

  // (jL)_crit is linear in the margin, so rescale the probe margin until
  // the limit sits at half the feed wire's product: feed mortal, stub not.
  const double tightMargin =
      1e6 * (0.5 * probe.worstProduct / probe.productLimit);
  const auto tight =
      classifyWires(n, WireGeometry{}, tightMargin, EmParameters{});
  EXPECT_EQ(tight.mortalWires, 1);
  EXPECT_NEAR(tight.productLimit, 0.5 * tight.worstProduct,
              1e-9 * tight.productLimit);
}

TEST(WireMortality, ImmortalWireEntersMortalitySetWhenMarginTightens) {
  // The Blech filter is margin-relative: the same wire (same j, same L)
  // flips from immortal to mortal when sigma_T consumption tightens the
  // effective margin. Pick margins straddling the feed wire's product.
  const Netlist n = ladderWithDeadEnd();
  const auto probe = classifyWires(n, WireGeometry{}, 1e6, EmParameters{});
  ASSERT_GT(probe.worstProduct, 0.0);

  const double safeMargin =
      1e6 * (2.0 * probe.worstProduct / probe.productLimit);
  const double tightMargin =
      1e6 * (0.5 * probe.worstProduct / probe.productLimit);

  const auto safe = classifyWires(n, WireGeometry{}, safeMargin,
                                  EmParameters{});
  const auto tight = classifyWires(n, WireGeometry{}, tightMargin,
                                   EmParameters{});
  // Same operating point either way — only the verdict moves.
  EXPECT_DOUBLE_EQ(safe.worstProduct, tight.worstProduct);
  EXPECT_EQ(safe.mortalWires, 0);
  EXPECT_GE(tight.mortalWires, 1);
}

/// Wires whose terminals include pads and ground: a path tree hanging off
/// pad_0, a star tree fed by pad_1 with a leaf tied to ground, and a
/// cyclic triangle, joined by via-array straps so every wire carries
/// current.
Netlist padAndGroundTiedWires() {
  Netlist n;
  const Index pad0 = n.internNode("pad_0");
  const Index pad1 = n.internNode("pad_1");
  const Index a = n.internNode("a");
  const Index b = n.internNode("b");
  const Index c = n.internNode("c");
  const Index d = n.internNode("d");
  const Index e = n.internNode("e");
  const Index f = n.internNode("f");
  const Index g = n.internNode("g");
  const Index x = n.internNode("x");
  const Index y = n.internNode("y");
  const Index z = n.internNode("z");
  n.addVoltageSource("Vdd0", pad0, kGroundNode, 1.0);
  n.addVoltageSource("Vdd1", pad1, kGroundNode, 1.0);
  n.addResistor("Rh_pa", pad0, a, 0.5);
  n.addResistor("Rh_ab", a, b, 0.7);
  n.addResistor("Rh_bc", b, c, 0.9);
  n.addResistor("Rv_pd", pad1, d, 0.4);
  n.addResistor("Rv_de", d, e, 0.6);
  n.addResistor("Rv_df", d, f, 0.8);
  n.addResistor("Rv_dg", d, g, 1.1);
  n.addResistor("Rv_g0", g, kGroundNode, 40.0);
  n.addResistor("Rh_xy", x, y, 0.3);
  n.addResistor("Rh_yz", y, z, 0.5);
  n.addResistor("Rh_zx", z, x, 0.4);
  n.addResistor("Rvia_ad", a, d, 2.0);
  n.addResistor("Rvia_cx", c, x, 1.5);
  n.addResistor("Rvia_ez", e, z, 1.2);
  n.addCurrentSource("I_b", b, kGroundNode, 0.20);
  n.addCurrentSource("I_c", c, kGroundNode, 0.10);
  n.addCurrentSource("I_f", f, kGroundNode, 0.15);
  n.addCurrentSource("I_y", y, kGroundNode, 0.25);
  return n;
}

/// Terminals pinned to one operating point: every segment end is a fixed
/// voltage equal to its nodeVoltage() reading, so an audit through them
/// sees exactly the values the checked per-node accessor returns.
WireTreeSet::Terminals nodeVoltageTerminals(
    const WireTreeSet& trees, const PowerGridModel& model,
    const PowerGridModel::DcSolution& solution) {
  WireTreeSet::Terminals pinned;
  pinned.unknownCount = model.unknownCount();
  for (const WireTreeSet::Segment& segment : trees.segments())
    pinned.segments.push_back(
        {PowerGridModel::NodeTerminal{
             kGroundNode, model.nodeVoltage(segment.a, solution)},
         PowerGridModel::NodeTerminal{
             kGroundNode, model.nodeVoltage(segment.b, solution)}});
  return pinned;
}

/// Every segment's current density through two nodeVoltage() calls.
std::vector<double> nodeVoltageDensities(
    const WireTreeSet& trees, const PowerGridModel& model,
    const PowerGridModel::DcSolution& solution) {
  const double invArea = 1.0 / trees.geometry().crossSectionArea;
  std::vector<double> densities;
  for (const WireTreeSet::Segment& segment : trees.segments()) {
    const double va = model.nodeVoltage(segment.a, solution);
    const double vb = model.nodeVoltage(segment.b, solution);
    densities.push_back((va - vb) * segment.conductance * invArea);
  }
  return densities;
}

void expectSameAudit(const WireTreeSet::Audit& got,
                     const WireTreeSet::Audit& want, const std::string& label) {
  EXPECT_EQ(got.mortalTrees, want.mortalTrees) << label;
  EXPECT_EQ(got.steadySolves, want.steadySolves) << label;
  EXPECT_EQ(got.transientSolves, want.transientSolves) << label;
  EXPECT_EQ(got.transientFallbacks, want.transientFallbacks) << label;
  EXPECT_EQ(got.mortalCyclicSegments, want.mortalCyclicSegments) << label;
  EXPECT_EQ(std::memcmp(&got.worstStressRisePa, &want.worstStressRisePa,
                        sizeof(double)),
            0)
      << label << ": " << got.worstStressRisePa << " vs "
      << want.worstStressRisePa;
}

TEST(WireTreeAudit, ResolvedTerminalsMatchNodeVoltageReference) {
  // The audit reads DcSolution::voltages through terminals resolved once
  // per model; pad-tied and ground-tied terminals resolve to their fixed
  // voltages. Every segment's current density must equal the one computed
  // through nodeVoltage(), and every Audit field must equal an audit whose
  // terminals are pinned to the nodeVoltage() readings, in every mode and
  // on a healthy and a degraded operating point.
  const Netlist netlist = padAndGroundTiedWires();
  WireGeometry geometry;
  geometry.wirePrefixes = {"Rh_", "Rv_"};
  const auto trees = WireTreeSet::build(netlist, geometry);
  ASSERT_EQ(trees->treeCount(), 2);
  ASSERT_EQ(trees->cyclicSegments(), 3);

  const PowerGridModel model(netlist);
  const WireTreeSet::Terminals terminals = trees->resolve(model);
  int padTied = 0;
  int groundTied = 0;
  for (const auto& ends : terminals.segments)
    for (const auto& end : ends)
      if (end.unknown == kGroundNode) ++(end.fixedVoltage == 1.0 ? padTied
                                                                 : groundTied);
  EXPECT_EQ(padTied, 2);
  EXPECT_EQ(groundTied, 1);

  PowerGridModel::Session degraded(model);
  degraded.openArray(1);
  const std::vector<PowerGridModel::DcSolution> points = {
      model.solveNominal(), degraded.solve()};

  auto scratch = trees->makeScratch();
  auto reference = trees->makeScratch();
  int fallbacks = 0;
  int mortalCyclic = 0;
  int immortalAudits = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    ASSERT_TRUE(points[p].solverOk);
    const WireTreeSet::Terminals pinned =
        nodeVoltageTerminals(*trees, model, points[p]);
    const std::vector<double> densities =
        nodeVoltageDensities(*trees, model, points[p]);
    // Margins below, between and above the trees' stress rises, so each
    // mode judges some trees mortal and hybrid falls back on some.
    const double worst =
        trees
            ->audit(pinned, points[p], SignoffMode::kSteadyState, 1e30,
                    EmParameters{}, reference)
            .worstStressRisePa;
    ASSERT_GT(worst, 0.0);
    for (const double margin : {0.01 * worst, 0.6 * worst, 10.0 * worst}) {
      for (const SignoffMode mode :
           {SignoffMode::kSteadyState, SignoffMode::kTransient,
            SignoffMode::kHybrid}) {
        const std::string label = "point " + std::to_string(p) + " mode " +
                                  std::string(signoffModeName(mode)) +
                                  " margin " + std::to_string(margin);
        const auto want = trees->audit(pinned, points[p], mode, margin,
                                       EmParameters{}, reference);
        fallbacks += want.transientFallbacks;
        mortalCyclic += want.mortalCyclicSegments;
        immortalAudits += want.anyMortal() ? 0 : 1;
        const auto got = trees->audit(terminals, points[p], mode, margin,
                                      EmParameters{}, scratch);
        expectSameAudit(got, want, label);
        ASSERT_EQ(scratch.currentDensity.size(), densities.size());
        EXPECT_EQ(std::memcmp(scratch.currentDensity.data(), densities.data(),
                              densities.size() * sizeof(double)),
                  0)
            << label;
        expectSameAudit(trees->audit(model, points[p], mode, margin,
                                     EmParameters{}, scratch),
                        want, label + " (one-off)");
      }
    }
  }
  EXPECT_GT(fallbacks, 0);
  EXPECT_GT(mortalCyclic, 0);
  EXPECT_GT(immortalAudits, 0);
}

TEST(WireTreeAudit, RejectsAFailedSolution) {
  const Netlist netlist = padAndGroundTiedWires();
  const auto trees = WireTreeSet::build(netlist, WireGeometry{});
  const PowerGridModel model(netlist);
  PowerGridModel::DcSolution failed;
  failed.solverOk = false;
  auto scratch = trees->makeScratch();
  EXPECT_THROW(trees->audit(trees->resolve(model), failed,
                            SignoffMode::kSteadyState, 1e8, EmParameters{},
                            scratch),
               PreconditionError);
}

}  // namespace
}  // namespace viaduct
