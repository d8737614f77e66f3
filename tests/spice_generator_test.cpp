#include "spice/generator.h"

#include <gtest/gtest.h>

#include <set>

#include "common/check.h"
#include "grid/power_grid.h"
#include "spice/parser.h"
#include "spice/writer.h"

namespace viaduct {
namespace {

TEST(Generator, ProducesExpectedStructure) {
  GridGeneratorConfig cfg;
  cfg.stripesX = 6;
  cfg.stripesY = 5;
  const Netlist n = generatePowerGrid(cfg);

  // Wire counts: upper (sx-1)*sy horizontal + lower sx*(sy-1) vertical,
  // plus sx*sy vias and padCount pad resistors.
  const int expectedWires = (6 - 1) * 5 + 6 * (5 - 1);
  int viaCount = 0, wireCount = 0, padCount = 0;
  for (const auto& r : n.resistors()) {
    if (r.name.rfind("Rvia", 0) == 0) ++viaCount;
    else if (r.name.rfind("Rpad", 0) == 0) ++padCount;
    else ++wireCount;
  }
  EXPECT_EQ(viaCount, 30);
  EXPECT_EQ(wireCount, expectedWires);
  // Each pad straps onto `padFanout` boundary intersections.
  EXPECT_EQ(padCount, cfg.padCount * cfg.padFanout);
  EXPECT_EQ(static_cast<int>(n.voltageSources().size()), cfg.padCount);
}

TEST(Generator, TotalLoadMatchesConfig) {
  GridGeneratorConfig cfg;
  cfg.totalCurrentAmps = 3.5;
  const Netlist n = generatePowerGrid(cfg);
  double total = 0.0;
  for (const auto& c : n.currentSources()) total += c.amps;
  EXPECT_NEAR(total, 3.5, 1e-9);
}

TEST(Generator, LoadsAttachToLowerLayerOnly) {
  const Netlist n = generatePowerGrid(GridGeneratorConfig{});
  for (const auto& c : n.currentSources()) {
    EXPECT_EQ(c.negative, kGroundNode);
    const std::string& name = n.nodeName(c.positive);
    EXPECT_EQ(name.rfind("n1_", 0), 0u) << name;
  }
}

TEST(Generator, DeterministicForSeed) {
  GridGeneratorConfig cfg;
  cfg.seed = 99;
  const Netlist a = generatePowerGrid(cfg);
  const Netlist b = generatePowerGrid(cfg);
  ASSERT_EQ(a.currentSources().size(), b.currentSources().size());
  for (std::size_t i = 0; i < a.currentSources().size(); ++i)
    EXPECT_DOUBLE_EQ(a.currentSources()[i].amps, b.currentSources()[i].amps);
}

TEST(Generator, DifferentSeedsDifferentLoads) {
  GridGeneratorConfig a, b;
  a.seed = 1;
  b.seed = 2;
  const Netlist na = generatePowerGrid(a);
  const Netlist nb = generatePowerGrid(b);
  bool anyDiff = na.currentSources().size() != nb.currentSources().size();
  if (!anyDiff) {
    for (std::size_t i = 0; i < na.currentSources().size(); ++i)
      if (na.currentSources()[i].amps != nb.currentSources()[i].amps)
        anyDiff = true;
  }
  EXPECT_TRUE(anyDiff);
}

TEST(Generator, PadsAreDistinctNodes) {
  GridGeneratorConfig cfg;
  cfg.padCount = 8;
  const Netlist n = generatePowerGrid(cfg);
  std::set<Index> padNodes;
  for (const auto& v : n.voltageSources()) padNodes.insert(v.positive);
  EXPECT_EQ(padNodes.size(), 8u);
}

TEST(Generator, RoundTripsThroughSpiceText) {
  const Netlist n = generatePgBenchmark(PgPreset::kPg1);
  const Netlist re = parseSpiceString(writeSpiceString(n));
  EXPECT_EQ(re.resistors().size(), n.resistors().size());
  EXPECT_EQ(re.voltageSources().size(), n.voltageSources().size());
  EXPECT_EQ(re.currentSources().size(), n.currentSources().size());
}

TEST(Generator, PresetsScaleUp) {
  const auto c1 = pgPresetConfig(PgPreset::kPg1);
  const auto c2 = pgPresetConfig(PgPreset::kPg2);
  const auto c5 = pgPresetConfig(PgPreset::kPg5);
  EXPECT_LT(c1.stripesX * c1.stripesY, c2.stripesX * c2.stripesY);
  EXPECT_LT(c2.stripesX * c2.stripesY, c5.stripesX * c5.stripesY);
  EXPECT_LT(c1.padCount, c5.padCount);
  EXPECT_EQ(pgPresetName(PgPreset::kPg1), "PG1");
  EXPECT_EQ(pgPresetName(PgPreset::kPg2), "PG2");
  EXPECT_EQ(pgPresetName(PgPreset::kPg5), "PG5");
}

TEST(Generator, ParsesPresetNames) {
  for (const PgPreset p : {PgPreset::kPg1, PgPreset::kPg2, PgPreset::kPg5})
    EXPECT_EQ(parsePgPreset(pgPresetName(p)), p);
  for (const char* bad : {"", "PG3", "PG9", "pg1", "PG1 ", "PG"})
    EXPECT_FALSE(parsePgPreset(bad).has_value()) << bad;
}

TEST(Generator, RejectsBadConfig) {
  GridGeneratorConfig cfg;
  cfg.stripesX = 1;
  EXPECT_THROW(generatePowerGrid(cfg), PreconditionError);
  cfg = GridGeneratorConfig{};
  cfg.loadDensity = 0.0;
  EXPECT_THROW(generatePowerGrid(cfg), PreconditionError);
  cfg = GridGeneratorConfig{};
  cfg.totalCurrentAmps = -1.0;
  EXPECT_THROW(generatePowerGrid(cfg), PreconditionError);
}


TEST(Generator, MultiLayerGridStructure) {
  GridGeneratorConfig cfg;
  cfg.stripesX = 5;
  cfg.stripesY = 5;
  cfg.layers = 4;
  const Netlist n = generatePowerGrid(cfg);

  // Via arrays: 3 adjacent-layer pairs x 25 intersections.
  int topVias = 0, lowerVias = 0, wires = 0;
  for (const auto& r : n.resistors()) {
    if (r.name.rfind("Rvia_", 0) == 0) ++topVias;
    else if (r.name.rfind("Rvia", 0) == 0) ++lowerVias;
    else if (r.name.rfind("Rh", 0) == 0 || r.name.rfind("Rv", 0) == 0)
      ++wires;
  }
  EXPECT_EQ(topVias, 25);
  EXPECT_EQ(lowerVias, 50);
  // Wires: 4 layers x 5 stripes x 4 segments.
  EXPECT_EQ(wires, 4 * 5 * 4);
  // Nodes exist on every layer.
  EXPECT_TRUE(n.findNode("n1_0_0").has_value());
  EXPECT_TRUE(n.findNode("n4_4_4").has_value());
  EXPECT_FALSE(n.findNode("n5_0_0").has_value());
}

TEST(Generator, MultiLayerGridSolves) {
  GridGeneratorConfig cfg;
  cfg.stripesX = 6;
  cfg.stripesY = 6;
  cfg.layers = 3;
  cfg.totalCurrentAmps = 0.5;
  const Netlist n = generatePowerGrid(cfg);
  const PowerGridModel model(n);
  // Every adjacent-layer pair contributes via-array components.
  EXPECT_EQ(model.viaArrays().size(), 2u * 36u);
  const auto sol = model.solveNominal();
  EXPECT_GT(sol.worstIrDropFraction, 0.0);
  EXPECT_LT(sol.worstIrDropFraction, 1.0);
  EXPECT_LT(model.kclResidual(sol), 1e-8);
}

TEST(Generator, TwoLayerNamesUnchanged) {
  // Backward compatibility: the default two-layer grid keeps Rh_/Rv_
  // wire names and Rvia_ arrays.
  GridGeneratorConfig cfg;
  cfg.stripesX = 4;
  cfg.stripesY = 4;
  const Netlist n = generatePowerGrid(cfg);
  for (const auto& r : n.resistors()) {
    const bool known = r.name.rfind("Rh_", 0) == 0 ||
                       r.name.rfind("Rv_", 0) == 0 ||
                       r.name.rfind("Rvia_", 0) == 0 ||
                       r.name.rfind("Rpad_", 0) == 0;
    EXPECT_TRUE(known) << r.name;
  }
}

TEST(Generator, RejectsSingleLayer) {
  GridGeneratorConfig cfg;
  cfg.layers = 1;
  EXPECT_THROW(generatePowerGrid(cfg), PreconditionError);
}

}  // namespace
}  // namespace viaduct
