#include "structures/cudd_builder.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "fea/thermo_solver.h"
#include "structures/probes.h"

namespace viaduct {
namespace {

ViaArrayStructureSpec coarseSpec(int n, IntersectionPattern pat) {
  ViaArrayStructureSpec spec;
  spec.viaArray.n = n;
  spec.pattern = pat;
  spec.resolutionXy = 0.25e-6;
  spec.margin = 1.0e-6;
  return spec;
}

TEST(ViaArraySpec, GeometryDerivations) {
  ViaArraySpec a;
  a.n = 4;
  a.effectiveArea = 1.0e-12;
  EXPECT_NEAR(a.viaSide(), 0.25e-6, 1e-12);
  EXPECT_NEAR(a.pitch(), 0.5e-6, 1e-12);
  EXPECT_NEAR(a.span(), 1.75e-6, 1e-12);
  EXPECT_EQ(a.viaCount(), 16);
  ViaArraySpec one;
  one.n = 1;
  EXPECT_NEAR(one.viaSide(), 1.0e-6, 1e-12);
  EXPECT_NEAR(one.span(), 1.0e-6, 1e-12);
}

TEST(Builder, ViaFootprintCountAndInteriorFlags) {
  const auto built = buildViaArrayStructure(coarseSpec(4, IntersectionPattern::kPlus));
  EXPECT_EQ(built.vias.size(), 16u);
  int interior = 0;
  for (const auto& v : built.vias) interior += v.interior ? 1 : 0;
  EXPECT_EQ(interior, 4);  // 2x2 inner block of a 4x4
}

TEST(Builder, OneByOneHasNoInterior) {
  const auto built = buildViaArrayStructure(coarseSpec(1, IntersectionPattern::kPlus));
  EXPECT_EQ(built.vias.size(), 1u);
  EXPECT_FALSE(built.vias[0].interior);
}

TEST(Builder, RejectsCoarseResolution) {
  auto spec = coarseSpec(8, IntersectionPattern::kPlus);
  spec.resolutionXy = 0.25e-6;  // via side is 0.125
  EXPECT_THROW(buildViaArrayStructure(spec), PreconditionError);
}

TEST(Builder, RejectsArrayWiderThanWire) {
  auto spec = coarseSpec(4, IntersectionPattern::kPlus);
  spec.wireWidth = 1.0e-6;  // span is 1.75
  EXPECT_THROW(buildViaArrayStructure(spec), PreconditionError);
}

TEST(Builder, MaterialsPresentInStack) {
  const auto built = buildViaArrayStructure(coarseSpec(4, IntersectionPattern::kPlus));
  EXPECT_GT(built.grid.materialFraction(MaterialId::kSilicon), 0.1);
  EXPECT_GT(built.grid.materialFraction(MaterialId::kCopper), 0.02);
  EXPECT_GT(built.grid.materialFraction(MaterialId::kSiCOH), 0.2);
  EXPECT_GT(built.grid.materialFraction(MaterialId::kSiN), 0.02);
  EXPECT_GT(built.grid.materialFraction(MaterialId::kTantalum), 0.001);
}

TEST(Builder, PatternsControlCopperVolume) {
  const auto plus = buildViaArrayStructure(coarseSpec(4, IntersectionPattern::kPlus));
  const auto tee = buildViaArrayStructure(coarseSpec(4, IntersectionPattern::kT));
  const auto ell = buildViaArrayStructure(coarseSpec(4, IntersectionPattern::kL));
  const double cuPlus = plus.grid.materialFraction(MaterialId::kCopper);
  const double cuT = tee.grid.materialFraction(MaterialId::kCopper);
  const double cuL = ell.grid.materialFraction(MaterialId::kCopper);
  EXPECT_GT(cuPlus, cuT);
  EXPECT_GT(cuT, cuL);
}

TEST(Builder, ViaColumnIsCopperThroughTheStack) {
  const auto built = buildViaArrayStructure(coarseSpec(4, IntersectionPattern::kPlus));
  const VoxelGrid& g = built.grid;
  const auto& v = built.vias[5];  // an interior via
  const Index i = g.cellAtX(0.5 * (v.x0 + v.x1));
  const Index j = g.cellAtY(0.5 * (v.y0 + v.y1));
  // From lower metal through via to upper metal: all copper.
  const Index kLower = g.cellAtZ(built.zMetalLower1 - 1e-9);
  const Index kVia = g.cellAtZ(0.5 * (built.zVia0 + built.zVia1));
  EXPECT_EQ(g.material(i, j, kLower), MaterialId::kCopper);
  EXPECT_EQ(g.material(i, j, kVia), MaterialId::kCopper);
}

TEST(Builder, GapBetweenViasIsNotCopperInViaLayer) {
  const auto built = buildViaArrayStructure(coarseSpec(4, IntersectionPattern::kPlus));
  const VoxelGrid& g = built.grid;
  const double gapY = built.viaGapCenterY(1);
  const double gapX = 0.5 * (built.vias[0].x1 + built.vias[1].x0);
  const Index kVia = g.cellAtZ(0.5 * (built.zVia0 + built.zVia1));
  EXPECT_NE(g.material(g.cellAtX(gapX), g.cellAtY(gapY), kVia),
            MaterialId::kCopper);
}

TEST(Builder, RowAndGapCoordinatesInterleave) {
  const auto built = buildViaArrayStructure(coarseSpec(4, IntersectionPattern::kPlus));
  for (int r = 0; r + 1 < 4; ++r) {
    EXPECT_LT(built.viaRowCenterY(r), built.viaGapCenterY(r));
    EXPECT_LT(built.viaGapCenterY(r), built.viaRowCenterY(r + 1));
  }
  EXPECT_THROW(built.viaRowCenterY(4), PreconditionError);
  EXPECT_THROW(built.viaGapCenterY(3), PreconditionError);
}

TEST(Builder, PatternNames) {
  EXPECT_EQ(patternName(IntersectionPattern::kPlus), "Plus");
  EXPECT_EQ(patternName(IntersectionPattern::kT), "T");
  EXPECT_EQ(patternName(IntersectionPattern::kL), "L");
}

TEST(Builder, ParsesPatternNames) {
  for (const IntersectionPattern p :
       {IntersectionPattern::kPlus, IntersectionPattern::kT,
        IntersectionPattern::kL})
    EXPECT_EQ(parseIntersectionPattern(patternName(p)), p);
  for (const char* bad : {"", "X", "plus", "t", "Plus "})
    EXPECT_FALSE(parseIntersectionPattern(bad).has_value()) << bad;
}

TEST(Probes, PerViaStressCountMatchesVias) {
  const auto built = buildViaArrayStructure(coarseSpec(4, IntersectionPattern::kPlus));
  ThermoSolver solver(built.grid);
  solver.solve();
  const auto peaks = perViaPeakStress(solver, built);
  EXPECT_EQ(peaks.size(), 16u);
  for (double p : peaks) {
    EXPECT_GT(p, 50e6);   // tensile, hundreds of MPa
    EXPECT_LT(p, 2000e6);
  }
}

TEST(Probes, InteriorViasSeeLessStressThanArrayPeak) {
  const auto built = buildViaArrayStructure(coarseSpec(4, IntersectionPattern::kPlus));
  ThermoSolver solver(built.grid);
  solver.solve();
  const auto peaks = perViaPeakStress(solver, built);
  double arrayPeak = 0.0, interiorMax = 0.0;
  for (std::size_t i = 0; i < peaks.size(); ++i) {
    arrayPeak = std::max(arrayPeak, peaks[i]);
    if (built.vias[i].interior) interiorMax = std::max(interiorMax, peaks[i]);
  }
  EXPECT_LT(interiorMax, arrayPeak);
}

TEST(Probes, ProfileShowsMinimumInsideVia) {
  // The paper's core Figure 1 observation: local stress minima inside vias.
  const auto built = buildViaArrayStructure(coarseSpec(4, IntersectionPattern::kPlus));
  ThermoSolver solver(built.grid);
  solver.solve();
  const auto prof = stressProfileAtY(solver, built, built.viaRowCenterY(1));
  // Stress at a via-center column is below the stress in the wire far away.
  const auto& v = built.vias[4 + 1];  // row 1, col 1
  const Index iVia = built.grid.cellAtX(0.5 * (v.x0 + v.x1));
  const Index iFar = built.grid.cellAtX(0.3e-6);
  EXPECT_LT(prof.sigmaH[iVia], prof.sigmaH[iFar]);
}

TEST(Probes, PlusPatternIsMostStressed) {
  // Figure 6's ordering at the per-via peak level.
  double peak[3] = {0, 0, 0};
  const IntersectionPattern pats[3] = {IntersectionPattern::kPlus,
                                       IntersectionPattern::kT,
                                       IntersectionPattern::kL};
  for (int p = 0; p < 3; ++p) {
    const auto built = buildViaArrayStructure(coarseSpec(4, pats[p]));
    ThermoSolver solver(built.grid);
    solver.solve();
    for (double s : perViaPeakStress(solver, built))
      peak[p] = std::max(peak[p], s);
  }
  EXPECT_GT(peak[0], peak[1]);  // Plus > T
  EXPECT_GT(peak[1], peak[2]);  // T > L
}

}  // namespace
}  // namespace viaduct
