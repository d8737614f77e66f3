#include "structures/cudd_builder.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace viaduct {

std::string patternName(IntersectionPattern p) {
  switch (p) {
    case IntersectionPattern::kPlus:
      return "Plus";
    case IntersectionPattern::kT:
      return "T";
    case IntersectionPattern::kL:
      return "L";
  }
  return "?";
}

std::optional<IntersectionPattern> parseIntersectionPattern(
    const std::string& name) {
  for (const IntersectionPattern p :
       {IntersectionPattern::kPlus, IntersectionPattern::kT,
        IntersectionPattern::kL})
    if (patternName(p) == name) return p;
  return std::nullopt;
}

double ViaArraySpec::viaSide() const {
  VIADUCT_REQUIRE(n >= 1 && effectiveArea > 0.0);
  return std::sqrt(effectiveArea) / static_cast<double>(n);
}

double ViaArraySpec::pitch() const {
  VIADUCT_REQUIRE(minSpacing >= 0.0);
  return viaSide() + std::max(viaSide(), minSpacing);
}

double ViaArraySpec::span() const {
  // n vias of side s with (n-1) gaps of size (pitch - s) = s.
  return static_cast<double>(n) * viaSide() +
         static_cast<double>(n - 1) * (pitch() - viaSide());
}

double StackSpec::totalHeight() const {
  return substrate + ildBelow + linerLower + metalLower + capLower + via +
         linerUpper + metalUpper + capUpper + ildAbove;
}

namespace {

/// Splits a layer of given thickness into cells no thicker than maxCell.
void appendLayerCells(std::vector<double>& sizes, double thickness,
                      double maxCell) {
  VIADUCT_REQUIRE(thickness > 0.0);
  const int n = std::max(1, static_cast<int>(std::ceil(thickness / maxCell)));
  for (int i = 0; i < n; ++i) sizes.push_back(thickness / n);
}

}  // namespace

double BuiltStructure::viaRowCenterY(int r) const {
  VIADUCT_REQUIRE(r >= 0 && r < spec.viaArray.n);
  return arrayStartY + r * spec.viaArray.pitch() +
         0.5 * spec.viaArray.viaSide();
}

double BuiltStructure::viaGapCenterY(int r) const {
  VIADUCT_REQUIRE(r >= 0 && r + 1 < spec.viaArray.n);
  return arrayStartY + r * spec.viaArray.pitch() + spec.viaArray.viaSide() +
         0.5 * (spec.viaArray.pitch() - spec.viaArray.viaSide());
}

BuiltStructure buildViaArrayStructure(const ViaArrayStructureSpec& spec) {
  const double side = spec.viaArray.viaSide();
  VIADUCT_REQUIRE_MSG(spec.resolutionXy <= side * 1.0001,
                      "resolutionXy too coarse to resolve one via");
  VIADUCT_REQUIRE_MSG(spec.viaArray.span() <= spec.wireWidth * 1.0001,
                      "via array wider than the wire");
  VIADUCT_REQUIRE(spec.margin > 0.0);

  // Lateral extent and uniform x/y cells.
  const double extent = spec.wireWidth + 2.0 * spec.margin;
  const auto nxy = static_cast<Index>(std::round(extent / spec.resolutionXy));
  VIADUCT_REQUIRE(nxy >= 4);
  const double res = extent / static_cast<double>(nxy);

  // z cells per stack layer (metals get >= 2 cells, thin layers 1).
  const StackSpec& st = spec.stack;
  std::vector<double> zs;
  struct ZRange {
    double z0, z1;
  };
  auto addLayer = [&zs](double thickness, double maxCell) {
    const double z0 =
        zs.empty() ? 0.0
                   : [&] {
                       double acc = 0.0;
                       for (double h : zs) acc += h;
                       return acc;
                     }();
    appendLayerCells(zs, thickness, maxCell);
    double acc = 0.0;
    for (double h : zs) acc += h;
    return ZRange{z0, acc};
  };

  const ZRange zSub = addLayer(st.substrate, 0.5e-6);
  const ZRange zIldBelow = addLayer(st.ildBelow, 0.3e-6);
  const ZRange zLinerLo = addLayer(st.linerLower, st.linerLower);
  const ZRange zMetalLo = addLayer(st.metalLower, 0.15e-6);
  const ZRange zCapLo = addLayer(st.capLower, st.capLower);
  const ZRange zVia = addLayer(st.via, 0.25e-6);
  const ZRange zLinerUp = addLayer(st.linerUpper, st.linerUpper);
  const ZRange zMetalUp = addLayer(st.metalUpper, 0.15e-6);
  const ZRange zCapUp = addLayer(st.capUpper, st.capUpper);
  const ZRange zIldAbove = addLayer(st.ildAbove, 0.3e-6);
  (void)zIldAbove;

  BuiltStructure built{
      .grid = VoxelGrid(
          std::vector<double>(static_cast<std::size_t>(nxy), res),
          std::vector<double>(static_cast<std::size_t>(nxy), res), zs,
          MaterialId::kSiCOH),
      .spec = spec,
      .centerX = 0.0,
      .centerY = 0.0,
      .arrayStartX = 0.0,
      .arrayStartY = 0.0,
      .zMetalLower0 = 0.0,
      .zMetalLower1 = 0.0,
      .zNucleationPlane = 0.0,
      .zVia0 = 0.0,
      .zVia1 = 0.0,
      .vias = {},
  };
  VoxelGrid& g = built.grid;

  const double cx = 0.5 * extent;
  const double cy = 0.5 * extent;
  built.centerX = cx;
  built.centerY = cy;
  built.zMetalLower0 = zMetalLo.z0;
  built.zMetalLower1 = zMetalLo.z1;
  built.zNucleationPlane = zMetalLo.z1;
  built.zVia0 = zVia.z0;
  built.zVia1 = zVia.z1;

  const double inf = 10.0 * extent;
  const double w2 = 0.5 * spec.wireWidth;

  // Substrate.
  g.paintBox(-inf, inf, -inf, inf, zSub.z0, zSub.z1, MaterialId::kSilicon);

  // Lower wire (along x). Terminates just past the intersection for L.
  const bool lowerTerminates = spec.pattern == IntersectionPattern::kL;
  const double lowerX0 = -inf;
  const double lowerX1 = lowerTerminates ? cx + w2 : inf;
  g.paintBox(lowerX0, lowerX1, cy - w2, cy + w2, zLinerLo.z0, zLinerLo.z1,
             MaterialId::kTantalum);
  g.paintBox(lowerX0, lowerX1, cy - w2, cy + w2, zMetalLo.z0, zMetalLo.z1,
             MaterialId::kCopper);

  // Blanket capping layer above Mx.
  g.paintBox(-inf, inf, -inf, inf, zCapLo.z0, zCapLo.z1, MaterialId::kSiN);

  // Upper wire (along y). Terminates just past the intersection for T and L.
  const bool upperTerminates = spec.pattern != IntersectionPattern::kPlus;
  const double upperY0 = -inf;
  const double upperY1 = upperTerminates ? cy + w2 : inf;
  g.paintBox(cx - w2, cx + w2, upperY0, upperY1, zLinerUp.z0, zLinerUp.z1,
             MaterialId::kTantalum);
  g.paintBox(cx - w2, cx + w2, upperY0, upperY1, zMetalUp.z0, zMetalUp.z1,
             MaterialId::kCopper);

  // Blanket capping layer above Mx+1.
  g.paintBox(-inf, inf, -inf, inf, zCapUp.z0, zCapUp.z1, MaterialId::kSiN);

  // Via array: copper punching through capLower, via, and linerUpper.
  // The array origin is snapped to the voxel lattice so that equal-sized
  // vias paint equal voxel footprints (no half-voxel aliasing).
  const int n = spec.viaArray.n;
  const double pitch = spec.viaArray.pitch();
  auto snap = [res](double v) { return std::round(v / res) * res; };
  const double startX = snap(cx - 0.5 * spec.viaArray.span());
  const double startY = snap(cy - 0.5 * spec.viaArray.span());
  built.arrayStartX = startX;
  built.arrayStartY = startY;
  for (int row = 0; row < n; ++row) {
    for (int col = 0; col < n; ++col) {
      ViaFootprint v;
      v.row = row;
      v.col = col;
      v.x0 = startX + col * pitch;
      v.x1 = v.x0 + side;
      v.y0 = startY + row * pitch;
      v.y1 = v.y0 + side;
      v.interior = row > 0 && row < n - 1 && col > 0 && col < n - 1;
      g.paintBox(v.x0, v.x1, v.y0, v.y1, zCapLo.z0, zLinerUp.z1,
                 MaterialId::kCopper);
      built.vias.push_back(v);
    }
  }

  (void)zIldBelow;
  return built;
}

}  // namespace viaduct
