// Cu dual-damascene structure builders.
//
// Paints the paper's Figure 2/5 geometry into a VoxelGrid: a silicon
// substrate, SiCOH ILD, a lower wire Mx (running along x), an upper wire
// Mx+1 (running along y), blanket Si3N4 capping layers above each metal,
// thin Ta liner layers beneath each metal, and an n×n via array at the
// wire intersection. The Plus/T/L intersection patterns of Figure 4/5 are
// realized by continuing or terminating the wires at the intersection.
//
// Resolution note: lateral Ta liners (~10 nm) are far below the voxel
// resolution used here and are omitted; horizontal liner layers are
// included as dedicated thin z-slices. This matches the dominant mechanics
// (vertical CTE-mismatch stack) while keeping the mesh tractable.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fea/voxel_grid.h"

namespace viaduct {

/// Mesh intersection patterns (Figure 4): Plus inside the mesh, T at an
/// edge, L at a corner.
enum class IntersectionPattern { kPlus, kT, kL };

std::string patternName(IntersectionPattern p);

/// Inverse of patternName: "Plus", "T" or "L" (exact spelling);
/// std::nullopt on anything else.
std::optional<IntersectionPattern> parseIntersectionPattern(
    const std::string& name);

/// n×n via array with a fixed total (effective) cross-section area, so
/// different n compare at equal electrical resistance (Figure 1/7 setup).
struct ViaArraySpec {
  int n = 4;
  /// Total via cross-section area [m²]; default 1 µm² as in the paper.
  double effectiveArea = 1.0e-12;

  /// Minimum via-to-via spacing rule [m]. The paper's arrays use
  /// gap == via side (minSpacing = 0 keeps that); its conclusion notes
  /// that real spacing rules may force larger arrays to occupy more area —
  /// set this to study that effect (bench/ablation_spacing_rules).
  double minSpacing = 0.0;

  /// Side length of one square via: sqrt(area)/n.
  double viaSide() const;
  /// Center-to-center pitch: side + max(side, minSpacing).
  double pitch() const;
  /// Full span of the array (n vias + (n-1) gaps).
  double span() const;
  int viaCount() const { return n * n; }
};

/// Layer thicknesses [m] of the simulated stack, bottom to top. Defaults
/// approximate upper-level (M7/M8-like) layers of a 32 nm-class stack.
struct StackSpec {
  double substrate = 1.0e-6;
  double ildBelow = 0.6e-6;
  double linerLower = 0.05e-6;
  double metalLower = 0.30e-6;
  double capLower = 0.10e-6;
  double via = 0.25e-6;
  double linerUpper = 0.05e-6;
  double metalUpper = 0.30e-6;
  double capUpper = 0.10e-6;
  double ildAbove = 0.5e-6;

  double totalHeight() const;
};

struct ViaArrayStructureSpec {
  ViaArraySpec viaArray;
  IntersectionPattern pattern = IntersectionPattern::kPlus;
  /// Power-grid wire width [m]; the paper uses 2 µm.
  double wireWidth = 2.0e-6;
  /// ILD margin beyond the intersection footprint on each side [m].
  double margin = 2.0e-6;
  /// Lateral voxel size [m]. Must resolve the via pitch: a via side should
  /// span >= 1 voxel. The builder validates this.
  double resolutionXy = 0.25e-6;
  StackSpec stack;
};

/// Footprint of one via in the built structure.
struct ViaFootprint {
  int row = 0;  // index along y
  int col = 0;  // index along x
  double x0 = 0.0, x1 = 0.0, y0 = 0.0, y1 = 0.0;
  /// True for vias not on the array perimeter.
  bool interior = false;
};

struct BuiltStructure {
  VoxelGrid grid;
  ViaArrayStructureSpec spec;
  double centerX = 0.0, centerY = 0.0;
  /// Snapped lower-left corner of the via array (voxel-lattice aligned).
  double arrayStartX = 0.0, arrayStartY = 0.0;
  /// z range of the lower metal layer Mx.
  double zMetalLower0 = 0.0, zMetalLower1 = 0.0;
  /// z of the Mx/cap interface — the void-nucleation plane ([11], Fig. 3).
  double zNucleationPlane = 0.0;
  /// z range of the via layer (between the two metals).
  double zVia0 = 0.0, zVia1 = 0.0;
  std::vector<ViaFootprint> vias;

  /// y coordinate of the centerline of via row `r` (for profile probes:
  /// Figure 1's black arrow passes through a via row, the red arrow through
  /// the gap between rows).
  double viaRowCenterY(int r) const;
  /// y coordinate of the gap between via rows r and r+1.
  double viaGapCenterY(int r) const;
};

/// Builds the voxel model. Throws PreconditionError if the resolution
/// cannot represent the via array or the wire does not fit the domain.
BuiltStructure buildViaArrayStructure(const ViaArrayStructureSpec& spec);

}  // namespace viaduct
