// Synthetic power-grid benchmark generator.
//
// The paper evaluates on the IBM power-grid benchmarks (PG1/PG2/PG5 from
// [Nassif, ASP-DAC'08]). Those netlists are not redistributable here, so
// this generator produces structurally equivalent stand-ins: a two-layer
// mesh (upper-layer horizontal stripes, lower-layer vertical stripes) with
// a via array at every intersection, VDD pads on the upper layer, and
// current-source loads on the lower layer. The paper itself modifies the
// IBM netlists (re-inserting via resistances and tuning wire geometry for a
// reasonable IR drop), so the properties its experiments rely on — mesh
// redundancy, via-array sites, pad placement, tuned nominal IR drop — are
// all reproduced. A real IBM netlist loads through the same parser.
//
// Naming convention (consumed by grid/PowerGridModel):
//   n1_<x>_<y>   lower-layer node at stripe intersection (x, y)
//   n2_<x>_<y>   upper-layer node
//   Rvia_<x>_<y> via-array branch between the two layers
//   Rh_... / Rv_... wire segments, Vpad_<k> pads, Iload_... loads
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "spice/netlist.h"

namespace viaduct {

struct GridGeneratorConfig {
  /// Stripe counts: lower layer runs `stripesX` vertical stripes, upper
  /// layer `stripesY` horizontal stripes; via arrays sit at intersections.
  int stripesX = 20;
  int stripesY = 20;

  /// Number of routed metal layers (>= 2). Layer 1 is the lowest
  /// (load-bearing) layer; layers alternate routing direction going up;
  /// pads land on the TOP layer. With more than 2 layers, via arrays
  /// connect every adjacent pair at every intersection: the topmost pair
  /// keeps the plain "Rvia_<x>_<y>" names (those arrays carry the pad
  /// feed, exactly like the 2-layer case), lower pairs are named
  /// "Rvia<k>_<x>_<y>" for the layer-k/k+1 connection.
  int layers = 2;

  /// Stripe pitch [m] and wire width [m] (2 µm is the paper's Figure 1
  /// power-grid wire width).
  double pitchMeters = 20e-6;
  double wireWidthMeters = 2e-6;

  /// Sheet resistances [Ω/sq] for the two layers (upper layers are thicker
  /// and lower-resistance in real stacks).
  double upperSheetOhms = 0.035;
  double lowerSheetOhms = 0.07;

  /// Nominal (healthy) via-array resistance [Ω].
  double viaArrayOhms = 0.4;

  /// Supply voltage [V].
  double vddVolts = 1.0;

  /// Number of VDD pads distributed along the upper-layer boundary.
  int padCount = 4;
  /// Pad connection resistance [Ω] (package / C4 bump).
  double padOhms = 0.01;
  /// Intersections each pad straps onto (a C4 bump lands on a strap that
  /// spans several stripe pitches, spreading its current over several via
  /// arrays instead of dumping into one).
  int padFanout = 3;

  /// Total load current [A], split across lower-layer nodes with a
  /// lognormal spatial profile (sigmaLoad in log space).
  double totalCurrentAmps = 4.0;
  double sigmaLoad = 0.5;

  /// Fraction of lower-layer intersections carrying a load.
  double loadDensity = 0.6;

  std::uint64_t seed = 1;
  std::string title = "viaduct synthetic power grid";

  /// Nominal IR-drop fraction the benchmark is intended to be tuned to
  /// before analysis (the paper tunes each benchmark to a "reasonable IR
  /// drop"; per-preset values preserve the PG1 < PG2 < PG5 TTF ordering).
  double suggestedIrDropTarget = 0.06;
};

/// Generates the mesh netlist described above.
Netlist generatePowerGrid(const GridGeneratorConfig& config);

/// Scaled-down stand-ins for the IBM benchmarks used in Table 2. Relative
/// ordering of size and load intensity follows the originals (PG1 smallest
/// and most heavily loaded per pad; PG5 largest and most lightly loaded),
/// so the paper's PG1 < PG2 < PG5 TTF ordering is preserved.
enum class PgPreset { kPg1, kPg2, kPg5 };

GridGeneratorConfig pgPresetConfig(PgPreset preset);
Netlist generatePgBenchmark(PgPreset preset);

/// Human-readable name ("PG1", ...).
std::string pgPresetName(PgPreset preset);

/// Inverse of pgPresetName: "PG1", "PG2" or "PG5" (exact spelling);
/// std::nullopt on anything else.
std::optional<PgPreset> parsePgPreset(const std::string& name);

}  // namespace viaduct
