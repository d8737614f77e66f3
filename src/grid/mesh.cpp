#include "grid/mesh.h"

#include <cmath>
#include <string>

#include "common/check.h"
#include "common/rng.h"

namespace viaduct {

namespace {

Index strapColumnCount(const MeshSpec& spec) {
  return (spec.cols - 1) / spec.viaPitch + 1;
}

std::string nodeName(char layer, Index r, Index c) {
  return std::string(1, layer) + std::to_string(r) + "_" + std::to_string(c);
}

/// "<kind><r>_<c>", built by appends: GCC 12 reports a false -Wrestrict
/// on a short literal + std::to_string.
std::string elementName(const char* kind, Index r, Index c) {
  std::string name(kind);
  name += std::to_string(r);
  name += '_';
  name += std::to_string(c);
  return name;
}

}  // namespace

Index MeshSpec::nodeCount() const {
  return rows * cols + rows * strapColumnCount(*this);
}

MeshSpec meshSpecForNodeTarget(Index targetNodes, Index viaPitch,
                               Index padPitch) {
  VIADUCT_REQUIRE(targetNodes > 0 && viaPitch > 0 && padPitch > 0);
  MeshSpec spec;
  spec.viaPitch = viaPitch;
  spec.padPitch = padPitch;
  const double perCell = 1.0 + 1.0 / static_cast<double>(viaPitch);
  const double side =
      std::sqrt(static_cast<double>(targetNodes) / perCell);
  spec.rows = std::max<Index>(4, static_cast<Index>(std::lround(side)));
  spec.cols = spec.rows;
  return spec;
}

Netlist buildMeshNetlist(const MeshSpec& spec) {
  VIADUCT_REQUIRE(spec.rows >= 2 && spec.cols >= 2);
  VIADUCT_REQUIRE(spec.viaPitch >= 1 && spec.padPitch >= 1);
  VIADUCT_REQUIRE(spec.vdd > 0.0 && spec.stripeOhms > 0.0 &&
                  spec.strapOhms > 0.0 && spec.viaOhms > 0.0 &&
                  spec.padOhms > 0.0 && spec.loadAmps >= 0.0);

  Netlist net;
  net.setTitle("synthetic mesh " + std::to_string(spec.rows) + "x" +
               std::to_string(spec.cols) + " viaPitch=" +
               std::to_string(spec.viaPitch));
  const Index gnd = kGroundNode;

  // Load layer: horizontal stripes with per-node current loads.
  for (Index r = 0; r < spec.rows; ++r) {
    for (Index c = 0; c < spec.cols; ++c) {
      const Index node = net.internNode(nodeName('a', r, c));
      if (c + 1 < spec.cols) {
        const Index right = net.internNode(nodeName('a', r, c + 1));
        net.addResistor(elementName("Rs1_", r, c), node, right,
                        spec.stripeOhms);
      }
      if (spec.loadAmps > 0.0) {
        // One counter-based stream per node: the load pattern is a pure
        // function of (seed, node position).
        Rng rng(spec.seed, static_cast<std::uint64_t>(r) *
                                   static_cast<std::uint64_t>(spec.cols) +
                               static_cast<std::uint64_t>(c));
        const double amps = spec.loadAmps * rng.uniform(0.5, 1.5);
        net.addCurrentSource(elementName("I", r, c), node, gnd, amps);
      }
    }
  }

  // Strap layer: vertical stripes at every viaPitch-th column, a via ARRAY
  // at every stripe crossing, and Vdd pads at every padPitch-th strap node.
  for (Index c = 0; c < spec.cols; c += spec.viaPitch) {
    for (Index r = 0; r < spec.rows; ++r) {
      const Index strap = net.internNode(nodeName('b', r, c));
      if (r + 1 < spec.rows) {
        const Index down = net.internNode(nodeName('b', r + 1, c));
        net.addResistor(elementName("Rs2_", r, c), strap, down,
                        spec.strapOhms);
      }
      const Index load = net.internNode(nodeName('a', r, c));
      net.addResistor(elementName("Rvia_", r, c), load, strap, spec.viaOhms);
      if (r % spec.padPitch == 0) {
        const Index pad = net.internNode(nodeName('p', r, c));
        net.addVoltageSource(elementName("V", r, c), pad, gnd, spec.vdd);
        net.addResistor(elementName("Rpad_", r, c), pad, strap,
                        spec.padOhms);
      }
    }
  }
  return net;
}

}  // namespace viaduct
