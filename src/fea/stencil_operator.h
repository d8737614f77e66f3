// Stencil-compressed voxel stiffness operator.
//
// On a voxel mesh the assembled stiffness row of a node is a 27-point
// stencil of 3×3 blocks, and that stencil is entirely determined by the
// (up to) 8 element operators adjacent to the node. Structured grids —
// layered stacks, via arrays, any painted geometry — contain large uniform
// regions where thousands of nodes share the exact same adjacency, so the
// distinct stencils form a small dictionary: each node stores only a
// pattern id. An apply then streams x, y, and the ids (a few MB) while the
// dictionary stays cache-resident, which on bandwidth-starved cores is
// several times faster than a CSR sweep over the full 27·9 doubles per
// node (and never worse: a pathological grid where every node is distinct
// degenerates to exactly the CSR footprint).
//
// Dirichlet semantics match the matrix-free gather operator: constrained
// dofs are identity rows, constrained columns are masked out. Every sweep
// first gathers x into a zero-padded, component-planar halo (three x/y/z
// planes, constrained dofs masked during the copy), so the stencil sweep
// itself is branch-free and in-bounds for boundary nodes, and consecutive
// nodes of one x-row read consecutive halo entries.
//
// The sweep walks x-rows of nodes. Each row is split at construction into
// runs of consecutive nodes sharing one pattern id: full-width runs of
// kLanes nodes, then at most one run each of kLanes/2, kLanes/4 and one
// node. One lane loop with broadcast stencil coefficients, instantiated per
// run width, sweeps them all; the compiler vectorizes it across nodes. Every
// width computes each node's sum with the same expression in the same
// neighbor order, so the result is bit-identical to a per-node sweep —
// and, with node-local epilogues, for every pool size.
//
// One row body serves two kernels: the plain build, and the same source
// compiled for AVX2 (target attribute, no FMA, so no contraction and each
// lane computes the same IEEE operations). The AVX2 rows run wherever the
// CPU has AVX2, chosen once per process; the results are bitwise equal.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "fea/hex8.h"
#include "fea/voxel_grid.h"

namespace viaduct {

/// Row kernel of NodeStencilOperator::sweep (the fea.stencil_kernel gauge).
enum class StencilKernel : std::uint8_t { kPlain = 0, kAvx2 = 1 };

/// kAvx2 when this CPU runs AVX2 code, else kPlain; checked once per
/// process.
StencilKernel bestStencilKernel();

class NodeStencilOperator {
 public:
  NodeStencilOperator() = default;

  /// `constrained` is the per-dof Dirichlet mask, `cellOperators` the
  /// per-cell Hex8 stiffness (borrowed; must outlive the operator).
  NodeStencilOperator(const VoxelGrid& grid,
                      std::span<const std::uint8_t> constrained,
                      std::span<const Hex8Operators* const> cellOperators,
                      ThreadPool* pool);

  /// y = A x (constrained dofs: y = x).
  void apply(std::span<const double> x, std::span<double> y) const;

  /// r = b − A x, with A x exactly as apply() computes it.
  void residual(std::span<const double> b, std::span<const double> x,
                std::span<double> r) const;

  /// The one kernel behind apply() and residual(): gathers x into the
  /// halo, then calls epilogue(node, ax) once per node with ax the node's
  /// three rows of A x (constrained dofs: ax[d] = x[dof]). The epilogue
  /// may write anything indexed by `node` alone — including x's own
  /// entries for that node, which the sweep reads only through the halo
  /// and before the call. Reuses an internal halo buffer, so concurrent
  /// sweeps on the same instance are not supported.
  template <typename Epilogue>
  void sweep(std::span<const double> x, Epilogue&& epilogue) const;

  /// Number of distinct 27-point block stencils in the dictionary.
  std::size_t distinctStencils() const { return table_.size() / kStencilSize; }

  /// Share of nodes swept by the full-width (kLanes) runs.
  double blockedFraction() const { return blockedFraction_; }

  Index dofCount() const { return nodes_ * 3; }

  /// The row kernel sweep() runs: bestStencilKernel() at construction.
  StencilKernel kernel() const { return kernel_; }

  /// Test hook: sweep with `kernel` instead (kAvx2 requires a CPU with
  /// AVX2). Not thread-safe against concurrent sweeps.
  void setKernelForTesting(StencilKernel kernel);

  /// Dictionary view for oracle tests: cells per axis, the per-node
  /// pattern ids, one pattern's stencil ([neighbor][row][col], neighbor
  /// t = (di+1) + 3(dj+1) + 9(dk+1)) and the per-dof Dirichlet mask.
  std::array<Index, 3> cells() const { return {nx_, ny_, nz_}; }
  std::span<const Index> patternIds() const { return patternId_; }
  std::span<const double> stencil(Index pattern) const {
    return std::span<const double>(table_).subspan(
        static_cast<std::size_t>(pattern) * kStencilSize, kStencilSize);
  }
  std::span<const std::uint8_t> constrainedMask() const {
    return constrained_;
  }

 private:
  // 27 neighbors × 3×3 block, [neighbor][row][col].
  static constexpr std::size_t kStencilSize = 27 * 9;
  // Nodes per full-width run: the lane count of the vectorized sweep.
  static constexpr int kLanes = 8;

  /// Consecutive nodes of one x-row sharing `pattern`; `count` is kLanes,
  /// kLanes/2, kLanes/4 or 1.
  struct Run {
    Index firstNode;
    Index pattern;
    Index count;
  };

  void gather(std::span<const double> x) const;

  /// One x-row of the sweep: its runs, each node handed to
  /// finish(node, a0, a1, a2). The body of both kernels.
  template <typename Finish>
  void sweepRow(std::int64_t row, Finish& finish) const;
  /// One run of W nodes: the lane loop with broadcast coefficients.
  template <int W, typename Finish>
  void sweepLanes(const double* table, std::ptrdiff_t h0, Index firstNode,
                  Finish& finish) const;

  /// The two kernels. `flatten` inlines the row body, the Dirichlet
  /// finish and the caller's epilogue into each, so no per-node call is
  /// left. GCC does not pass a target on to lambdas, so the AVX2 row loop
  /// must sit here, not in the parallelFor lambda that calls it.
  template <typename Finish>
  [[gnu::flatten]] void sweepRowPlain(std::int64_t row, Finish& finish) const {
    sweepRow(row, finish);
  }
#if VIADUCT_AVX2_DISPATCH
  template <typename Finish>
  [[gnu::flatten, gnu::target("avx2")]] void sweepRowAvx2(
      std::int64_t row, Finish& finish) const {
    sweepRow(row, finish);
  }
#endif

  Index nodes_ = 0;
  Index nx_ = 0, ny_ = 0, nz_ = 0;
  ThreadPool* pool_ = nullptr;
  StencilKernel kernel_ = StencilKernel::kPlain;
  std::vector<std::uint8_t> constrained_;
  std::vector<Index> patternId_;            // per node
  std::vector<double> table_;               // distinct stencils, packed
  std::array<std::ptrdiff_t, 27> offsets_;  // halo-node offsets, fixed order
  std::vector<Run> runs_;                   // row-major, x-ordered per row
  std::vector<Index> rowRuns_;              // per row: first run; rows + 1
  std::int64_t rowGrain_ = 1;               // rows per parallel chunk
  double blockedFraction_ = 0.0;
  std::size_t plane_ = 0;                   // halo entries per component
  mutable std::vector<double> halo_;        // x, y, z planes of masked x
};

template <typename Epilogue>
void NodeStencilOperator::sweep(std::span<const double> x,
                                Epilogue&& epilogue) const {
  VIADUCT_REQUIRE(x.size() == static_cast<std::size_t>(nodes_) * 3);
  gather(x);
  const std::uint8_t* mask = constrained_.data();

  // Dirichlet rows, then the caller's per-node work.
  const auto finish = [&](Index node, double a0, double a1, double a2) {
    const auto dof = static_cast<std::size_t>(node) * 3;
    const double ax[3] = {mask[dof + 0] ? x[dof + 0] : a0,
                          mask[dof + 1] ? x[dof + 1] : a1,
                          mask[dof + 2] ? x[dof + 2] : a2};
    epilogue(static_cast<std::size_t>(node), ax);
  };

  const std::int64_t rows = static_cast<std::int64_t>(ny_ + 1) * (nz_ + 1);
#if VIADUCT_AVX2_DISPATCH
  if (kernel_ == StencilKernel::kAvx2) {
    parallelFor(pool_, 0, rows, rowGrain_,
                [&](std::int64_t row) { sweepRowAvx2(row, finish); });
    return;
  }
#endif
  parallelFor(pool_, 0, rows, rowGrain_,
              [&](std::int64_t row) { sweepRowPlain(row, finish); });
}

template <int W, typename Finish>
void NodeStencilOperator::sweepLanes(const double* table, std::ptrdiff_t h0,
                                     Index firstNode, Finish& finish) const {
  const double* hx = halo_.data();
  const double* hy = hx + plane_;
  const double* hz = hy + plane_;
  double a0[W] = {}, a1[W] = {}, a2[W] = {};
  const double* st = table;
  for (int t = 0; t < 27; ++t, st += 9) {
    const double* px = hx + h0 + offsets_[static_cast<std::size_t>(t)];
    const double* py = hy + h0 + offsets_[static_cast<std::size_t>(t)];
    const double* pz = hz + h0 + offsets_[static_cast<std::size_t>(t)];
    const double s0 = st[0], s1 = st[1], s2 = st[2];
    const double s3 = st[3], s4 = st[4], s5 = st[5];
    const double s6 = st[6], s7 = st[7], s8 = st[8];
    for (int l = 0; l < W; ++l) {
      const double x0 = px[l], x1 = py[l], x2 = pz[l];
      a0[l] += s0 * x0 + s1 * x1 + s2 * x2;
      a1[l] += s3 * x0 + s4 * x1 + s5 * x2;
      a2[l] += s6 * x0 + s7 * x1 + s8 * x2;
    }
  }
  for (int l = 0; l < W; ++l) finish(firstNode + l, a0[l], a1[l], a2[l]);
}

template <typename Finish>
void NodeStencilOperator::sweepRow(std::int64_t row, Finish& finish) const {
  const Index nodesPerRow = nx_ + 1;
  const Index rowsPerSlab = ny_ + 1;
  const std::ptrdiff_t hRow = nx_ + 3;
  const std::ptrdiff_t hSlab = hRow * (ny_ + 3);
  const auto J = static_cast<Index>(row % rowsPerSlab);
  const auto K = static_cast<Index>(row / rowsPerSlab);
  // Halo index of the row's node I is hRowStart + I.
  const std::ptrdiff_t hRowStart = 1 + hRow * (J + 1) + hSlab * (K + 1) -
                                   static_cast<std::ptrdiff_t>(row) *
                                       nodesPerRow;
  for (Index ri = rowRuns_[static_cast<std::size_t>(row)];
       ri < rowRuns_[static_cast<std::size_t>(row) + 1]; ++ri) {
    const Run& run = runs_[static_cast<std::size_t>(ri)];
    const double* const table =
        &table_[static_cast<std::size_t>(run.pattern) * kStencilSize];
    const std::ptrdiff_t h0 = hRowStart + run.firstNode;
    switch (run.count) {
      case kLanes:
        sweepLanes<kLanes>(table, h0, run.firstNode, finish);
        break;
      case kLanes / 2:
        sweepLanes<kLanes / 2>(table, h0, run.firstNode, finish);
        break;
      case kLanes / 4:
        sweepLanes<kLanes / 4>(table, h0, run.firstNode, finish);
        break;
      default:
        sweepLanes<1>(table, h0, run.firstNode, finish);
        break;
    }
  }
}

}  // namespace viaduct
