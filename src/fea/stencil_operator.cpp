#include "fea/stencil_operator.h"

#include <algorithm>
#include <map>

#include "common/check.h"
#include "obs/obs.h"

namespace viaduct {

namespace {
// Same fixed node grain as the other FEA kernels.
constexpr std::int64_t kNodeGrain = 256;
}  // namespace

StencilKernel bestStencilKernel() {
  return cpuHasAvx2() ? StencilKernel::kAvx2 : StencilKernel::kPlain;
}

void NodeStencilOperator::setKernelForTesting(StencilKernel kernel) {
  VIADUCT_REQUIRE_MSG(
      kernel == StencilKernel::kPlain || bestStencilKernel() == kernel,
      "this CPU cannot run the AVX2 stencil rows");
  kernel_ = kernel;
}

NodeStencilOperator::NodeStencilOperator(
    const VoxelGrid& grid, std::span<const std::uint8_t> constrained,
    std::span<const Hex8Operators* const> cellOperators, ThreadPool* pool)
    : nodes_(grid.nodeCount()),
      nx_(grid.nx()),
      ny_(grid.ny()),
      nz_(grid.nz()),
      pool_(pool),
      kernel_(bestStencilKernel()),
      constrained_(constrained.begin(), constrained.end()) {
  VIADUCT_SPAN("fea.stencil_build");
  VIADUCT_GAUGE_SET("fea.stencil_kernel", static_cast<int>(kernel_));
  VIADUCT_REQUIRE(constrained.size() == static_cast<std::size_t>(nodes_) * 3 &&
                  cellOperators.size() ==
                      static_cast<std::size_t>(grid.cellCount()));

  // Halo layout: one ghost node ring on every side, always zero, so the
  // sweep needs no bounds checks; one plane per displacement component.
  const std::ptrdiff_t hRow = nx_ + 3;
  const std::ptrdiff_t hSlab = hRow * (ny_ + 3);
  for (int dk = -1; dk <= 1; ++dk)
    for (int dj = -1; dj <= 1; ++dj)
      for (int di = -1; di <= 1; ++di)
        offsets_[static_cast<std::size_t>((di + 1) + 3 * (dj + 1) +
                                          9 * (dk + 1))] =
            di + hRow * dj + hSlab * dk;
  plane_ = static_cast<std::size_t>(hSlab) * static_cast<std::size_t>(nz_ + 3);
  halo_.assign(plane_ * 3, 0.0);

  // Dictionary build: the stencil of a node is a function of its 8
  // adjacent element operators only (constraints are handled outside the
  // stencil, see apply()), so the key is those 8 pointers in fixed
  // relative order. The per-node key computation and local deduplication
  // run chunk-parallel; the global id assignment merges the chunk-local
  // dictionaries in chunk order, which visits first occurrences in node
  // order — the resulting ids and table are identical to a serial scan for
  // every pool size.
  patternId_.resize(static_cast<std::size_t>(nodes_));
  const Index nodesPerRow = nx_ + 1;
  const Index nodesPerSlab = nodesPerRow * (ny_ + 1);
  using Key = std::array<const Hex8Operators*, 8>;
  const auto nodeKey = [&](Index node) {
    const Index K = node / nodesPerSlab;
    const Index rem = node % nodesPerSlab;
    const Index J = rem / nodesPerRow;
    const Index I = rem % nodesPerRow;
    Key key{};
    for (int dk = -1; dk <= 0; ++dk)
      for (int dj = -1; dj <= 0; ++dj)
        for (int di = -1; di <= 0; ++di) {
          const Index ci = I + di, cj = J + dj, ck = K + dk;
          if (ci < 0 || ci >= nx_ || cj < 0 || cj >= ny_ || ck < 0 ||
              ck >= nz_)
            continue;
          key[static_cast<std::size_t>((di + 1) + 2 * (dj + 1) +
                                       4 * (dk + 1))] =
              cellOperators[static_cast<std::size_t>(
                  grid.cellIndex(ci, cj, ck))];
        }
    return key;
  };

  struct ChunkDict {
    std::vector<Key> firstSeen;    // local keys in first-occurrence order
    std::vector<Index> localId;    // per node in the chunk
  };
  const std::int64_t chunkCount =
      (nodes_ + kNodeGrain - 1) / kNodeGrain;
  std::vector<ChunkDict> chunks(static_cast<std::size_t>(chunkCount));
  parallelFor(pool, 0, chunkCount, 1, [&](std::int64_t c) {
    ChunkDict& cd = chunks[static_cast<std::size_t>(c)];
    const Index begin = static_cast<Index>(c * kNodeGrain);
    const Index end = std::min<Index>(begin + kNodeGrain, nodes_);
    cd.localId.resize(static_cast<std::size_t>(end - begin));
    std::map<Key, Index> local;
    for (Index node = begin; node < end; ++node) {
      const auto [it, inserted] =
          local.emplace(nodeKey(node), static_cast<Index>(local.size()));
      if (inserted) cd.firstSeen.push_back(it->first);
      cd.localId[static_cast<std::size_t>(node - begin)] = it->second;
    }
  });

  std::map<Key, Index> dict;
  for (std::int64_t c = 0; c < chunkCount; ++c) {
    ChunkDict& cd = chunks[static_cast<std::size_t>(c)];
    std::vector<Index> globalId(cd.firstSeen.size());
    for (std::size_t l = 0; l < cd.firstSeen.size(); ++l) {
      const Key& key = cd.firstSeen[l];
      const auto [it, inserted] =
          dict.emplace(key, static_cast<Index>(dict.size()));
      if (inserted) {
        table_.resize(table_.size() + kStencilSize, 0.0);
        double* st = &table_[table_.size() - kStencilSize];
        for (int dk = -1; dk <= 0; ++dk)
          for (int dj = -1; dj <= 0; ++dj)
            for (int di = -1; di <= 0; ++di) {
              const Hex8Operators* ops =
                  key[static_cast<std::size_t>((di + 1) + 2 * (dj + 1) +
                                               4 * (dk + 1))];
              if (ops == nullptr) continue;
              // The center node's local index in this cell.
              const int n = -di + 2 * -dj + 4 * -dk;
              for (int m = 0; m < kHexNodes; ++m) {
                const int t = (di + (m & 1) + 1) +
                              3 * (dj + ((m >> 1) & 1) + 1) +
                              9 * (dk + ((m >> 2) & 1) + 1);
                for (int p = 0; p < 3; ++p)
                  for (int q = 0; q < 3; ++q)
                    st[t * 9 + p * 3 + q] +=
                        ops->stiffness[static_cast<std::size_t>(3 * n + p) *
                                           kHexDofs +
                                       static_cast<std::size_t>(3 * m + q)];
              }
            }
      }
      globalId[l] = it->second;
    }
    const Index begin = static_cast<Index>(c * kNodeGrain);
    for (std::size_t i = 0; i < cd.localId.size(); ++i)
      patternId_[static_cast<std::size_t>(begin) + i] =
          globalId[static_cast<std::size_t>(cd.localId[i])];
    cd = ChunkDict{};  // release chunk memory as we go
  }
  VIADUCT_GAUGE_SET("fea.stencil_patterns",
                    static_cast<std::int64_t>(distinctStencils()));

  // Row runs: each maximal stretch of one pattern id along an x-row splits
  // into full-width runs of kLanes nodes, then the remainder into runs of
  // kLanes/2, kLanes/4 and 1 node where it is that long.
  const Index rows = (ny_ + 1) * (nz_ + 1);
  rowGrain_ = std::max<std::int64_t>(1, kNodeGrain / nodesPerRow);
  rowRuns_.reserve(static_cast<std::size_t>(rows) + 1);
  Index blockedNodes = 0;
  for (Index row = 0; row < rows; ++row) {
    rowRuns_.push_back(static_cast<Index>(runs_.size()));
    const Index rowEnd = (row + 1) * nodesPerRow;
    for (Index node = row * nodesPerRow; node < rowEnd;) {
      const Index pattern = patternId_[static_cast<std::size_t>(node)];
      Index end = node + 1;
      while (end < rowEnd &&
             patternId_[static_cast<std::size_t>(end)] == pattern)
        ++end;
      for (; end - node >= kLanes; node += kLanes) {
        runs_.push_back({node, pattern, kLanes});
        blockedNodes += kLanes;
      }
      // The remainder is under kLanes nodes: its binary digits.
      for (Index lanes = kLanes / 2; lanes >= 1; lanes /= 2)
        if (end - node >= lanes) {
          runs_.push_back({node, pattern, lanes});
          node += lanes;
        }
    }
  }
  rowRuns_.push_back(static_cast<Index>(runs_.size()));
  blockedFraction_ = nodes_ > 0 ? static_cast<double>(blockedNodes) /
                                      static_cast<double>(nodes_)
                                : 0.0;
}

void NodeStencilOperator::gather(std::span<const double> x) const {
  // Masked copy of x: constrained dofs become zero (the symmetric Dirichlet
  // "dropped column"); ghost entries stay zero.
  const Index nodesPerRow = nx_ + 1;
  const Index rowsPerSlab = ny_ + 1;
  const std::ptrdiff_t hRow = nx_ + 3;
  const std::ptrdiff_t hSlab = hRow * (ny_ + 3);
  double* hx = halo_.data();
  double* hy = hx + plane_;
  double* hz = hy + plane_;
  const std::int64_t rows = static_cast<std::int64_t>(rowsPerSlab) * (nz_ + 1);
  parallelFor(pool_, 0, rows, rowGrain_, [&](std::int64_t row) {
    const auto J = static_cast<Index>(row % rowsPerSlab);
    const auto K = static_cast<Index>(row / rowsPerSlab);
    const std::ptrdiff_t h0 = 1 + hRow * (J + 1) + hSlab * (K + 1);
    const auto dof0 = static_cast<std::size_t>(row) *
                      static_cast<std::size_t>(nodesPerRow) * 3;
    for (Index I = 0; I < nodesPerRow; ++I) {
      const std::size_t dof = dof0 + static_cast<std::size_t>(I) * 3;
      const std::ptrdiff_t h = h0 + I;
      hx[h] = constrained_[dof + 0] ? 0.0 : x[dof + 0];
      hy[h] = constrained_[dof + 1] ? 0.0 : x[dof + 1];
      hz[h] = constrained_[dof + 2] ? 0.0 : x[dof + 2];
    }
  });
}

void NodeStencilOperator::apply(std::span<const double> x,
                                std::span<double> y) const {
  VIADUCT_REQUIRE(y.size() == x.size());
  sweep(x, [&](std::size_t node, const double* ax) {
    double* yn = &y[node * 3];
    yn[0] = ax[0];
    yn[1] = ax[1];
    yn[2] = ax[2];
  });
}

void NodeStencilOperator::residual(std::span<const double> b,
                                   std::span<const double> x,
                                   std::span<double> r) const {
  VIADUCT_REQUIRE(b.size() == x.size() && r.size() == x.size());
  sweep(x, [&](std::size_t node, const double* ax) {
    const double* bn = &b[node * 3];
    double* rn = &r[node * 3];
    rn[0] = bn[0] - ax[0];
    rn[1] = bn[1] - ax[1];
    rn[2] = bn[2] - ax[2];
  });
}

}  // namespace viaduct
