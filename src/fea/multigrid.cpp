#include "fea/multigrid.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <tuple>

#include "common/check.h"
#include "numerics/dense.h"
#include "obs/obs.h"

namespace viaduct {

namespace {

// Same node grain as the fine-level solver (thermo_solver.cpp), so chunk
// layouts follow the established determinism discipline.
constexpr std::int64_t kNodeGrain = 256;
constexpr std::int64_t kDofGrain = 3 * kNodeGrain;
constexpr int kPowerIterations = 10;

// Chebyshev degree (= operator applies) of the pre- and of the post-smoother
// on the fine level and on every coarser one. Pre and post share one degree
// so the V-cycle stays symmetric (required for CG). The fine level owns
// almost all of the cycle's cost, so it smooths lightly and leans on the
// coarse correction; a coarser level's apply is ~8× cheaper per
// coarsening, so stronger smoothing there buys a better coarse correction
// (fewer CG iterations) at little cost.
constexpr int kFineSmoothDegree = 2;
constexpr int kCoarseSmoothDegree = 3;

int smoothDegree(std::size_t level) {
  return level == 0 ? kFineSmoothDegree : kCoarseSmoothDegree;
}

// The Chebyshev polynomial targets D⁻¹A eigenvalues in
// [λmax/kChebyshevEigRatio, kLambdaMaxSafety·λmax]. λmax is estimated per
// level at set-up by a fixed, deterministic power iteration, so the
// interval adapts to the material contrast instead of being hand-tuned;
// the safety factor is headroom for an estimate that converges from below
// (eigenvalues above the interval would diverge).
constexpr double kChebyshevEigRatio = 8.0;
constexpr double kLambdaMaxSafety = 1.1;

// Coarsening stops once a level has at most kCoarseDofLimit dof (that level
// is solved directly with dense Cholesky) or the hierarchy has kMaxLevels.
constexpr Index kCoarseDofLimit = 1000;
constexpr std::size_t kMaxLevels = 16;

struct AxisTransfer {
  // Per fine axis node (CSR over `ptr`): the nonzero linear factors of the
  // coarse cell it falls in, low node (1 − w) before high node (w), with
  // the coarse node's stride-scaled index along this axis, so a term's
  // coarse node is the sum of its three axis offsets. Aligned nodes keep a
  // single factor of exactly 1 because the coarse node coordinates are
  // copies of fine ones.
  std::vector<Index> ptr;
  std::vector<Index> offset;
  std::vector<double> factor;
};

AxisTransfer buildAxisTransfer(Index fineCells, Index coarseCells,
                               const std::vector<double>& fineCoord,
                               const std::vector<double>& coarseCoord,
                               Index coarseStride) {
  AxisTransfer t;
  t.ptr.reserve(static_cast<std::size_t>(fineCells) + 2);
  t.ptr.push_back(0);
  for (Index i = 0; i <= fineCells; ++i) {
    const Index c = std::min<Index>(i / 2, coarseCells - 1);
    const double x0 = coarseCoord[static_cast<std::size_t>(c)];
    const double x1 = coarseCoord[static_cast<std::size_t>(c) + 1];
    const double w =
        (fineCoord[static_cast<std::size_t>(i)] - x0) / (x1 - x0);
    for (int d = 0; d < 2; ++d) {
      const double f = d ? w : 1.0 - w;
      if (f == 0.0) continue;
      t.offset.push_back((c + d) * coarseStride);
      t.factor.push_back(f);
    }
    t.ptr.push_back(static_cast<Index>(t.factor.size()));
  }
  return t;
}

/// Calls fn(cn, w) for every trilinear term of fine node (I, J, K): the
/// coarse node and its weight (fx·fy)·fz, in (z, y, x) term order. Terms
/// with a zero factor, whose weight is zero, are absent.
template <typename Fn>
[[gnu::always_inline]] inline void forEachTransferTerm(const AxisTransfer& tx,
                                                       const AxisTransfer& ty,
                                                       const AxisTransfer& tz,
                                                       Index I, Index J,
                                                       Index K, Fn&& fn) {
  for (Index kz = tz.ptr[static_cast<std::size_t>(K)];
       kz < tz.ptr[static_cast<std::size_t>(K) + 1]; ++kz)
    for (Index jy = ty.ptr[static_cast<std::size_t>(J)];
         jy < ty.ptr[static_cast<std::size_t>(J) + 1]; ++jy)
      for (Index ix = tx.ptr[static_cast<std::size_t>(I)];
           ix < tx.ptr[static_cast<std::size_t>(I) + 1]; ++ix)
        fn(tx.offset[static_cast<std::size_t>(ix)] +
               ty.offset[static_cast<std::size_t>(jy)] +
               tz.offset[static_cast<std::size_t>(kz)],
           tx.factor[static_cast<std::size_t>(ix)] *
               ty.factor[static_cast<std::size_t>(jy)] *
               tz.factor[static_cast<std::size_t>(kz)]);
}

}  // namespace

struct VoxelStressMultigrid::Level {
  VoxelGrid grid;
  Index nodes = 0;

  // Per-dof Dirichlet mask (uint8 instead of vector<bool> for hot loops).
  std::vector<std::uint8_t> constrained;

  // Per-cell stiffness. Level 0 borrows the solver's operators; coarser
  // levels own theirs: Galerkin composites PᵀKP over the ≤8 children of a
  // coarse cell, deduplicated by the children's operator pointers (within a
  // level, a pointer uniquely identifies material and size, so equal keys
  // imply equal composites — uniform regions collapse to one entry).
  std::map<std::array<const Hex8Operators*, 8>, Hex8Operators> ownedOps;
  std::vector<const Hex8Operators*> cellOps;

  // Stencil-compressed stiffness; every level apply goes through it (the
  // coarsest level is solved dense instead).
  NodeStencilOperator op;

  // Inverted nodal 3×3 diagonal blocks (constrained dofs → identity).
  std::vector<double> blockInv;
  // Power-iteration estimate of λmax(D⁻¹A); the Chebyshev smoother targets
  // [λmax/eigRatio, safety·λmax].
  double lambdaMax = 1.0;

  // Transfer to the NEXT (coarser) level. Prolongation walks fine rows
  // over the per-axis factor lists; restriction uses the reverse lists
  // (CSR over coarse nodes) so the transpose sweep gathers per coarse
  // node — race-free and bit-identical for any pool size.
  AxisTransfer tx, ty, tz;
  std::int64_t rowGrain = 1;           // fine x-rows per prolongation chunk
  std::vector<Index> restrictPtr;      // coarseNodes + 1
  std::vector<Index> restrictFine;     // fine node indices
  std::vector<double> restrictWeight;  // matching trilinear weights

  // V-cycle scratch (one cycle at a time; see class comment). r/z hold the
  // restricted residual / coarse correction when this level is visited from
  // above; work is the residual buffer; smoothD carries the Chebyshev
  // direction vector.
  mutable std::vector<double> r, z, work, smoothD;

  explicit Level(VoxelGrid g)
      : grid(std::move(g)), nodes(grid.nodeCount()) {}
};

VoxelStressMultigrid::VoxelStressMultigrid(
    const VoxelGrid& grid, const std::vector<bool>& constrained,
    const std::vector<const Hex8Operators*>& cellOperators, ThreadPool* pool)
    : pool_(pool) {
  VIADUCT_SPAN("fea.mg_setup");
  VIADUCT_REQUIRE(pool_ != nullptr);
  buildHierarchy(grid, constrained, cellOperators);
  VIADUCT_GAUGE_SET("fea.mg_levels", levelCount());
  // The fine level carries nearly all sweep work, so its share of
  // full-width runs is the one that explains a solve's speed.
  VIADUCT_GAUGE_SET("fea.stencil_blocked_fraction",
                    fineOperator().blockedFraction());
}

VoxelStressMultigrid::~VoxelStressMultigrid() = default;

const NodeStencilOperator& VoxelStressMultigrid::levelOperator(
    int level) const {
  VIADUCT_REQUIRE(level >= 0 && (level == 0 || level + 1 < levelCount()));
  return levels_[static_cast<std::size_t>(level)]->op;
}

void VoxelStressMultigrid::setStencilKernelForTesting(StencilKernel kernel) {
  for (std::size_t l = 0; l < levels_.size(); ++l)
    if (l == 0 || l + 1 < levels_.size())
      levels_[l]->op.setKernelForTesting(kernel);
}

namespace {

/// Galerkin composite PᵀKP of a coarse cell from its children: P is the
/// trilinear interpolation from the coarse cell's 8 corners to a child's 8
/// corners (weights from physical coordinates, so merged trailing odd
/// cells and nonuniform axes are exact). Summation order is the fixed
/// (k, j, i) child order.
Hex8Operators galerkinCompositeOperator(
    const VoxelGrid& fg, const VoxelGrid& cg,
    const std::vector<const Hex8Operators*>& fineOps, Index ci, Index cj,
    Index ck) {
  Hex8Operators comp{};
  const double cx0 = cg.nodeX(ci), cx1 = cg.nodeX(ci + 1);
  const double cy0 = cg.nodeY(cj), cy1 = cg.nodeY(cj + 1);
  const double cz0 = cg.nodeZ(ck), cz1 = cg.nodeZ(ck + 1);
  for (Index k = ck * 2; k < std::min<Index>(ck * 2 + 2, fg.nz()); ++k)
    for (Index j = cj * 2; j < std::min<Index>(cj * 2 + 2, fg.ny()); ++j)
      for (Index i = ci * 2; i < std::min<Index>(ci * 2 + 2, fg.nx()); ++i) {
        const Hex8Operators& K =
            *fineOps[static_cast<std::size_t>(fg.cellIndex(i, j, k))];
        // Parametric coordinates of the child's low/high faces within the
        // coarse cell, per axis.
        const double ux[2] = {(fg.nodeX(i) - cx0) / (cx1 - cx0),
                              (fg.nodeX(i + 1) - cx0) / (cx1 - cx0)};
        const double vy[2] = {(fg.nodeY(j) - cy0) / (cy1 - cy0),
                              (fg.nodeY(j + 1) - cy0) / (cy1 - cy0)};
        const double wz[2] = {(fg.nodeZ(k) - cz0) / (cz1 - cz0),
                              (fg.nodeZ(k + 1) - cz0) / (cz1 - cz0)};
        // w[m][cc]: trilinear weight of coarse corner cc at child node m.
        double w[kHexNodes][kHexNodes];
        for (int m = 0; m < kHexNodes; ++m) {
          const double u = ux[m & 1], v = vy[(m >> 1) & 1],
                       s = wz[(m >> 2) & 1];
          for (int cc = 0; cc < kHexNodes; ++cc)
            w[m][cc] = ((cc & 1) ? u : 1.0 - u) *
                       (((cc >> 1) & 1) ? v : 1.0 - v) *
                       (((cc >> 2) & 1) ? s : 1.0 - s);
        }
        // T = K P, then comp += Pᵀ T.
        std::array<double, kHexDofs * kHexDofs> t{};
        for (int m = 0; m < kHexNodes; ++m)
          for (int cc = 0; cc < kHexNodes; ++cc) {
            const double wm = w[m][cc];
            if (wm == 0.0) continue;
            for (int r = 0; r < kHexDofs; ++r)
              for (int q = 0; q < 3; ++q)
                t[static_cast<std::size_t>(r) * kHexDofs + (3 * cc + q)] +=
                    wm * K.stiffness[static_cast<std::size_t>(r) * kHexDofs +
                                     (3 * m + q)];
          }
        for (int m = 0; m < kHexNodes; ++m)
          for (int cc = 0; cc < kHexNodes; ++cc) {
            const double wm = w[m][cc];
            if (wm == 0.0) continue;
            for (int p = 0; p < 3; ++p)
              for (int c2 = 0; c2 < kHexDofs; ++c2)
                comp.stiffness[static_cast<std::size_t>(3 * cc + p) *
                                   kHexDofs +
                               c2] +=
                    wm * t[static_cast<std::size_t>(3 * m + p) * kHexDofs +
                           c2];
          }
      }
  return comp;
}

/// Assembles, inverts and stores the nodal 3×3 diagonal blocks of a level
/// (constrained rows/cols replaced by identity before inversion): the
/// block-Jacobi scaling inside the Chebyshev smoother.
void buildLevelBlocks(VoxelStressMultigrid::Level& lvl, ThreadPool* pool) {
  const VoxelGrid& g = lvl.grid;
  const Index nodesPerRow = g.nx() + 1;
  const Index nodesPerSlab = nodesPerRow * (g.ny() + 1);
  lvl.blockInv.assign(static_cast<std::size_t>(lvl.nodes) * 9, 0.0);
  parallelFor(pool, 0, lvl.nodes, kNodeGrain, [&](std::int64_t ni) {
    const Index node = static_cast<Index>(ni);
    const Index K = node / nodesPerSlab;
    const Index rem = node % nodesPerSlab;
    const Index J = rem / nodesPerRow;
    const Index I = rem % nodesPerRow;
    double blk[9] = {0, 0, 0, 0, 0, 0, 0, 0, 0};
    const Index k0 = std::max<Index>(K - 1, 0);
    const Index k1 = std::min<Index>(K, g.nz() - 1);
    const Index j0 = std::max<Index>(J - 1, 0);
    const Index j1 = std::min<Index>(J, g.ny() - 1);
    const Index i0 = std::max<Index>(I - 1, 0);
    const Index i1 = std::min<Index>(I, g.nx() - 1);
    for (Index ck = k0; ck <= k1; ++ck)
      for (Index cj = j0; cj <= j1; ++cj)
        for (Index ci = i0; ci <= i1; ++ci) {
          const int n = (I - ci) + 2 * (J - cj) + 4 * (K - ck);
          const Hex8Operators& ops =
              *lvl.cellOps[static_cast<std::size_t>(g.cellIndex(ci, cj, ck))];
          for (int p = 0; p < 3; ++p)
            for (int q = 0; q < 3; ++q)
              blk[p * 3 + q] +=
                  ops.stiffness[(3 * n + p) * kHexDofs + (3 * n + q)];
        }
    for (int d = 0; d < 3; ++d) {
      if (!lvl.constrained[node * 3 + d]) continue;
      for (int q = 0; q < 3; ++q) {
        blk[d * 3 + q] = 0.0;
        blk[q * 3 + d] = 0.0;
      }
      blk[d * 3 + d] = 1.0;
    }
    invert3x3(blk, &lvl.blockInv[static_cast<std::size_t>(node) * 9]);
  });
}

/// Estimates λmax(D⁻¹A) on a level with a fixed-iteration power method from
/// a deterministic pseudo-random start vector (constrained dofs excluded:
/// they contribute the identity eigenvalue 1, never the max for these
/// systems). All reductions go through parallelReduce, so the estimate is
/// bit-identical for any pool size. Each iteration is one normalizing scale
/// and one stencil sweep whose epilogue applies the block inverse and the
/// constrained mask; the squared norm of the new vector is the next
/// iteration's normalizer.
double estimateBlockJacobiLambdaMax(const VoxelStressMultigrid::Level& lvl,
                                    ThreadPool& pool) {
  const std::int64_t dofs = static_cast<std::int64_t>(lvl.nodes) * 3;
  std::vector<double> v(static_cast<std::size_t>(dofs));
  std::vector<double> av(static_cast<std::size_t>(dofs));
  parallelFor(&pool, 0, dofs, kDofGrain, [&](std::int64_t i) {
    // Knuth multiplicative hash → [0.5, 1.5); avoids symmetric vectors that
    // could sit orthogonal to the dominant eigenvector.
    const std::uint64_t h =
        static_cast<std::uint64_t>(i) * 2654435761ull % 1024ull;
    v[static_cast<std::size_t>(i)] =
        lvl.constrained[static_cast<std::size_t>(i)]
            ? 0.0
            : 0.5 + static_cast<double>(h) / 1024.0;
  });
  auto squaredNorm = [&](const std::vector<double>& u) {
    return pool.parallelReduce(
        0, dofs, kDofGrain, 0.0,
        [&](std::int64_t b, std::int64_t e) {
          double s = 0.0;
          for (std::int64_t i = b; i < e; ++i)
            s += u[static_cast<std::size_t>(i)] *
                 u[static_cast<std::size_t>(i)];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  double lambda = 1.0;
  double n2 = squaredNorm(v);
  for (int it = 0; it < kPowerIterations; ++it) {
    if (!(n2 > 0.0)) break;
    const double invNorm = 1.0 / std::sqrt(n2);
    parallelFor(&pool, 0, dofs, kDofGrain, [&](std::int64_t i) {
      v[static_cast<std::size_t>(i)] *= invNorm;
    });
    lvl.op.sweep(v, [&](std::size_t n, const double* ax) {
      // The block inverse runs in place on A v, one row at a time, so rows
      // 1 and 2 read the rows above them already overwritten. This is not
      // exactly D⁻¹A v, but it is the arithmetic every stored stress
      // primitive and the golden data were computed with; changing it
      // moves their bits.
      const double* m = &lvl.blockInv[n * 9];
      double z[3] = {ax[0], ax[1], ax[2]};
      for (int p = 0; p < 3; ++p)
        z[p] = m[p * 3] * z[0] + m[p * 3 + 1] * z[1] + m[p * 3 + 2] * z[2];
      for (int p = 0; p < 3; ++p)
        av[n * 3 + static_cast<std::size_t>(p)] =
            lvl.constrained[n * 3 + static_cast<std::size_t>(p)] ? 0.0
                                                                 : z[p];
    });
    n2 = squaredNorm(av);
    lambda = std::sqrt(n2);
    v.swap(av);
  }
  return std::max(lambda, 1.0);
}

}  // namespace

void VoxelStressMultigrid::buildHierarchy(
    const VoxelGrid& fineGrid, const std::vector<bool>& constrained,
    const std::vector<const Hex8Operators*>& cellOperators) {
  VIADUCT_REQUIRE(static_cast<Index>(cellOperators.size()) ==
                      fineGrid.cellCount() &&
                  static_cast<Index>(constrained.size()) ==
                      fineGrid.nodeCount() * 3);

  // Level 0 mirrors the fine solver: borrowed operators, converted mask.
  auto fine = std::make_unique<Level>(fineGrid);
  fine->constrained.resize(constrained.size());
  for (std::size_t i = 0; i < constrained.size(); ++i)
    fine->constrained[i] = constrained[i] ? 1 : 0;
  fine->cellOps = cellOperators;
  levels_.push_back(std::move(fine));

  while (levels_.size() < kMaxLevels) {
    Level& f = *levels_.back();
    const Index dofs = f.nodes * 3;
    if (dofs <= kCoarseDofLimit) break;
    const VoxelGrid& fg = f.grid;
    if (fg.nx() <= 1 && fg.ny() <= 1 && fg.nz() <= 1) break;

    // Coarse geometry: pairwise-merged cell sizes per axis (a trailing odd
    // cell survives unmerged), so coarse node coordinates are exact copies
    // of fine ones and the axis transfer weights hit 0/1 exactly at
    // aligned nodes.
    std::vector<double> chx, chy, chz;
    chx.reserve(static_cast<std::size_t>((fg.nx() + 1) / 2));
    chy.reserve(static_cast<std::size_t>((fg.ny() + 1) / 2));
    chz.reserve(static_cast<std::size_t>((fg.nz() + 1) / 2));
    for (Index i = 0; i < fg.nx(); i += 2)
      chx.push_back(fg.cellSizeX(i) +
                    (i + 1 < fg.nx() ? fg.cellSizeX(i + 1) : 0.0));
    for (Index j = 0; j < fg.ny(); j += 2)
      chy.push_back(fg.cellSizeY(j) +
                    (j + 1 < fg.ny() ? fg.cellSizeY(j + 1) : 0.0));
    for (Index k = 0; k < fg.nz(); k += 2)
      chz.push_back(fg.cellSizeZ(k) +
                    (k + 1 < fg.nz() ? fg.cellSizeZ(k + 1) : 0.0));
    auto coarse = std::make_unique<Level>(VoxelGrid(chx, chy, chz));
    const VoxelGrid& cg = coarse->grid;

    // Coarse cell operators: Galerkin composites of the children,
    // deduplicated by the child-operator-pointer key (see Level::ownedOps).
    // Galerkin — rather than rediscretizing from averaged moduli — keeps
    // the coarse correction effective across the stack's material
    // interfaces, where averaging loses the jump and roughly doubles CG
    // iteration counts.
    const auto coarseCells = static_cast<std::size_t>(cg.cellCount());
    coarse->cellOps.resize(coarseCells);
    for (Index ck = 0; ck < cg.nz(); ++ck)
      for (Index cj = 0; cj < cg.ny(); ++cj)
        for (Index ci = 0; ci < cg.nx(); ++ci) {
          std::array<const Hex8Operators*, 8> key{};
          for (Index k = ck * 2; k < std::min<Index>(ck * 2 + 2, fg.nz()); ++k)
            for (Index j = cj * 2; j < std::min<Index>(cj * 2 + 2, fg.ny());
                 ++j)
              for (Index i = ci * 2; i < std::min<Index>(ci * 2 + 2, fg.nx());
                   ++i)
                key[static_cast<std::size_t>((i - ci * 2) + 2 * (j - cj * 2) +
                                             4 * (k - ck * 2))] =
                    f.cellOps[static_cast<std::size_t>(fg.cellIndex(i, j, k))];
          auto it = coarse->ownedOps.find(key);
          if (it == coarse->ownedOps.end())
            it = coarse->ownedOps
                     .emplace(key, galerkinCompositeOperator(fg, cg, f.cellOps,
                                                             ci, cj, ck))
                     .first;
          coarse->cellOps[static_cast<std::size_t>(
              cg.cellIndex(ci, cj, ck))] = &it->second;
        }

    // Coarse Dirichlet mask: the grid shape is preserved, so the same rule
    // as the fine solver (clamped k=0 face, x/y rollers on the sides).
    coarse->constrained.assign(static_cast<std::size_t>(coarse->nodes) * 3, 0);
    for (Index k = 0; k <= cg.nz(); ++k)
      for (Index j = 0; j <= cg.ny(); ++j)
        for (Index i = 0; i <= cg.nx(); ++i) {
          const Index n = cg.nodeIndex(i, j, k);
          if (k == 0) {
            coarse->constrained[n * 3 + 0] = 1;
            coarse->constrained[n * 3 + 1] = 1;
            coarse->constrained[n * 3 + 2] = 1;
            continue;
          }
          if (i == 0 || i == cg.nx()) coarse->constrained[n * 3 + 0] = 1;
          if (j == 0 || j == cg.ny()) coarse->constrained[n * 3 + 1] = 1;
        }

    // Fine→coarse transfer: per-axis factor lists, then the reverse
    // (restriction) lists, counting-sorted by coarse node in fine-node
    // order — a fixed, scheduling-independent layout.
    {
      const Index cRow = cg.nx() + 1, cSlab = cRow * (cg.ny() + 1);
      std::vector<double> fx(static_cast<std::size_t>(fg.nx()) + 1),
          cx(static_cast<std::size_t>(cg.nx()) + 1);
      for (Index i = 0; i <= fg.nx(); ++i)
        fx[static_cast<std::size_t>(i)] = fg.nodeX(i);
      for (Index i = 0; i <= cg.nx(); ++i)
        cx[static_cast<std::size_t>(i)] = cg.nodeX(i);
      f.tx = buildAxisTransfer(fg.nx(), cg.nx(), fx, cx, 1);
      std::vector<double> fy(static_cast<std::size_t>(fg.ny()) + 1),
          cy(static_cast<std::size_t>(cg.ny()) + 1);
      for (Index j = 0; j <= fg.ny(); ++j)
        fy[static_cast<std::size_t>(j)] = fg.nodeY(j);
      for (Index j = 0; j <= cg.ny(); ++j)
        cy[static_cast<std::size_t>(j)] = cg.nodeY(j);
      f.ty = buildAxisTransfer(fg.ny(), cg.ny(), fy, cy, cRow);
      std::vector<double> fz(static_cast<std::size_t>(fg.nz()) + 1),
          cz(static_cast<std::size_t>(cg.nz()) + 1);
      for (Index k = 0; k <= fg.nz(); ++k)
        fz[static_cast<std::size_t>(k)] = fg.nodeZ(k);
      for (Index k = 0; k <= cg.nz(); ++k)
        cz[static_cast<std::size_t>(k)] = cg.nodeZ(k);
      f.tz = buildAxisTransfer(fg.nz(), cg.nz(), fz, cz, cSlab);
      f.rowGrain = std::max<std::int64_t>(1, kNodeGrain / (fg.nx() + 1));
    }

    {
      // Every prolongation term in fine-node order.
      const auto forEachTerm = [&](auto&& fn) {
        Index node = 0;
        for (Index K = 0; K <= fg.nz(); ++K)
          for (Index J = 0; J <= fg.ny(); ++J)
            for (Index I = 0; I <= fg.nx(); ++I, ++node)
              forEachTransferTerm(f.tx, f.ty, f.tz, I, J, K,
                                  [&](Index cn, double w) { fn(node, cn, w); });
      };
      std::vector<Index>& ptr = f.restrictPtr;
      ptr.assign(static_cast<std::size_t>(coarse->nodes) + 1, 0);
      forEachTerm([&](Index, Index cn, double) {
        ++ptr[static_cast<std::size_t>(cn) + 1];
      });
      for (std::size_t cn = 0; cn < static_cast<std::size_t>(coarse->nodes);
           ++cn)
        ptr[cn + 1] += ptr[cn];
      f.restrictFine.resize(static_cast<std::size_t>(ptr.back()));
      f.restrictWeight.resize(static_cast<std::size_t>(ptr.back()));
      std::vector<Index> at(ptr.begin(), ptr.end() - 1);
      forEachTerm([&](Index fn, Index cn, double w) {
        Index& e = at[static_cast<std::size_t>(cn)];
        f.restrictFine[static_cast<std::size_t>(e)] = fn;
        f.restrictWeight[static_cast<std::size_t>(e)] = w;
        ++e;
      });
    }

    levels_.push_back(std::move(coarse));
  }

  // Smoother blocks and the Chebyshev interval's λmax on every level but
  // the coarsest (which is solved directly); scratch everywhere.
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    Level& lvl = *levels_[l];
    const auto dofs = static_cast<std::size_t>(lvl.nodes) * 3;
    lvl.r.assign(dofs, 0.0);
    lvl.z.assign(dofs, 0.0);
    lvl.work.assign(dofs, 0.0);
    // The fine level always gets a stencil operator even when the hierarchy
    // degenerates to a single dense-solved level: the solver uses
    // fineOperator() as CG's matvec in multigrid mode.
    if (l == 0 || l + 1 < levels_.size())
      lvl.op = NodeStencilOperator(lvl.grid, lvl.constrained, lvl.cellOps,
                                   pool_);
    if (l + 1 < levels_.size()) {
      lvl.smoothD.assign(dofs, 0.0);
      buildLevelBlocks(lvl, pool_);
      lvl.lambdaMax = estimateBlockJacobiLambdaMax(lvl, *pool_);
    }
  }

  // Barriers per V-cycle, in vcycle()'s order on every smoothed level: the
  // zero-guess first smoothing step (1), the other pre-smoothing steps, the
  // residual, restriction (1), prolongation (1) and the post-smoothing
  // steps — each stencil sweep a halo gather plus the row sweep (2). Then
  // apply()'s constrained copy (1); the dense coarsest solve opens none.
  parallelRegionsPerCycle_ = 1;
  for (std::size_t l = 0; l + 1 < levels_.size(); ++l) {
    const int degree = smoothDegree(l);
    parallelRegionsPerCycle_ += 1 + 2 * (degree - 1) + 2 + 1 + 1 + 2 * degree;
  }

  // Coarsest level: dense assembly with constrained rows/cols as identity,
  // factored once.
  {
    const Level& c = *levels_.back();
    const auto n = static_cast<std::size_t>(c.nodes) * 3;
    DenseMatrix a(n, n);
    const VoxelGrid& g = c.grid;
    for (Index ck = 0; ck < g.nz(); ++ck)
      for (Index cj = 0; cj < g.ny(); ++cj)
        for (Index ci = 0; ci < g.nx(); ++ci) {
          const Hex8Operators& ops =
              *c.cellOps[static_cast<std::size_t>(g.cellIndex(ci, cj, ck))];
          std::array<Index, kHexDofs> dofs;
          for (int m = 0; m < kHexNodes; ++m) {
            const Index mn = g.nodeIndex(ci + (m & 1), cj + ((m >> 1) & 1),
                                         ck + ((m >> 2) & 1));
            for (int d = 0; d < 3; ++d)
              dofs[static_cast<std::size_t>(3 * m + d)] = mn * 3 + d;
          }
          for (int p = 0; p < kHexDofs; ++p) {
            const Index rp = dofs[static_cast<std::size_t>(p)];
            if (c.constrained[rp]) continue;
            for (int q = 0; q < kHexDofs; ++q) {
              const Index cq = dofs[static_cast<std::size_t>(q)];
              if (c.constrained[cq]) continue;
              a(static_cast<std::size_t>(rp), static_cast<std::size_t>(cq)) +=
                  ops.stiffness[static_cast<std::size_t>(p) * kHexDofs +
                                static_cast<std::size_t>(q)];
            }
          }
        }
    for (std::size_t d = 0; d < n; ++d)
      if (c.constrained[d]) a(d, d) = 1.0;
    coarseFactor_.factor(a);
  }
}

// Block-Jacobi-preconditioned Chebyshev smoothing of degree `steps`: the
// update z += p(D⁻¹A) D⁻¹ (r − A z) with p the Chebyshev polynomial
// minimizing the error over D⁻¹A eigenvalues in [b/eigRatio, b],
// b = safety·λmax. The three-term recurrence costs one operator apply and
// one block-inverse apply per degree; |q(t)| < 1 on (0, b] for the error
// polynomial q, so the smoother alone converges and the symmetric
// V(k,k) cycle stays SPD. The zero-guess pre-smooth skips the (zero)
// initial operator apply. Every step is one stencil sweep whose per-node
// epilogue does the step's vector updates, which only touch that node.
void VoxelStressMultigrid::smooth(const Level& lvl, std::span<const double> r,
                                  std::span<double> z, int steps,
                                  bool zeroGuess) const {
  const double b = kLambdaMaxSafety * lvl.lambdaMax;
  const double a = b / kChebyshevEigRatio;
  const double theta = 0.5 * (b + a);
  const double delta = 0.5 * (b - a);
  const double sigma1 = theta / delta;
  double rho = 1.0 / sigma1;
  double* const work = lvl.work.data();
  double* const d = lvl.smoothD.data();

  // res = r − A z (just r on a zero guess) into work, then
  // d = (1/θ) D⁻¹ res; z ⇐ z + d.
  const double invTheta = 1.0 / theta;
  const auto firstStep = [&](std::size_t n, const double* res) {
    const double* m = &lvl.blockInv[n * 9];
    double* wn = work + n * 3;
    for (int p = 0; p < 3; ++p) wn[p] = res[p];
    for (int p = 0; p < 3; ++p) {
      d[n * 3 + p] =
          (m[p * 3] * wn[0] + m[p * 3 + 1] * wn[1] + m[p * 3 + 2] * wn[2]) *
          invTheta;
      if (zeroGuess)
        z[n * 3 + p] = d[n * 3 + p];
      else
        z[n * 3 + p] += d[n * 3 + p];
    }
  };
  if (zeroGuess) {
    parallelFor(pool_, 0, lvl.nodes, kNodeGrain, [&](std::int64_t ni) {
      const auto n = static_cast<std::size_t>(ni);
      firstStep(n, &r[n * 3]);
    });
  } else {
    lvl.op.sweep(z, [&](std::size_t n, const double* az) {
      const double res[3] = {r[n * 3] - az[0], r[n * 3 + 1] - az[1],
                             r[n * 3 + 2] - az[2]};
      firstStep(n, res);
    });
  }

  for (int k = 1; k < steps; ++k) {
    // res ⇐ res − A d, then d ⇐ ρ'ρ d + (2ρ'/δ) D⁻¹ res, z ⇐ z + d.
    const double rhoNew = 1.0 / (2.0 * sigma1 - rho);
    const double cd = rhoNew * rho;
    const double cr = 2.0 * rhoNew / delta;
    lvl.op.sweep(lvl.smoothD, [&](std::size_t n, const double* ad) {
      const double* m = &lvl.blockInv[n * 9];
      double* wn = work + n * 3;
      for (int p = 0; p < 3; ++p) wn[p] -= ad[p];
      double dr[3];
      for (int p = 0; p < 3; ++p)
        dr[p] = m[p * 3] * wn[0] + m[p * 3 + 1] * wn[1] + m[p * 3 + 2] * wn[2];
      for (int p = 0; p < 3; ++p) {
        d[n * 3 + p] = cd * d[n * 3 + p] + cr * dr[p];
        z[n * 3 + p] += d[n * 3 + p];
      }
    });
    rho = rhoNew;
  }
}

void VoxelStressMultigrid::vcycle(std::size_t level, std::span<const double> r,
                                  std::span<double> z) const {
  const Level& lvl = *levels_[level];
  if (level + 1 == levels_.size()) {
    coarseFactor_.solve(r, z);
    return;
  }
  const Level& next = *levels_[level + 1];
  const int degree = smoothDegree(level);

  smooth(lvl, r, z, degree, /*zeroGuess=*/true);

  // Residual, restricted to the coarse level (gather per coarse node).
  lvl.op.residual(r, z, lvl.work);
  parallelFor(pool_, 0, next.nodes, kNodeGrain, [&](std::int64_t cn) {
    const Index begin = lvl.restrictPtr[static_cast<std::size_t>(cn)];
    const Index end = lvl.restrictPtr[static_cast<std::size_t>(cn) + 1];
    double acc[3] = {0.0, 0.0, 0.0};
    for (Index e = begin; e < end; ++e) {
      const Index fn = lvl.restrictFine[static_cast<std::size_t>(e)];
      const double w = lvl.restrictWeight[static_cast<std::size_t>(e)];
      for (int d = 0; d < 3; ++d)
        acc[d] += w * lvl.work[static_cast<std::size_t>(fn) * 3 +
                               static_cast<std::size_t>(d)];
    }
    for (int d = 0; d < 3; ++d) {
      const auto dof = static_cast<std::size_t>(cn) * 3 +
                       static_cast<std::size_t>(d);
      next.r[dof] = next.constrained[dof] ? 0.0 : acc[d];
    }
  });

  vcycle(level + 1, next.r, next.z);

  // Prolongate the coarse correction and add (constrained dofs excluded),
  // one fine x-row at a time.
  const Index fRow = lvl.grid.nx() + 1, rowsPerSlab = lvl.grid.ny() + 1;
  const std::int64_t rows =
      static_cast<std::int64_t>(rowsPerSlab) * (lvl.grid.nz() + 1);
  parallelFor(pool_, 0, rows, lvl.rowGrain, [&](std::int64_t row) {
    const auto J = static_cast<Index>(row % rowsPerSlab);
    const auto K = static_cast<Index>(row / rowsPerSlab);
    const auto dof0 = static_cast<std::size_t>(row) *
                      static_cast<std::size_t>(fRow) * 3;
    for (Index I = 0; I < fRow; ++I) {
      double corr[3] = {0.0, 0.0, 0.0};
      forEachTransferTerm(lvl.tx, lvl.ty, lvl.tz, I, J, K,
                          [&](Index cn, double w) {
                            const double* zc =
                                &next.z[static_cast<std::size_t>(cn) * 3];
                            for (int d = 0; d < 3; ++d) corr[d] += w * zc[d];
                          });
      const std::size_t dof = dof0 + static_cast<std::size_t>(I) * 3;
      for (std::size_t d = 0; d < 3; ++d)
        if (!lvl.constrained[dof + d]) z[dof + d] += corr[d];
    }
  });

  smooth(lvl, r, z, degree, /*zeroGuess=*/false);
}

void VoxelStressMultigrid::apply(std::span<const double> r,
                                 std::span<double> z) const {
  VIADUCT_SPAN("fea.mg_cycle");
  VIADUCT_COUNTER_ADD("fea.mg_cycles", 1);
  VIADUCT_COUNTER_ADD("fea.mg_parallel_regions", parallelRegionsPerCycle_);
  const Level& fine = *levels_.front();
  VIADUCT_REQUIRE(r.size() == static_cast<std::size_t>(fine.nodes) * 3 &&
                  z.size() == r.size());
  vcycle(0, r, z);
  // M must preserve the constrained subspace exactly: CG's residual is
  // identically zero there and z = M⁻¹r has to keep it that way.
  const std::int64_t dofs = static_cast<std::int64_t>(fine.nodes) * 3;
  parallelFor(pool_, 0, dofs, kDofGrain, [&](std::int64_t i) {
    if (fine.constrained[static_cast<std::size_t>(i)])
      z[static_cast<std::size_t>(i)] = r[static_cast<std::size_t>(i)];
  });
}

}  // namespace viaduct
