// Bit-identity tests for the stencil-compressed voxel operator
// (fea/stencil_operator.h). The oracle below is the plain per-node sweep
// over an interleaved (x/y/z per node) halo — the operator's original
// kernel. The row-run sweep, with its component-planar halo and vectorized
// full-width runs, must reproduce it bit-for-bit for apply() and for the
// residual form, on the Plus/T/L via-array grids, on every multigrid
// coarse level, on synthetic rows of 2, 7, 9 and 41 nodes, and for pools
// of 1, 2 and 4 threads. The operator must also agree with the solver's
// matrix-free cell-loop stiffness to summation-order rounding.
//
// The plain and AVX2 row kernels must agree bit for bit on the same grids
// and pools, for apply(), residual() and a whole V-cycle; the stack 3×3
// inverse behind the smoother blocks must equal DenseLu's on every
// smoothed level's nodal blocks.
#include "fea/stencil_operator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "fea/multigrid.h"
#include "fea/thermo_solver.h"
#include "numerics/dense.h"
#include "obs/obs.h"
#include "structures/cudd_builder.h"
#include "viaarray/characterize.h"

namespace viaduct {
namespace {

/// y = A x, one node at a time over an interleaved halo: ghost ring of
/// zeros, constrained dofs masked in the copy and restored as identity
/// rows afterwards.
std::vector<double> oracleApply(const NodeStencilOperator& op,
                                const std::vector<double>& x) {
  const auto [nx, ny, nz] = op.cells();
  const Index nodesPerRow = nx + 1;
  const Index nodesPerSlab = nodesPerRow * (ny + 1);
  const Index nodes = nodesPerSlab * (nz + 1);
  const std::ptrdiff_t hRow = nx + 3;
  const std::ptrdiff_t hSlab = hRow * (ny + 3);
  std::array<std::ptrdiff_t, 27> offsets{};
  for (int dk = -1; dk <= 1; ++dk)
    for (int dj = -1; dj <= 1; ++dj)
      for (int di = -1; di <= 1; ++di)
        offsets[static_cast<std::size_t>((di + 1) + 3 * (dj + 1) +
                                         9 * (dk + 1))] =
            di + hRow * dj + hSlab * dk;
  const auto mask = op.constrainedMask();
  const auto haloIndex = [&](Index node) {
    const Index K = node / nodesPerSlab;
    const Index rem = node % nodesPerSlab;
    const Index J = rem / nodesPerRow;
    const Index I = rem % nodesPerRow;
    return static_cast<std::ptrdiff_t>(I + 1) + hRow * (J + 1) +
           hSlab * (K + 1);
  };

  std::vector<double> halo(
      static_cast<std::size_t>(hSlab) * static_cast<std::size_t>(nz + 3) * 3,
      0.0);
  for (Index node = 0; node < nodes; ++node) {
    const auto h = static_cast<std::size_t>(haloIndex(node));
    for (std::size_t d = 0; d < 3; ++d) {
      const std::size_t dof = static_cast<std::size_t>(node) * 3 + d;
      halo[h * 3 + d] = mask[dof] ? 0.0 : x[dof];
    }
  }

  std::vector<double> y(x.size());
  for (Index node = 0; node < nodes; ++node) {
    const std::ptrdiff_t h = haloIndex(node);
    const double* st =
        op.stencil(op.patternIds()[static_cast<std::size_t>(node)]).data();
    double a0 = 0.0, a1 = 0.0, a2 = 0.0;
    for (int t = 0; t < 27; ++t, st += 9) {
      const auto ht = h + offsets[static_cast<std::size_t>(t)];
      const double* xb = &halo[static_cast<std::size_t>(ht) * 3];
      const double x0 = xb[0], x1 = xb[1], x2 = xb[2];
      a0 += st[0] * x0 + st[1] * x1 + st[2] * x2;
      a1 += st[3] * x0 + st[4] * x1 + st[5] * x2;
      a2 += st[6] * x0 + st[7] * x1 + st[8] * x2;
    }
    const auto dof = static_cast<std::size_t>(node) * 3;
    y[dof + 0] = mask[dof + 0] ? x[dof + 0] : a0;
    y[dof + 1] = mask[dof + 1] ? x[dof + 1] : a1;
    y[dof + 2] = mask[dof + 2] ? x[dof + 2] : a2;
  }
  return y;
}

std::vector<double> randomVector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed, /*stream=*/5);
  std::vector<double> v(n);
  for (double& e : v) e = rng.uniform(-1.0, 1.0);
  return v;
}

/// The solver's own element operators and Dirichlet mask, with the
/// multigrid hierarchy over them built on a pool of `threads`.
struct Fixture {
  Fixture(const VoxelGrid& grid, int threads) : solver(grid), pool(threads) {
    mg = std::make_unique<VoxelStressMultigrid>(
        grid, solver.constrainedMask(), solver.elementOperators(), &pool);
  }

  /// Level indices that carry a stencil operator.
  std::vector<int> operatorLevels() const {
    std::vector<int> levels{0};
    for (int l = 1; l + 1 < mg->levelCount(); ++l) levels.push_back(l);
    return levels;
  }

  ThermoSolver solver;
  ThreadPool pool;
  std::unique_ptr<VoxelStressMultigrid> mg;
};

/// apply() and residual() against the oracle, bit for bit.
void expectBitIdentical(const NodeStencilOperator& op, std::uint64_t seed,
                        const std::string& where) {
  const auto n = static_cast<std::size_t>(op.dofCount());
  const std::vector<double> x = randomVector(n, seed);
  const std::vector<double> b = randomVector(n, seed + 1);
  const std::vector<double> want = oracleApply(op, x);

  std::vector<double> y(n, -1.0);
  op.apply(x, y);
  EXPECT_EQ(y, want) << where << ": apply";

  std::vector<double> r(n, -1.0);
  op.residual(b, x, r);
  std::vector<double> wantR(n);
  for (std::size_t i = 0; i < n; ++i) wantR[i] = b[i] - want[i];
  EXPECT_EQ(r, wantR) << where << ": residual";
}

double maxRelativeError(const std::vector<double>& got,
                        const std::vector<double>& want) {
  double err = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    err = std::max(err, std::abs(got[i] - want[i]));
    scale = std::max(scale, std::abs(want[i]));
  }
  return err / scale;
}

/// Layered stack (material by layer) with a sprinkling of random cells, so
/// rows mix long uniform stretches with short ones.
VoxelGrid syntheticGrid(Index nx, Index ny, Index nz, std::uint64_t seed) {
  VoxelGrid g = VoxelGrid::uniform(nx, ny, nz, 0.25e-6, 0.3e-6, 0.2e-6);
  Rng rng(seed, /*stream=*/11);
  for (Index k = 0; k < nz; ++k)
    for (Index j = 0; j < ny; ++j)
      for (Index i = 0; i < nx; ++i) {
        const bool sprinkle = rng.uniform() < 0.1;
        g.setMaterial(i, j, k,
                      static_cast<MaterialId>(
                          sprinkle ? rng.uniformInt(kMaterialCount)
                                   : static_cast<std::uint64_t>(k % 3)));
      }
  return g;
}

/// The 4×4 array at the characterizer's default margin and resolution —
/// the grid every level-1 characterization solves.
ViaArrayStructureSpec characterizedArray(IntersectionPattern pattern) {
  const ViaArrayCharacterizationSpec defaults;
  ViaArrayStructureSpec spec;
  spec.viaArray.n = 4;
  spec.pattern = pattern;
  spec.margin = defaults.margin;
  spec.resolutionXy = defaults.resolutionXy;
  return spec;
}

TEST(FeaStencilOperator, PatternGridsMatchTheOracleOnEveryLevel) {
  for (const IntersectionPattern pattern :
       {IntersectionPattern::kPlus, IntersectionPattern::kT,
        IntersectionPattern::kL}) {
    const BuiltStructure built =
        buildViaArrayStructure(characterizedArray(pattern));
    for (const int threads : {1, 2, 4}) {
      const Fixture f(built.grid, threads);
      ASSERT_GE(f.mg->levelCount(), 3);
      for (const int level : f.operatorLevels())
        expectBitIdentical(
            f.mg->levelOperator(level), 100 + level,
            "pattern " + std::to_string(static_cast<int>(pattern)) +
                " level " + std::to_string(level) + " threads " +
                std::to_string(threads));
    }
  }
}

TEST(FeaStencilOperator, SyntheticRowLengthsMatchTheOracle) {
  for (const Index rowNodes : {2, 7, 9, 41}) {
    const VoxelGrid g = syntheticGrid(rowNodes - 1, 5, 6, 40 + rowNodes);
    for (const int threads : {1, 2, 4}) {
      const Fixture f(g, threads);
      for (const int level : f.operatorLevels())
        expectBitIdentical(f.mg->levelOperator(level), 7 * rowNodes + level,
                           "row " + std::to_string(rowNodes) + " level " +
                               std::to_string(level) + " threads " +
                               std::to_string(threads));
    }
  }
}

TEST(FeaStencilOperator, AgreesWithTheMatrixFreeStiffness) {
  const BuiltStructure built =
      buildViaArrayStructure(characterizedArray(IntersectionPattern::kPlus));
  const VoxelGrid synthetic = syntheticGrid(40, 5, 6, 3);
  for (const VoxelGrid* g : {&built.grid, &synthetic}) {
    const Fixture f(*g, 2);
    const NodeStencilOperator& op = f.mg->fineOperator();
    const auto n = static_cast<std::size_t>(op.dofCount());
    const std::vector<double> x = randomVector(n, 9);
    std::vector<double> y(n), want(n);
    op.apply(x, y);
    f.solver.applyStiffness(x, want);
    EXPECT_LE(maxRelativeError(y, want), 1e-12) << g->nx();
  }
}

TEST(FeaStencilOperator, FullWidthRunsCoverUniformRowInteriors) {
  // Every 41-node row of a uniform grid is [boundary][39 × one pattern]
  // [boundary]: four full-width runs, then runs of 4, 2 and 1 node.
  const VoxelGrid g = VoxelGrid::uniform(40, 3, 4, 0.25e-6, 0.25e-6, 0.2e-6,
                                         MaterialId::kCopper);
  const Fixture f(g, 1);
  EXPECT_DOUBLE_EQ(f.mg->fineOperator().blockedFraction(), 32.0 / 41.0);
  // Rows shorter than one full run have no full-width run.
  const VoxelGrid narrow = VoxelGrid::uniform(8, 3, 4, 0.25e-6, 0.25e-6,
                                              0.2e-6, MaterialId::kCopper);
  const Fixture fn(narrow, 1);
  EXPECT_EQ(fn.mg->fineOperator().blockedFraction(), 0.0);
}

TEST(FeaStencilOperator, BlockedFractionGaugeReportsTheFineLevel) {
  if (!obs::enabled()) GTEST_SKIP() << "obs compiled out";
  // The hierarchy builds its coarse operators after the fine one; the
  // gauge must still hold the fine level's share.
  const BuiltStructure built =
      buildViaArrayStructure(characterizedArray(IntersectionPattern::kPlus));
  const Fixture f(built.grid, 1);
  ASSERT_GE(f.mg->levelCount(), 3);
  const double fine = f.mg->fineOperator().blockedFraction();
  EXPECT_NE(f.mg->levelOperator(f.mg->levelCount() - 2).blockedFraction(),
            fine);
  EXPECT_EQ(
      obs::Registry::instance().gauge("fea.stencil_blocked_fraction").value(),
      fine);
}

/// Every output the two row kernels must agree on for one hierarchy: each
/// operator level's apply() and residual(), then a V-cycle.
std::vector<std::vector<double>> kernelOutputs(Fixture& f,
                                               StencilKernel kernel,
                                               std::uint64_t seed) {
  f.mg->setStencilKernelForTesting(kernel);
  std::vector<std::vector<double>> out;
  for (const int level : f.operatorLevels()) {
    const NodeStencilOperator& op = f.mg->levelOperator(level);
    EXPECT_EQ(op.kernel(), kernel);
    const auto n = static_cast<std::size_t>(op.dofCount());
    const std::vector<double> x = randomVector(n, seed + level);
    const std::vector<double> b = randomVector(n, seed + level + 50);
    std::vector<double>& y = out.emplace_back(n);
    op.apply(x, y);
    std::vector<double>& r = out.emplace_back(n);
    op.residual(b, x, r);
  }
  const auto n = static_cast<std::size_t>(f.mg->fineOperator().dofCount());
  std::vector<double> r = randomVector(n, seed + 99);
  const auto& mask = f.solver.constrainedMask();
  for (std::size_t i = 0; i < n; ++i)
    if (mask[i]) r[i] = 0.0;
  std::vector<double>& z = out.emplace_back(n, 0.0);
  f.mg->apply(r, z);
  return out;
}

/// Bitwise: EXPECT_EQ on doubles would let -0.0 match +0.0.
bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expectKernelsAgree(const VoxelGrid& grid, std::uint64_t seed,
                        const std::string& where) {
  for (const int threads : {1, 2, 4}) {
    Fixture f(grid, threads);
    const auto plain = kernelOutputs(f, StencilKernel::kPlain, seed);
    const auto avx2 = kernelOutputs(f, StencilKernel::kAvx2, seed);
    ASSERT_EQ(plain.size(), avx2.size());
    for (std::size_t i = 0; i < plain.size(); ++i)
      EXPECT_TRUE(sameBits(plain[i], avx2[i]))
          << where << " threads " << threads << " output " << i
          << (i + 1 == plain.size() ? " (V-cycle)" : "");
  }
}

TEST(FeaStencilKernels, PlainAndAvx2RowsAgreeOnPatternGrids) {
  if (bestStencilKernel() != StencilKernel::kAvx2)
    GTEST_SKIP() << "CPU without AVX2";
  for (const IntersectionPattern pattern :
       {IntersectionPattern::kPlus, IntersectionPattern::kT,
        IntersectionPattern::kL}) {
    const BuiltStructure built =
        buildViaArrayStructure(characterizedArray(pattern));
    expectKernelsAgree(built.grid, 300,
                       "pattern " + std::to_string(static_cast<int>(pattern)));
  }
}

TEST(FeaStencilKernels, PlainAndAvx2RowsAgreeOnSyntheticRowLengths) {
  if (bestStencilKernel() != StencilKernel::kAvx2)
    GTEST_SKIP() << "CPU without AVX2";
  for (const Index rowNodes : {2, 7, 9, 41})
    expectKernelsAgree(syntheticGrid(rowNodes - 1, 5, 6, 40 + rowNodes),
                       11 * rowNodes, "row " + std::to_string(rowNodes));
}

TEST(FeaStencilKernels, OperatorsRunTheBestKernelAndTheHookChecksTheCpu) {
  const VoxelGrid g = syntheticGrid(9, 3, 4, 5);
  Fixture f(g, 1);
  for (const int level : f.operatorLevels())
    EXPECT_EQ(f.mg->levelOperator(level).kernel(), bestStencilKernel());
  if (bestStencilKernel() == StencilKernel::kPlain) {
    EXPECT_THROW(f.mg->setStencilKernelForTesting(StencilKernel::kAvx2),
                 PreconditionError);
  }
  if (obs::enabled()) {
    EXPECT_EQ(obs::Registry::instance().gauge("fea.stencil_kernel").value(),
              static_cast<double>(bestStencilKernel()));
  }
}

TEST(FeaStencilKernels, StackInverseMatchesDenseLuOnEveryLevelBlock) {
  // A node's nodal diagonal block is its stencil's center entry; with the
  // constrained rows and columns replaced by identity, exactly what the
  // smoother inverts.
  for (const IntersectionPattern pattern :
       {IntersectionPattern::kPlus, IntersectionPattern::kT,
        IntersectionPattern::kL}) {
    const BuiltStructure built =
        buildViaArrayStructure(characterizedArray(pattern));
    const Fixture f(built.grid, 1);
    for (const int level : f.operatorLevels()) {
      const NodeStencilOperator& op = f.mg->levelOperator(level);
      const auto mask = op.constrainedMask();
      const auto ids = op.patternIds();
      std::size_t mismatches = 0, constrainedBlocks = 0;
      for (std::size_t node = 0; node < ids.size(); ++node) {
        double blk[9];
        const double* center = op.stencil(ids[node]).data() + 13 * 9;
        std::copy(center, center + 9, blk);
        bool constrained = false;
        for (int d = 0; d < 3; ++d) {
          if (!mask[node * 3 + static_cast<std::size_t>(d)]) continue;
          constrained = true;
          for (int q = 0; q < 3; ++q) blk[d * 3 + q] = blk[q * 3 + d] = 0.0;
          blk[d * 3 + d] = 1.0;
        }
        constrainedBlocks += constrained ? 1 : 0;
        DenseMatrix m(3, 3);
        for (std::size_t p = 0; p < 3; ++p)
          for (std::size_t q = 0; q < 3; ++q) m(p, q) = blk[p * 3 + q];
        const DenseMatrix want = m.solveMultiple(DenseMatrix::identity(3));
        double got[9];
        invert3x3(blk, got);
        for (std::size_t p = 0; p < 3; ++p)
          for (std::size_t q = 0; q < 3; ++q)
            if (std::bit_cast<std::uint64_t>(got[p * 3 + q]) !=
                std::bit_cast<std::uint64_t>(want(p, q)))
              ++mismatches;
      }
      EXPECT_EQ(mismatches, 0u) << "pattern " << static_cast<int>(pattern)
                                << " level " << level;
      EXPECT_GT(constrainedBlocks, 0u);
    }
  }
}

TEST(FeaStencilOperator, VcycleIsBitIdenticalAcrossPools) {
  const BuiltStructure built =
      buildViaArrayStructure(characterizedArray(IntersectionPattern::kT));
  std::vector<double> reference;
  for (const int threads : {1, 2, 4}) {
    const Fixture f(built.grid, threads);
    const auto n = static_cast<std::size_t>(f.mg->fineOperator().dofCount());
    std::vector<double> r = randomVector(n, 21);
    const auto& mask = f.solver.constrainedMask();
    for (std::size_t i = 0; i < n; ++i)
      if (mask[i]) r[i] = 0.0;
    std::vector<double> z(n, 0.0);
    f.mg->apply(r, z);
    if (reference.empty())
      reference = z;
    else
      EXPECT_EQ(z, reference) << threads;
  }
}

TEST(FeaStencilOperator, ParallelRegionCounterMatchesThePoolsJobs) {
  if (!obs::enabled()) GTEST_SKIP() << "obs compiled out";
  const BuiltStructure built =
      buildViaArrayStructure(characterizedArray(IntersectionPattern::kL));
  for (const int threads : {1, 4}) {
    const Fixture f(built.grid, threads);
    const auto n = static_cast<std::size_t>(f.mg->fineOperator().dofCount());
    const std::vector<double> r(n, 0.0);
    std::vector<double> z(n, 0.0);
    auto& reg = obs::Registry::instance();
    const auto jobs = [&] {
      return reg.counter("pool.jobs").value() +
             reg.counter("pool.jobs_inline").value();
    };
    const std::uint64_t jobsBefore = jobs();
    const std::uint64_t regionsBefore =
        reg.counter("fea.mg_parallel_regions").value();
    f.mg->apply(r, z);
    f.mg->apply(r, z);
    EXPECT_EQ(reg.counter("fea.mg_parallel_regions").value() - regionsBefore,
              2 * static_cast<std::uint64_t>(f.mg->parallelRegionsPerCycle()));
    EXPECT_EQ(jobs() - jobsBefore,
              2 * static_cast<std::uint64_t>(f.mg->parallelRegionsPerCycle()))
        << threads;
  }
}

}  // namespace
}  // namespace viaduct
