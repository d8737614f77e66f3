// Pins the bits of the level-1 FEA output. The 4×4 Plus characterization
// solve feeds every via-array lifetime the pipeline reports, and a stored
// stress primitive is reused only when a rebuilt solver would reproduce it
// exactly. Any change to the FEA kernels — a new sweep kernel, a fused
// epilogue, a different set-up — must leave both hashes below unchanged;
// an intended change of the numbers comes with new values here and a bump
// of the primitive-store key.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "fea/thermo_solver.h"
#include "structures/cudd_builder.h"
#include "structures/probes.h"
#include "viaarray/characterize.h"

namespace viaduct {
namespace {

/// FNV-1a over the IEEE bit patterns of `values`, in order.
std::uint64_t bitsHash(const std::vector<double>& values) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double v : values) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 64; b += 8) {
      h ^= (bits >> b) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(FeaPinnedOutput, PlusDisplacementAndRawStressHashesArePinned) {
  const ViaArrayCharacterizationSpec spec;  // 4×4 Plus, multigrid
  ASSERT_EQ(spec.pattern, IntersectionPattern::kPlus);
  const BuiltStructure built = buildViaArrayStructure(ViaArrayStructureSpec{
      .viaArray = spec.array,
      .pattern = spec.pattern,
      .wireWidth = spec.wireWidth,
      .margin = spec.margin,
      .resolutionXy = spec.resolutionXy,
      .stack = spec.stack,
  });

  ThreadPool pool(2);
  ThermoSolverOptions opts;
  opts.pool = &pool;
  opts.preconditioner = FeaPreconditionerKind::kMultigrid;
  ThermoSolver solver(built.grid, opts);
  const CgResult cg = solver.solve();
  ASSERT_TRUE(cg.converged);

  std::vector<double> field;
  const VoxelGrid& g = built.grid;
  for (Index k = 0; k <= g.nz(); ++k)
    for (Index j = 0; j <= g.ny(); ++j)
      for (Index i = 0; i <= g.nx(); ++i) {
        const auto u = solver.displacement(i, j, k);
        field.insert(field.end(), u.begin(), u.end());
      }
  EXPECT_EQ(cg.iterations, 17);
  EXPECT_EQ(field.size(), std::size_t{26896} * 3);
  EXPECT_EQ(bitsHash(field), 0x96fa4b44ec0a9175ull) << std::hex << bitsHash(field);

  // The characterizer's own raw σ_T (the primitive-store payload).
  ViaArrayCharacterizationSpec charSpec;
  charSpec.trials = 2;
  charSpec.parallelism.threads = 2;
  const ViaArrayCharacterizer characterizer(charSpec);
  EXPECT_EQ(characterizer.rawSigmaT(), perViaPeakStress(solver, built));
  EXPECT_EQ(bitsHash(characterizer.rawSigmaT()), 0xb127ffa3098f9fc6ull)
      << std::hex << bitsHash(characterizer.rawSigmaT());
}

}  // namespace
}  // namespace viaduct
