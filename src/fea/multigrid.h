// Geometric multigrid preconditioner for the voxel thermoelasticity solve.
//
// The FEA system is the pipeline's wall-clock wall, and a one-level
// preconditioner leaves CG an iteration count that grows with the mesh.
// This V-cycle, the ThermoSolver's default, exploits what the matrix-free
// operator already knows — the mesh is a structured voxel grid — to
// precondition CG with a mesh-independent hierarchy:
//
//   - 2× cell coarsening per axis (odd trailing cells merge into the last
//     coarse cell), so every level is again a VoxelGrid;
//   - coarse-level operators are Galerkin composites: each coarse cell's
//     24×24 stiffness is Σ PᵀK_child P over its child cells, with P the
//     trilinear interpolation from the coarse cell's corners evaluated at
//     the child's physical node coordinates. Because the global trilinear
//     prolongation restricted to an element inside one coarse cell only
//     involves that cell's 8 corners, this per-cell composite IS the true
//     global Galerkin (RAP) operator — it keeps material-interface jumps
//     that volume-averaged rediscretization would smear. Composites are
//     deduplicated by the 8-tuple of child operator pointers, so layered
//     stacks stay as compact per level as the fine grid;
//   - trilinear (tensor-product, coordinate-weighted, so nonuniform axes
//     are handled) prolongation; restriction is its transpose, gathered
//     per coarse node so the sweep is race-free and bit-identical for any
//     pool size;
//   - block-Jacobi-preconditioned Chebyshev smoothing (a fixed-degree
//     polynomial in D⁻¹A targeting the upper spectrum [λmax/eigRatio,
//     λmax]; symmetric and convergent on the whole spectrum, so the
//     V-cycle is a fixed SPD operator and CG stays CG — and per operator
//     apply it damps far more of the rough spectrum than damped Jacobi);
//   - a dense Cholesky coarse solve (DenseCholeskyFactor) once the level
//     drops under 1000 dof.
//
// The smoothing degrees, the Chebyshev interval and the coarsening limits
// are fixed constants in multigrid.cpp: every caller runs one
// configuration, so every solve of a layout gives the same bits.
//
// Dirichlet handling matches the fine operator: constrained dofs are
// identity rows. Residuals entering a level are zeroed on constrained
// dofs, corrections leaving a level are zeroed again, and every smoother
// block is the identity on constrained components.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "fea/hex8.h"
#include "fea/stencil_operator.h"
#include "fea/voxel_grid.h"
#include "numerics/dense_cholesky.h"
#include "numerics/preconditioner.h"

namespace viaduct {

/// One V-cycle per apply(). Scratch vectors are per-level and mutable:
/// concurrent apply() calls on the SAME instance are not supported (CG
/// applies its preconditioner serially; parallel characterizations each
/// build their own solver and hierarchy).
class VoxelStressMultigrid final : public Preconditioner {
 public:
  /// `cellOperators` are the fine grid's per-cell Hex8 stiffness operators
  /// (borrowed; must outlive the preconditioner — the ThermoSolver owns
  /// them for the fine level). `constrained` is the per-dof Dirichlet mask.
  /// `pool` is required: every kernel, reductions included, runs on it, so
  /// the result is the same for every pool size.
  VoxelStressMultigrid(const VoxelGrid& grid,
                       const std::vector<bool>& constrained,
                       const std::vector<const Hex8Operators*>& cellOperators,
                       ThreadPool* pool);
  ~VoxelStressMultigrid() override;

  void apply(std::span<const double> r, std::span<double> z) const override;
  const char* name() const override { return "mg"; }

  /// Number of levels including the fine grid and the dense-solved
  /// coarsest one.
  int levelCount() const { return static_cast<int>(levels_.size()); }

  /// The level-0 stencil-compressed stiffness. In multigrid mode the solver
  /// also uses this as CG's operator, so the whole solve — matvec and
  /// preconditioner — runs on the compressed engine instead of re-gathering
  /// element blocks every apply.
  const NodeStencilOperator& fineOperator() const { return levelOperator(0); }

  /// The stencil operator of `level`: every level but the dense-solved
  /// coarsest one has one (level 0 always does).
  const NodeStencilOperator& levelOperator(int level) const;

  /// Pool parallel regions (each one barrier) a single apply() opens; the
  /// fea.mg_parallel_regions counter adds this once per V-cycle.
  std::int64_t parallelRegionsPerCycle() const {
    return parallelRegionsPerCycle_;
  }

  /// Test hook: every level's stencil sweeps run `kernel`
  /// (NodeStencilOperator::setKernelForTesting).
  void setStencilKernelForTesting(StencilKernel kernel);

  /// Opaque per-level data; public so the implementation's file-local
  /// kernels (operator apply, smoother, λmax estimator) can take it.
  struct Level;

 private:
  void buildHierarchy(const VoxelGrid& fineGrid,
                      const std::vector<bool>& constrained,
                      const std::vector<const Hex8Operators*>& cellOperators);
  void vcycle(std::size_t level, std::span<const double> r,
              std::span<double> z) const;
  void smooth(const Level& level, std::span<const double> r,
              std::span<double> z, int steps, bool zeroGuess) const;

  ThreadPool* pool_ = nullptr;
  std::vector<std::unique_ptr<Level>> levels_;
  std::int64_t parallelRegionsPerCycle_ = 0;
  DenseCholeskyFactor coarseFactor_;
};

}  // namespace viaduct
