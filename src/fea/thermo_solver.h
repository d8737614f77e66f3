// Thermoelastic finite-element solver on a voxel grid.
//
// Governing physics: static linear elasticity with a uniform thermal strain
// ε_th = α(T_operate − T_anneal)·I per material. Cooling from the anneal
// temperature puts high-CTE copper confined by low-CTE dielectric into
// tension — the thermomechanical stress σ_T of the paper.
//
// Boundary conditions: the substrate bottom is clamped (u = 0); the four
// side faces are rollers (zero normal displacement), modeling continuation
// of the die beyond the simulated window; the top surface is free. Pattern
// (Plus/T/L) differences enter through the painted geometry, not the BCs.
//
// The solve is matrix-free: on a voxel mesh all elements sharing a
// (material, cell-size) pair have identical 24×24 stiffness matrices, so
// the operator stores one matrix per distinct pair and applies them in a
// gather–scatter sweep.
//
// CG is preconditioned by the geometric multigrid V-cycle from
// fea/multigrid.h, and its matvec runs on that hierarchy's fine-level
// stencil operator (DESIGN.md §5.12). IC(0) on the assembled stiffness,
// with the matrix-free operator above as CG's matvec, is the fallback:
// under an enabled FailurePolicy a failed multigrid solve degrades to it on
// retry before the non-convergence escalates to the caller as a
// NumericalError.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "fault/policy.h"
#include "fea/hex8.h"
#include "fea/voxel_grid.h"
#include "numerics/cg.h"

namespace viaduct {

/// CG preconditioner for the thermoelastic solve. kMultigrid is the one
/// production configuration; kIc0 is the rung the failure ladder degrades
/// to and the comparison in perf_fea_mg.
enum class FeaPreconditionerKind {
  kIc0 = 1,
  kMultigrid = 2,
};

/// Short stable names used by the cache-key tags: "ic0", "mg".
const char* feaPreconditionerName(FeaPreconditionerKind kind);

/// Inverse of feaPreconditionerName; nullopt for unknown names.
std::optional<FeaPreconditionerKind> parseFeaPreconditionerName(
    std::string_view name);

struct ThermoSolverOptions {
  /// Anneal (stress-free reference) and operating temperatures [°C].
  double annealTemperatureC = 350.0;
  double operatingTemperatureC = 105.0;

  double cgRelativeTolerance = 1e-7;
  int cgMaxIterations = 20000;

  /// CG preconditioner; the same default as
  /// ViaArrayCharacterizationSpec::feaPreconditioner.
  FeaPreconditionerKind preconditioner = FeaPreconditionerKind::kMultigrid;

  /// Failure policy for the CG solve: a stalled or NaN-poisoned solve is
  /// retried `cgRetries` times from a zero guess with a tightened tolerance
  /// and a grown iteration cap (a multigrid solve additionally degrades to
  /// IC(0) on its first retry) before the non-convergence is thrown to the
  /// caller as a NumericalError.
  fault::FailurePolicy policy;

  /// Worker pool shared with the caller (borrowed, not owned). When null
  /// the solver creates its own pool from `parallelism`. All assembly and
  /// CG kernels partition work with fixed compile-time grains, so the
  /// solution is bit-identical for every pool size (including 1).
  ThreadPool* pool = nullptr;
  Parallelism parallelism;
};

class ThermoSolver {
 public:
  ThermoSolver(const VoxelGrid& grid, const ThermoSolverOptions& options);
  explicit ThermoSolver(const VoxelGrid& grid)
      : ThermoSolver(grid, ThermoSolverOptions{}) {}

  /// Assembles loads and solves for the displacement field. Returns CG
  /// statistics. Idempotent (re-solving is a no-op after success, returning
  /// the original statistics). Throws NumericalError when the solve has not
  /// converged after the policy's retry ladder is exhausted — a
  /// non-converged displacement field must never feed stress probes
  /// silently.
  CgResult solve();

  /// Solves K x = rhs with the configured preconditioner: one plain CG
  /// solve, no retry ladder, solver state untouched. `rhs` must vanish on
  /// constrained dofs (use constrainedMask()); `x` is the initial guess and
  /// the result. This is the harness for convergence studies (the MMS test,
  /// perf_fea_mg) that need the linear solver without the thermal load.
  CgResult solveSystem(std::span<const double> rhs, std::span<double> x) const;

  /// y = K x (the matrix-free stiffness with constrained identity rows) —
  /// lets tests manufacture consistent right-hand sides.
  void applyStiffness(std::span<const double> x, std::span<double> y) const;

  /// Per-dof Dirichlet mask (3 dof per node, x/y/z interleaved).
  const std::vector<bool>& constrainedMask() const { return constrained_; }

  /// Per-cell element operators in cell-index order (cells of one material
  /// and size share one entry) — what a VoxelStressMultigrid over this
  /// solver's system is built from.
  const std::vector<const Hex8Operators*>& elementOperators() const {
    return cellOps_;
  }

  /// The preconditioner in effect: the configured kind, or the ladder's
  /// degraded kind after a multigrid solve failed and retried on IC(0).
  FeaPreconditionerKind activePreconditioner() const { return activeKind_; }

  /// Convergence data of the last (only) CG solve — iterations, achieved
  /// relative residual, converged flag. Zero-initialized before solve().
  const CgResult& cgResult() const { return lastCg_; }

  /// ΔT = T_operate − T_anneal [K] (negative: cooling).
  double deltaT() const { return deltaT_; }

  /// Nodal displacement (must be solved first).
  std::array<double, 3> displacement(Index i, Index j, Index k) const;

  /// Centroid Voigt stress of a cell (mechanical stress, thermal strain
  /// subtracted), i.e. the stress a sensor in the material would feel.
  std::array<double, kStrainComponents> cellStress(Index i, Index j,
                                                   Index k) const;

  /// Hydrostatic stress of a cell, σ_H = tr(σ)/3.
  double cellHydrostatic(Index i, Index j, Index k) const;

  /// Samples σ_H along the x axis through cell row (j, k): one value per
  /// cell column, at cell centers. This realizes the paper's Figure 1/6/7
  /// "stress along the wire beneath the via" probes.
  struct Profile {
    std::vector<double> x;       // cell-center coordinates [m]
    std::vector<double> sigmaH;  // hydrostatic stress [Pa]
  };
  Profile hydrostaticProfileX(Index j, Index k) const;

  /// Peak σ_H over an axis-aligned cell box [i0,i1)×[j0,j1)×[k0,k1)
  /// restricted to cells of `onlyMaterial` (pass std::nullopt for all).
  double peakHydrostatic(Index i0, Index i1, Index j0, Index j1, Index k0,
                         Index k1,
                         std::optional<MaterialId> onlyMaterial) const;

  const VoxelGrid& grid() const { return grid_; }
  bool solved() const { return solved_; }

 private:
  friend class VoxelElasticityOperator;

  void setupConstraints();
  void buildOperators();
  std::vector<double> assembleThermalLoad() const;

  /// Builds (once) and returns the preconditioner for `activeKind_`.
  const Preconditioner& ensurePreconditioner() const;

  /// CG settings from the options (stalls return, never throw).
  CgOptions cgOptions() const;

  /// One preconditioned CG solve of K x = rhs under `activeKind_`.
  CgResult runCg(std::span<const double> rhs, std::span<double> x,
                 const CgOptions& cgOpts) const;

  /// Assembles the global CSR stiffness (constrained dofs as identity
  /// rows/columns) for the IC(0) path — node-gathered, rows emitted in
  /// sorted order.
  CsrMatrix assembleCsrStiffness() const;

  const Hex8Operators& cellOperators(Index i, Index j, Index k) const;
  void gatherElement(std::span<const double> u, Index i, Index j, Index k,
                     std::span<double> ue) const;

  const VoxelGrid& grid_;
  ThermoSolverOptions options_;
  double deltaT_ = 0.0;

  std::unique_ptr<ThreadPool> ownedPool_;
  ThreadPool* pool_ = nullptr;  // always non-null after construction

  // Distinct element operators keyed by (material, quantized cell sizes).
  std::map<std::tuple<int, long long, long long, long long>, Hex8Operators>
      operatorCache_;
  std::vector<const Hex8Operators*> cellOps_;  // per cell

  std::vector<bool> constrained_;  // per dof
  std::vector<double> displacements_;
  CgResult lastCg_;
  bool solved_ = false;

  /// Lazily built preconditioner; rebuilt when the failure ladder swaps
  /// kinds. Mutable because solveSystem() is logically const.
  mutable std::unique_ptr<Preconditioner> precond_;
  mutable FeaPreconditionerKind activeKind_ =
      FeaPreconditionerKind::kMultigrid;
};

}  // namespace viaduct
