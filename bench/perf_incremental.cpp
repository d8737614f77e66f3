// Incremental-update ablation (google-benchmark): cost of one
// "fail a via array, re-evaluate the IR drop" step inside the grid Monte
// Carlo, comparing the Woodbury fast path (this library's default) against
// numeric refactorization and a from-scratch factorization. This is the
// design choice that makes Algorithm 1's level 2 tractable at
// Ntrials = 500.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "grid/power_grid.h"
#include "numerics/woodbury.h"
#include "spice/generator.h"

namespace viaduct {
namespace {

Netlist makeGrid(int stripes) {
  GridGeneratorConfig cfg;
  cfg.stripesX = stripes;
  cfg.stripesY = stripes;
  cfg.seed = 23;
  Netlist n = generatePowerGrid(cfg);
  tuneNominalIrDrop(n, 0.06);
  return n;
}

void BM_WoodburyFailureStep(benchmark::State& state) {
  const Netlist netlist = makeGrid(static_cast<int>(state.range(0)));
  const PowerGridModel model(netlist);
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    PowerGridModel::Session session(model);
    const int victim =
        static_cast<int>(rng.uniformInt(model.viaArrays().size()));
    state.ResumeTiming();
    session.openArray(victim);
    const auto sol = session.solve();
    benchmark::DoNotOptimize(sol.worstIrDropFraction);
  }
  state.SetLabel(std::to_string(model.unknownCount()) + " nodes, " +
                 std::to_string(model.viaArrays().size()) + " arrays");
}
BENCHMARK(BM_WoodburyFailureStep)
    ->Arg(16)
    ->Arg(24)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_WoodburyTenFailures(benchmark::State& state) {
  // A realistic trial prefix: ten sequential opens with a solve after each.
  const Netlist netlist = makeGrid(static_cast<int>(state.range(0)));
  const PowerGridModel model(netlist);
  Rng rng(2);
  for (auto _ : state) {
    PowerGridModel::Session session(model);
    for (int k = 0; k < 10; ++k) {
      int victim;
      do {
        victim = static_cast<int>(rng.uniformInt(model.viaArrays().size()));
      } while (session.arrayOpen(victim));
      session.openArray(victim);
      const auto sol = session.solve();
      benchmark::DoNotOptimize(sol.worstIrDropFraction);
    }
  }
  state.SetLabel(std::to_string(model.unknownCount()) + " nodes");
}
BENCHMARK(BM_WoodburyTenFailures)
    ->Arg(16)
    ->Arg(24)
    ->Unit(benchmark::kMillisecond);

void BM_FullRefactorFailureStep(benchmark::State& state) {
  // No-reuse baseline: each failure step pays a from-scratch factorization
  // (fresh Session) plus the update and solve.
  const Netlist netlist = makeGrid(static_cast<int>(state.range(0)));
  const PowerGridModel model(netlist);
  Rng rng(3);
  for (auto _ : state) {
    const int victim =
        static_cast<int>(rng.uniformInt(model.viaArrays().size()));
    PowerGridModel::Session fresh(model);  // timed: factorization
    fresh.openArray(victim);
    benchmark::DoNotOptimize(fresh.solve().worstIrDropFraction);
  }
  state.SetLabel(std::to_string(model.unknownCount()) + " nodes");
}
BENCHMARK(BM_FullRefactorFailureStep)
    ->Arg(16)
    ->Arg(24)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_WoodburyStepAtPendingCount(benchmark::State& state) {
  // One failure step on a solver that then tracks k branches (k ≤ the
  // default rebase threshold, 256, so it never folds): the new branch's
  // incidence column, one bordered row of the capacitance factor and a
  // fixed-rhs solve, O(k²) + O(k·n). The timed loop also cancels the branch
  // again, which drops that last row and keeps the other k − 1.
  const int k = static_cast<int>(state.range(0));
  constexpr Index kSide = 32;
  constexpr Index kNodes = kSide * kSide;
  TripletMatrix t(kNodes, kNodes);
  std::vector<std::pair<Index, Index>> edges;
  for (Index i = 0; i < kNodes; ++i) {
    t.add(i, i, 0.05);
    if ((i + 1) % kSide != 0) {
      t.stampConductance(i, i + 1, 1.0);
      edges.emplace_back(i, i + 1);
    }
    if (i + kSide < kNodes) t.stampConductance(i, i + kSide, 1.0);
  }
  auto rhs = std::make_shared<const std::vector<double>>(kNodes, 1e-4);
  WoodburySolver solver(CsrMatrix::fromTriplets(t), WoodburySolver::Options{},
                        rhs);
  // Every other horizontal edge is pending; the stepped one sits between.
  for (int m = 0; m + 1 < k; ++m) {
    const auto [i, j] = edges[static_cast<std::size_t>(2 * m)];
    solver.updateBranch(i, j, -0.5);
  }
  const auto [i, j] = edges[static_cast<std::size_t>(2 * k - 1)];
  for (auto _ : state) {
    solver.updateBranch(i, j, -0.5);
    benchmark::DoNotOptimize(solver.solveFixedRhs());
    solver.updateBranch(i, j, 0.5);
  }
  if (solver.rebaseCount() != 0) state.SkipWithError("the solver folded");
  state.SetLabel("k = " + std::to_string(k) + " pending, " +
                 std::to_string(kNodes) + " nodes");
}
BENCHMARK(BM_WoodburyStepAtPendingCount)
    ->Arg(16)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace viaduct

BENCHMARK_MAIN();
