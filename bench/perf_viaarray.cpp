// Level-1 network-solver bench: the incremental shared-base + rank-1
// downdate solver (DESIGN.md §5.9) against a from-scratch dense LU solve
// of the same stamped system (bench/network_lu_oracle.h). Two
// measurements:
//
//   1. google-benchmark microbenchmarks of the per-failure-step cost
//      (failVia + one solve) for both across array sizes — the O(N²) vs
//      O(N³) gap, N = 2n²+1;
//   2. full failure sweeps per array size, timed for both and cross-checked
//      step by step against the oracle.
//
// Emits BENCH_viaarray.json. Exit is nonzero only when the solver and the
// oracle disagree (correctness); timing never fails CI by itself.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "network_lu_oracle.h"
#include "obs/obs.h"
#include "viaarray/network.h"

using namespace viaduct;

namespace {

ViaArrayNetworkConfig netConfig(int n) {
  ViaArrayNetworkConfig cfg;
  cfg.n = n;
  return cfg;
}

/// Deterministic full failure order (the bench must not depend on clock or
/// platform RNG state).
std::vector<int> failureOrder(int count, std::uint64_t seed) {
  std::vector<int> order(static_cast<std::size_t>(count));
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  for (int i = count - 1; i > 0; --i) {
    const auto j = static_cast<int>(
        rng.uniformInt(static_cast<std::uint64_t>(i + 1)));
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(j)]);
  }
  return order;
}

/// One full failure sweep (all but one via, resistance queried per step).
/// `exact` answers each step with the LU oracle instead of the network's
/// own incremental solve (failVia's O(N²) downdate still runs, a small
/// share next to the O(N³) LU).
double sweep(ViaArrayNetwork& net, const ViaArrayNetworkConfig& cfg,
             const std::vector<int>& order, bool exact,
             std::vector<double>* resistances = nullptr) {
  net.reset();
  double last = 0.0;
  for (std::size_t step = 0; step + 1 < order.size(); ++step) {
    net.failVia(order[step]);
    last = exact ? luOracleSolve(net, cfg).effectiveResistance
                 : net.effectiveResistance();
    if (resistances) resistances->push_back(last);
  }
  return last;
}

void stepBench(benchmark::State& state, bool exact) {
  const int n = static_cast<int>(state.range(0));
  const ViaArrayNetworkConfig cfg = netConfig(n);
  ViaArrayNetwork net(cfg);
  const auto order = failureOrder(net.viaCount(), 7);
  const std::size_t steps = order.size() - 1;
  std::size_t next = steps;  // force a reset on first iteration
  for (auto _ : state) {
    if (next >= steps) {
      state.PauseTiming();
      net.reset();
      next = 0;
      state.ResumeTiming();
    }
    net.failVia(order[next++]);
    benchmark::DoNotOptimize(exact ? luOracleSolve(net, cfg).effectiveResistance
                                   : net.effectiveResistance());
  }
  state.SetLabel("N=" + std::to_string(2 * n * n + 1));
}

void BM_FailStepIncremental(benchmark::State& state) {
  stepBench(state, false);
}
BENCHMARK(BM_FailStepIncremental)
    ->Arg(3)
    ->Arg(5)
    ->Arg(7)
    ->Arg(9)
    ->Unit(benchmark::kMicrosecond);

void BM_FailStepExact(benchmark::State& state) { stepBench(state, true); }
BENCHMARK(BM_FailStepExact)
    ->Arg(3)
    ->Arg(5)
    ->Arg(7)
    ->Arg(9)
    ->Unit(benchmark::kMicrosecond);

template <typename Fn>
double bestSeconds(int repeats, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, dt.count());
  }
  return best;
}

std::uint64_t counterValue(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

struct SweepResult {
  double secondsIncremental = 0.0;
  double secondsExact = 0.0;
  double speedup = 0.0;
  std::uint64_t downdates = 0;
  std::uint64_t refactors = 0;
  bool agree = true;
};

SweepResult benchSweep(int n, int repeats) {
  SweepResult result;
  const auto order = failureOrder(n * n, 7);
  const ViaArrayNetworkConfig cfg = netConfig(n);
  ViaArrayNetwork net(cfg);

  std::vector<double> rInc, rExact;
  const auto d0 = counterValue("viaarray.downdates");
  const auto f0 = counterValue("viaarray.refactors");
  sweep(net, cfg, order, false, &rInc);
  result.downdates = counterValue("viaarray.downdates") - d0;
  result.refactors = counterValue("viaarray.refactors") - f0;
  sweep(net, cfg, order, true, &rExact);
  for (std::size_t i = 0; i < rInc.size(); ++i) {
    if (std::abs(rInc[i] - rExact[i]) >
        1e-9 * std::max(1.0, std::abs(rExact[i]))) {
      result.agree = false;
      std::cerr << "FAIL: n=" << n << " step " << i << ": incremental "
                << rInc[i] << " vs exact " << rExact[i] << "\n";
    }
  }
  result.secondsIncremental =
      bestSeconds(repeats, [&] { sweep(net, cfg, order, false); });
  result.secondsExact =
      bestSeconds(repeats, [&] { sweep(net, cfg, order, true); });
  result.speedup = result.secondsIncremental > 0.0
                       ? result.secondsExact / result.secondsIncremental
                       : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  setLogLevel(LogLevel::kWarn);
  benchmark::RunSpecifiedBenchmarks();

  const std::vector<int> sizes = {3, 5, 7, 9};
  const int repeats = 3;
  std::cout << "=== perf_viaarray: incremental solve vs LU oracle ===\n";
  std::vector<SweepResult> sweeps;
  bool allAgree = true;
  for (const int n : sizes) {
    const SweepResult r = benchSweep(n, repeats);
    sweeps.push_back(r);
    allAgree = allAgree && r.agree;
    std::cout << "  n=" << n << " full sweep: incremental "
              << r.secondsIncremental << " s, exact " << r.secondsExact
              << " s, speedup " << r.speedup << "x (" << r.downdates
              << " downdates, " << r.refactors << " refactors) "
              << (r.agree ? "AGREE" : "DIFFER") << "\n";
  }

  std::ofstream os("BENCH_viaarray.json");
  if (!os) {
    std::cerr << "cannot create BENCH_viaarray.json\n";
    return 1;
  }
  os << "{\n  \"sweeps\": [\n";
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const SweepResult& r = sweeps[i];
    os << "    {\"n\": " << sizes[i]
       << ", \"seconds_incremental\": " << r.secondsIncremental
       << ", \"seconds_exact\": " << r.secondsExact
       << ", \"speedup\": " << r.speedup
       << ", \"downdates\": " << r.downdates
       << ", \"refactors\": " << r.refactors
       << ", \"agree\": " << (r.agree ? "true" : "false") << "}"
       << (i + 1 < sweeps.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cout << "wrote BENCH_viaarray.json\n";

  if (!allAgree) {
    std::cerr << "FAIL: incremental network solve and LU oracle disagree\n";
    return 1;
  }
  return 0;
}
