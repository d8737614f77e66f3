#include "numerics/cg.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "numerics/dense.h"
#include "obs/obs.h"
#include "obs/solver_health.h"

namespace viaduct {
namespace {

/// Builds a 2-D 5-point Laplacian (grounded at every node via +extra on the
/// diagonal), a standard SPD test matrix resembling power-grid systems.
CsrMatrix laplacian2d(Index nx, Index ny, double ground = 0.01) {
  TripletMatrix t(nx * ny, nx * ny);
  auto id = [nx](Index x, Index y) { return y * nx + x; };
  for (Index y = 0; y < ny; ++y) {
    for (Index x = 0; x < nx; ++x) {
      t.add(id(x, y), id(x, y), ground);
      if (x + 1 < nx) t.stampConductance(id(x, y), id(x + 1, y), 1.0);
      if (y + 1 < ny) t.stampConductance(id(x, y), id(x, y + 1), 1.0);
    }
  }
  return CsrMatrix::fromTriplets(t);
}

std::vector<double> randomVector(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

TEST(ConjugateGradient, SolvesSmallSpdSystem) {
  const CsrMatrix a = laplacian2d(4, 4);
  Rng rng(3);
  const auto xTrue = randomVector(16, rng);
  std::vector<double> b(16);
  a.multiply(xTrue, b);
  const auto x = solveCgJacobi(a, b);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_NEAR(x[i], xTrue[i], 1e-6);
}

TEST(ConjugateGradient, ZeroRhsGivesZero) {
  const CsrMatrix a = laplacian2d(3, 3);
  const std::vector<double> b(9, 0.0);
  const auto x = solveCgJacobi(a, b);
  for (double v : x) EXPECT_EQ(v, 0.0);
}

TEST(ConjugateGradient, WarmStartConvergesInstantly) {
  const CsrMatrix a = laplacian2d(8, 8);
  Rng rng(5);
  const auto xTrue = randomVector(64, rng);
  std::vector<double> b(64);
  a.multiply(xTrue, b);
  std::vector<double> x(xTrue);  // exact warm start
  const JacobiPreconditioner m(a);
  const CgResult res = conjugateGradient(a, b, x, m);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

TEST(ConjugateGradient, ThrowsOnIndefiniteMatrix) {
  TripletMatrix t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, -1.0);
  const CsrMatrix a = CsrMatrix::fromTriplets(t);
  std::vector<double> b = {1.0, 1.0};
  std::vector<double> x(2, 0.0);
  const IdentityPreconditioner m;
  EXPECT_THROW(conjugateGradient(a, b, x, m), NumericalError);
}

TEST(ConjugateGradient, StallThrowsWhenRequested) {
  const CsrMatrix a = laplacian2d(16, 16, 1e-8);
  Rng rng(9);
  std::vector<double> b = randomVector(256, rng);
  std::vector<double> x(256, 0.0);
  const IdentityPreconditioner m;
  CgOptions opts;
  opts.maxIterations = 2;
  opts.relativeTolerance = 1e-14;
  EXPECT_THROW(conjugateGradient(a, b, x, m, opts), NumericalError);
  opts.throwOnStall = false;
  std::fill(x.begin(), x.end(), 0.0);
  const CgResult res = conjugateGradient(a, b, x, m, opts);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 2);
}

TEST(Preconditioner, JacobiMatchesDiagonalScaling) {
  const CsrMatrix a = laplacian2d(3, 3, 1.0);
  const JacobiPreconditioner m(a);
  std::vector<double> r(9, 1.0);
  std::vector<double> z(9);
  m.apply(r, z);
  const auto d = a.diagonal();
  for (std::size_t i = 0; i < 9; ++i) EXPECT_NEAR(z[i], 1.0 / d[i], 1e-14);
}

TEST(Preconditioner, Ic0AcceleratesLaplacian) {
  const CsrMatrix a = laplacian2d(24, 24, 0.001);
  Rng rng(33);
  std::vector<double> b = randomVector(576, rng);

  std::vector<double> x1(b.size(), 0.0), x2(b.size(), 0.0);
  const JacobiPreconditioner jac(a);
  const IncompleteCholeskyPreconditioner ic(a);
  EXPECT_EQ(ic.shiftUsed(), 0.0);  // M-matrix: IC(0) cannot break down
  const CgResult r1 = conjugateGradient(a, b, x1, jac);
  const CgResult r2 = conjugateGradient(a, b, x2, ic);
  EXPECT_TRUE(r2.converged);
  EXPECT_LT(r2.iterations, r1.iterations);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(x1[i], x2[i], 1e-5);
}

TEST(Preconditioner, Ic0ExactForDiagonal) {
  TripletMatrix t(3, 3);
  t.add(0, 0, 4.0);
  t.add(1, 1, 9.0);
  t.add(2, 2, 16.0);
  const CsrMatrix a = CsrMatrix::fromTriplets(t);
  const IncompleteCholeskyPreconditioner ic(a);
  std::vector<double> r = {4.0, 9.0, 16.0};
  std::vector<double> z(3);
  ic.apply(r, z);
  for (double v : z) EXPECT_NEAR(v, 1.0, 1e-14);
}

class CgSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(CgSizeSweep, ResidualMeetsTolerance) {
  const int n = GetParam();
  const CsrMatrix a = laplacian2d(n, n, 0.05);
  Rng rng(1000 + n);
  std::vector<double> b =
      randomVector(static_cast<std::size_t>(n) * n, rng);
  std::vector<double> x(b.size(), 0.0);
  const JacobiPreconditioner m(a);
  CgOptions opts;
  opts.relativeTolerance = 1e-10;
  const CgResult res = conjugateGradient(a, b, x, m, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(a.residualNorm(x, b), 1e-10 * norm2(b) * 1.01);
}

INSTANTIATE_TEST_SUITE_P(GridSizes, CgSizeSweep,
                         ::testing::Values(2, 5, 9, 16, 25));

// --- Pool invariance -------------------------------------------------------

TEST(ConjugateGradient, BitIdenticalWithoutPoolAndForAnyPoolSize) {
  // 10 000 unknowns: more than one kVectorOpGrain chunk, so the reductions
  // really are split. No pool, a 1-thread and a 4-thread pool must produce
  // the same iterates, iteration counts and residuals bit for bit — both
  // for a run cut short mid-iteration and for the converged solve.
  const CsrMatrix a = laplacian2d(100, 100, 0.01);
  ASSERT_GT(a.rows(), kVectorOpGrain);
  Rng rng(31);
  const auto b = randomVector(static_cast<std::size_t>(a.rows()), rng);
  const JacobiPreconditioner m(a);
  ThreadPool one(1);
  ThreadPool four(4);
  for (const int maxIterations : {10, 10000}) {
    std::vector<std::vector<double>> xs;
    std::vector<CgResult> results;
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &four}) {
      CgOptions opts;
      opts.maxIterations = maxIterations;
      opts.throwOnStall = false;
      opts.pool = pool;
      std::vector<double> x(b.size(), 0.0);
      results.push_back(conjugateGradient(a, b, x, m, opts));
      xs.push_back(std::move(x));
    }
    EXPECT_EQ(results[0].converged, maxIterations > 10);
    for (std::size_t k = 1; k < xs.size(); ++k) {
      EXPECT_EQ(results[k].iterations, results[0].iterations) << k;
      EXPECT_EQ(results[k].converged, results[0].converged) << k;
      EXPECT_EQ(std::memcmp(&results[k].relativeResidual,
                            &results[0].relativeResidual, sizeof(double)),
                0)
          << k;
      EXPECT_EQ(std::memcmp(xs[k].data(), xs[0].data(),
                            xs[0].size() * sizeof(double)),
                0)
          << "pool " << k << ", maxIterations " << maxIterations;
    }
  }
}

// --- Solver-health traces -------------------------------------------------

class CgSolverHealth : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::setEnabled(true);
    obs::resetAll();
    obs::clearSolveTraces();
  }
};

TEST_F(CgSolverHealth, ConvergedSolveRecordsDecayingTrace) {
  const CsrMatrix a = laplacian2d(8, 8, 0.05);
  Rng rng(7);
  const auto b = randomVector(64, rng);
  (void)solveCgJacobi(a, b);

  const auto traces = obs::solveTraces();
  ASSERT_EQ(traces.size(), 1u);
  const obs::SolveTrace& t = traces.back();
  EXPECT_STREQ(t.solver, "cg");
  EXPECT_EQ(t.unknowns, 64);
  EXPECT_TRUE(t.converged);
  EXPECT_GT(t.iterations, 0);
  // The decay curve starts at 1 (relative residual of the zero guess) and
  // ends below the default tolerance.
  ASSERT_GE(t.residuals.size(), 2u);
  EXPECT_NEAR(t.residuals.front(), 1.0f, 1e-5f);
  EXPECT_LT(t.residuals.back(), 1e-8f);
  EXPECT_LT(t.residuals.back(), t.residuals.front());
}

TEST_F(CgSolverHealth, StalledSolveRecordsNonConvergedTrace) {
  const CsrMatrix a = laplacian2d(10, 10, 0.05);
  Rng rng(8);
  const auto b = randomVector(100, rng);
  std::vector<double> x(100, 0.0);
  const JacobiPreconditioner m(a);
  CgOptions opts;
  opts.maxIterations = 3;  // force a stall
  opts.throwOnStall = false;
  const CgResult res = conjugateGradient(a, b, x, m, opts);
  EXPECT_FALSE(res.converged);

  const auto traces = obs::solveTraces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_FALSE(traces.back().converged);
  EXPECT_EQ(traces.back().iterations, 3);
  EXPECT_GT(traces.back().relativeResidual, 0.0);
}

TEST_F(CgSolverHealth, SizeClassHistogramsBinBySystemSize) {
  const CsrMatrix a = laplacian2d(6, 6, 0.05);
  Rng rng(9);
  const auto b = randomVector(36, rng);
  (void)solveCgJacobi(a, b);
  const obs::RegistrySnapshot snap = obs::Registry::instance().snapshot();
  bool sawSmall = false;
  for (const auto& [name, h] : snap.histograms) {
    if (name == "cg.iterations.small") {
      sawSmall = true;
      EXPECT_EQ(h.count, 1u);
    }
    // A 36-unknown solve must not land in the other size classes.
    if (name == "cg.iterations.medium" || name == "cg.iterations.large") {
      EXPECT_EQ(h.count, 0u);
    }
  }
  EXPECT_TRUE(sawSmall);
}

TEST_F(CgSolverHealth, TraceRingKeepsMostRecent) {
  const CsrMatrix a = laplacian2d(4, 4, 0.05);
  Rng rng(10);
  const auto b = randomVector(16, rng);
  for (std::size_t i = 0; i < obs::kSolveTraceCapacity + 8; ++i)
    (void)solveCgJacobi(a, b);
  EXPECT_EQ(obs::solveTraceCount(), obs::kSolveTraceCapacity);
  const auto traces = obs::solveTraces();
  // Ids are monotone; the ring keeps the most recent window.
  for (std::size_t i = 1; i < traces.size(); ++i)
    EXPECT_EQ(traces[i].id, traces[i - 1].id + 1);
}

TEST_F(CgSolverHealth, DescribeResidualDecayCompressesCurve) {
  const std::vector<float> curve{1.0f, 0.5f, 0.1f, 0.01f, 1e-4f, 1e-6f,
                                 1e-8f, 1e-10f};
  const std::string s = obs::describeResidualDecay(curve, 4);
  EXPECT_NE(s.find("->"), std::string::npos);
  EXPECT_NE(s.find("1"), std::string::npos);
  EXPECT_EQ(obs::describeResidualDecay({}), "(no residual trace)");
}

TEST_F(CgSolverHealth, DisabledObsRecordsNothing) {
  obs::setEnabled(false);
  const CsrMatrix a = laplacian2d(4, 4, 0.05);
  Rng rng(11);
  const auto b = randomVector(16, rng);
  (void)solveCgJacobi(a, b);
  obs::setEnabled(true);
  EXPECT_EQ(obs::solveTraceCount(), 0u);
}

}  // namespace
}  // namespace viaduct
