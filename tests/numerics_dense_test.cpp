#include "numerics/dense.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/rng.h"
#include "numerics/dense_cholesky.h"

namespace viaduct {
namespace {

/// Random SPD matrix: A = Mᵀ M + shift·I.
DenseMatrix randomSpd(std::size_t n, Rng& rng, double shift = 1.0) {
  DenseMatrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) m(r, c) = rng.uniform(-1.0, 1.0);
  DenseMatrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) {
      double s = r == c ? shift : 0.0;
      for (std::size_t k = 0; k < n; ++k) s += m(k, r) * m(k, c);
      a(r, c) = s;
    }
  return a;
}

TEST(DenseMatrix, IdentitySolve) {
  const DenseMatrix eye = DenseMatrix::identity(4);
  const std::vector<double> b = {1.0, 2.0, 3.0, 4.0};
  const auto x = eye.solve(b);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(x[i], b[i], 1e-14);
}

TEST(DenseMatrix, Solve2x2) {
  DenseMatrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  const std::vector<double> b = {5.0, 10.0};
  const auto x = a.solve(b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(DenseMatrix, PivotingHandlesZeroDiagonal) {
  DenseMatrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  const std::vector<double> b = {3.0, 7.0};
  const auto x = a.solve(b);
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(DenseMatrix, SingularThrows) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW(a.solve(b), NumericalError);
}

TEST(DenseMatrix, MultiplyMatchesManual) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const std::vector<double> x = {1.0, 0.5, 2.0};
  const auto y = a.multiply(x);
  EXPECT_NEAR(y[0], 8.0, 1e-14);
  EXPECT_NEAR(y[1], 18.5, 1e-14);
}

TEST(DenseMatrix, TransposedSwapsIndices) {
  DenseMatrix a(2, 3);
  a(0, 2) = 7.0;
  const auto t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(2, 0), 7.0);
}

TEST(DenseMatrix, SolveMultipleColumns) {
  DenseMatrix a(2, 2);
  a(0, 0) = 3.0;
  a(1, 1) = 2.0;
  DenseMatrix b(2, 2);
  b(0, 0) = 6.0;
  b(1, 1) = 4.0;
  const auto x = a.solveMultiple(b);
  EXPECT_NEAR(x(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(x(1, 1), 2.0, 1e-12);
  EXPECT_NEAR(x(0, 1), 0.0, 1e-12);
}

TEST(DenseLu, RandomRoundTrip) {
  Rng rng(71);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + trial % 15;
    DenseMatrix a(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 3.0;  // diagonally dominant
    std::vector<double> xTrue(n);
    for (auto& v : xTrue) v = rng.uniform(-2.0, 2.0);
    const auto b = a.multiply(xTrue);
    const auto x = a.solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xTrue[i], 1e-9);
  }
}

/// invert3x3 against DenseMatrix::solveMultiple(identity(3)), bit for bit.
void expectStackInverseMatchesLu(const double a[9]) {
  DenseMatrix m(3, 3);
  for (std::size_t p = 0; p < 3; ++p)
    for (std::size_t q = 0; q < 3; ++q) m(p, q) = a[p * 3 + q];
  const DenseMatrix want = m.solveMultiple(DenseMatrix::identity(3));
  double got[9];
  invert3x3(a, got);
  for (std::size_t p = 0; p < 3; ++p)
    for (std::size_t q = 0; q < 3; ++q)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[p * 3 + q]),
                std::bit_cast<std::uint64_t>(want(p, q)))
          << p << "," << q;
}

TEST(DenseInvert3x3, BitwiseEqualToDenseLuOnRandomAndPivotingBlocks) {
  Rng rng(33, 1);
  for (int trial = 0; trial < 200; ++trial) {
    double a[9];
    for (double& v : a) v = rng.uniform(-1.0, 1.0);
    expectStackInverseMatchesLu(a);
  }
  // A zero leading pivot and a row swap at every step.
  const double swaps[9] = {0.0, 2.0, 1.0, 0.0, 0.5, 3.0, 4.0, 1.0, 0.0};
  expectStackInverseMatchesLu(swaps);
  // Constrained-identity rows, as the smoother blocks carry them.
  const double partial[9] = {1.0, 0.0, 0.0, 0.0, 5.0, -1.0, 0.0, -1.0, 4.0};
  expectStackInverseMatchesLu(partial);
  const double eye[9] = {1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0};
  expectStackInverseMatchesLu(eye);
}

TEST(DenseInvert3x3, SingularBlockThrowsLikeDenseLu) {
  const double singular[9] = {1.0, 2.0, 3.0, 2.0, 4.0, 6.0, 0.0, 1.0, 1.0};
  DenseMatrix m(3, 3);
  for (std::size_t p = 0; p < 3; ++p)
    for (std::size_t q = 0; q < 3; ++q) m(p, q) = singular[p * 3 + q];
  EXPECT_THROW(m.solveMultiple(DenseMatrix::identity(3)), NumericalError);
  double out[9];
  EXPECT_THROW(invert3x3(singular, out), NumericalError);
}

TEST(DenseMatrix, OutOfBoundsRejected) {
  DenseMatrix a(2, 2);
  EXPECT_THROW(a(2, 0), PreconditionError);
  EXPECT_THROW(a(0, 2), PreconditionError);
}

TEST(DenseMatrix, NonSquareLuRejected) {
  DenseMatrix a(2, 3);
  EXPECT_THROW(DenseLu{a}, PreconditionError);
}

TEST(DenseMatrix, FrobeniusNorm) {
  DenseMatrix a(2, 2);
  a(0, 0) = 3.0;
  a(1, 1) = 4.0;
  EXPECT_NEAR(a.frobeniusNorm(), 5.0, 1e-14);
}

TEST(DenseCholesky, SolveMatchesLuOnRandomSpd) {
  Rng rng(501);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t n = 1 + trial % 20;
    const DenseMatrix a = randomSpd(n, rng);
    std::vector<double> b(n);
    for (auto& v : b) v = rng.uniform(-2.0, 2.0);
    const DenseCholeskyFactor chol(a);
    const auto x = chol.solve(b);
    const auto xLu = a.solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xLu[i], 1e-9);
    EXPECT_LT(DenseCholeskyFactor::relativeResidual(a, x, b), 1e-12);
  }
}

TEST(DenseCholesky, NotPositiveDefiniteThrows) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = a(1, 0) = 2.0;
  a(1, 1) = 1.0;  // eigenvalues 3, -1
  EXPECT_THROW(DenseCholeskyFactor{a}, NumericalError);
}

TEST(DenseCholesky, EmptyFactorRejectsSolve) {
  DenseCholeskyFactor chol;
  EXPECT_TRUE(chol.empty());
  std::vector<double> b = {1.0};
  EXPECT_THROW(chol.solve(b), PreconditionError);
}

TEST(DenseCholesky, RankOneUpdateMatchesFreshFactor) {
  Rng rng(733);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 3 + trial % 12;
    DenseMatrix a = randomSpd(n, rng);
    DenseCholeskyFactor chol(a);
    std::vector<double> v(n);
    for (auto& e : v) e = rng.uniform(-1.0, 1.0);
    const double sigma = rng.uniform(0.1, 2.0);
    chol.rankOneUpdate(v, sigma);
    EXPECT_EQ(chol.updatesSinceFactor(), 1);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) a(r, c) += sigma * v[r] * v[c];
    std::vector<double> b(n);
    for (auto& e : b) e = rng.uniform(-2.0, 2.0);
    const auto x = chol.solve(b);
    const auto xRef = DenseCholeskyFactor(a).solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xRef[i], 1e-9);
  }
}

TEST(DenseCholesky, RankOneDowndateMatchesFreshFactor) {
  Rng rng(881);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 3 + trial % 12;
    // Build A = base + g v vᵀ so the downdate by g v vᵀ stays PD.
    std::vector<double> v(n, 0.0);
    const std::size_t i = static_cast<std::size_t>(
        rng.uniformInt(static_cast<std::uint64_t>(n)));
    std::size_t j = static_cast<std::size_t>(
        rng.uniformInt(static_cast<std::uint64_t>(n)));
    if (j == i) j = (i + 1) % n;
    v[i] = 1.0;
    v[j] = -1.0;  // incidence vector, as in the via network
    const double g = rng.uniform(0.2, 3.0);
    DenseMatrix a = randomSpd(n, rng);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) a(r, c) += g * v[r] * v[c];
    DenseCholeskyFactor chol(a);
    chol.rankOneUpdate(v, -g);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) a(r, c) -= g * v[r] * v[c];
    std::vector<double> b(n);
    for (auto& e : b) e = rng.uniform(-2.0, 2.0);
    const auto x = chol.solve(b);
    const auto xRef = DenseCholeskyFactor(a).solve(b);
    for (std::size_t k = 0; k < n; ++k) EXPECT_NEAR(x[k], xRef[k], 1e-8);
  }
}

TEST(DenseCholesky, SequentialDowndatesStayAccurate) {
  // The via-network pattern: many incidence-vector downdates in sequence.
  Rng rng(997);
  const std::size_t n = 24;
  DenseMatrix a = randomSpd(n, rng, 4.0);
  DenseCholeskyFactor chol(a);
  for (int step = 0; step < 12; ++step) {
    std::vector<double> v(n, 0.0);
    const auto i = static_cast<std::size_t>(rng.uniformInt(n));
    auto j = static_cast<std::size_t>(rng.uniformInt(n));
    if (j == i) j = (i + 1) % n;
    v[i] = 1.0;
    v[j] = -1.0;
    const double g = 0.05;  // small enough to keep A PD throughout
    chol.rankOneUpdate(v, -g);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) a(r, c) -= g * v[r] * v[c];
    std::vector<double> b(n);
    for (auto& e : b) e = rng.uniform(-1.0, 1.0);
    std::vector<double> x(n);
    chol.solve(b, x);
    EXPECT_LT(DenseCholeskyFactor::relativeResidual(a, x, b), 1e-10)
        << "after downdate " << step;
  }
  EXPECT_EQ(chol.updatesSinceFactor(), 12);
}

TEST(DenseCholesky, DowndatePastSingularityThrowsAndRefactorRecovers) {
  DenseMatrix a = DenseMatrix::identity(3);
  DenseCholeskyFactor chol(a);
  std::vector<double> v = {1.0, 0.0, 0.0};
  // Removing 2·e₀e₀ᵀ from I makes the matrix indefinite.
  EXPECT_THROW(chol.rankOneUpdate(v, -2.0), NumericalError);
  // The factor is poisoned: solves are rejected until a re-factor.
  std::vector<double> b = {1.0, 1.0, 1.0};
  std::vector<double> x(3);
  EXPECT_THROW(chol.solve(b, x), PreconditionError);
  chol.factor(a);
  chol.solve(b, x);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(x[static_cast<std::size_t>(i)], 1.0, 1e-14);
  EXPECT_EQ(chol.updatesSinceFactor(), 0);
}

TEST(DenseCholesky, SolveCheckedRefreshesPoisonedFactor) {
  Rng rng(613);
  const std::size_t n = 8;
  const DenseMatrix a = randomSpd(n, rng);
  DenseCholeskyFactor chol(a);
  std::vector<double> v(n, 0.0);
  v[0] = 50.0;  // huge downdate: guaranteed to break positive definiteness
  EXPECT_THROW(chol.rankOneUpdate(v, -1.0), NumericalError);
  std::vector<double> b(n, 1.0);
  std::vector<double> x(n);
  const auto result = chol.solveChecked(a, b, x, 1e-10);
  EXPECT_TRUE(result.refreshed);
  EXPECT_LT(result.residual, 1e-10);
  EXPECT_LT(DenseCholeskyFactor::relativeResidual(a, x, b), 1e-10);
}

TEST(DenseCholesky, SolveCheckedCleanFactorDoesNotRefresh) {
  Rng rng(619);
  const std::size_t n = 10;
  const DenseMatrix a = randomSpd(n, rng);
  DenseCholeskyFactor chol(a);
  std::vector<double> b(n);
  for (auto& e : b) e = rng.uniform(-1.0, 1.0);
  std::vector<double> x(n);
  const auto result = chol.solveChecked(a, b, x, 1e-10);
  EXPECT_FALSE(result.refreshed);
  EXPECT_LT(result.residual, 1e-12);
}

}  // namespace
}  // namespace viaduct
