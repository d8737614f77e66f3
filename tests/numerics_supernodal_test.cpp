#include "numerics/supernodal_cholesky.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "numerics/cholesky.h"
#include "numerics/dense.h"
#include "numerics/ordering.h"
#include "numerics/spd_factor.h"
#include "obs/obs.h"

namespace viaduct {
namespace {

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

/// Random sparse SPD matrix: random symmetric pattern made diagonally
/// dominant.
CsrMatrix randomSpd(Index n, double density, std::uint64_t seed) {
  Rng rng(seed);
  TripletMatrix t(n, n);
  std::vector<double> diag(static_cast<std::size_t>(n), 1.0);
  for (Index i = 0; i < n; ++i) {
    for (Index j = i + 1; j < n; ++j) {
      if (rng.uniform(0.0, 1.0) >= density) continue;
      const double g = rng.uniform(0.1, 2.0);
      t.add(i, j, -g);
      t.add(j, i, -g);
      diag[i] += g;
      diag[j] += g;
    }
  }
  for (Index i = 0; i < n; ++i) t.add(i, i, diag[i] + 0.05);
  return CsrMatrix::fromTriplets(t);
}

std::vector<double> randomVector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

std::vector<double> denseReference(const CsrMatrix& a,
                                   const std::vector<double>& b) {
  const auto n = static_cast<std::size_t>(a.rows());
  DenseMatrix d(n, n);
  const auto rp = a.rowPointers();
  const auto ci = a.colIndices();
  const auto va = a.values();
  for (Index r = 0; r < a.rows(); ++r)
    for (Index k = rp[r]; k < rp[r + 1]; ++k)
      d(static_cast<std::size_t>(r), static_cast<std::size_t>(ci[k])) = va[k];
  return d.solve(b);
}

TEST(AmdOrdering, IsValidPermutationOnGrid) {
  const CsrMatrix a = laplacian2d(17, 13);
  const Ordering ord = approximateMinimumDegree(a);
  EXPECT_TRUE(ord.isValid());
  EXPECT_EQ(ord.perm.size(), static_cast<std::size_t>(a.rows()));
}

TEST(AmdOrdering, IsValidOnRandomPattern) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const CsrMatrix a = randomSpd(120, 0.03, seed);
    const Ordering ord = approximateMinimumDegree(a);
    EXPECT_TRUE(ord.isValid()) << "seed " << seed;
  }
}

TEST(AmdOrdering, ReducesFillVersusNaturalOnGrid) {
  const CsrMatrix a = laplacian2d(30, 30);
  const SparseCholesky natural(a, OrderingChoice::kNatural);
  const SparseCholesky amd(a, OrderingChoice::kAmd);
  // On a 2-D mesh AMD should beat the natural (banded) ordering clearly.
  EXPECT_LT(amd.factorNonZeroCount(), natural.factorNonZeroCount());
}

TEST(AmdOrdering, SolvesCorrectly) {
  const CsrMatrix a = laplacian2d(15, 11, 0.05);
  const auto b = randomVector(static_cast<std::size_t>(a.rows()), 7);
  const SparseCholesky amd(a, OrderingChoice::kAmd);
  const auto x = amd.solve(b);
  EXPECT_LE(a.residualNorm(x, b), 1e-10 * norm2(b));
}

TEST(AmdOrdering, HandlesDenseRowAndDisconnectedNodes) {
  // A star (one dense row) plus isolated diagonal-only nodes stresses the
  // element-absorption and empty-adjacency paths.
  TripletMatrix t(12, 12);
  for (Index i = 0; i < 12; ++i) t.add(i, i, 4.0);
  for (Index i = 1; i < 8; ++i) t.stampConductance(0, i, 1.0);
  const CsrMatrix a = CsrMatrix::fromTriplets(t);
  const Ordering ord = approximateMinimumDegree(a);
  EXPECT_TRUE(ord.isValid());
  const auto b = randomVector(12, 11);
  const SparseCholesky chol(a, OrderingChoice::kAmd);
  const auto x = chol.solve(b);
  EXPECT_LE(a.residualNorm(x, b), 1e-12 * norm2(b));
}

TEST(SupernodalCholesky, MatchesUplookingAndDenseOnGrid) {
  const CsrMatrix a = laplacian2d(14, 9, 0.02);
  const auto b = randomVector(static_cast<std::size_t>(a.rows()), 21);
  const SupernodalCholesky super(a);
  const SparseCholesky up(a, OrderingChoice::kRcm);
  const auto xs = super.solve(b);
  const auto xu = up.solve(b);
  const auto xd = denseReference(a, b);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(xs[i], xu[i], 1e-10);
    EXPECT_NEAR(xs[i], xd[i], 1e-10);
  }
}

TEST(SupernodalCholesky, MatchesDenseOnRandomSpdAllOrderings) {
  for (std::uint64_t seed : {5u, 6u, 7u}) {
    const CsrMatrix a = randomSpd(90, 0.05, seed);
    const auto b = randomVector(static_cast<std::size_t>(a.rows()), seed + 50);
    const auto xd = denseReference(a, b);
    for (OrderingChoice ord :
         {OrderingChoice::kNatural, OrderingChoice::kRcm,
          OrderingChoice::kAmd}) {
      const SupernodalCholesky super(a, ord);
      const auto xs = super.solve(b);
      for (std::size_t i = 0; i < b.size(); ++i)
        EXPECT_NEAR(xs[i], xd[i], 1e-10)
            << "seed " << seed << " ordering " << orderingChoiceName(ord);
    }
  }
}

TEST(SupernodalCholesky, FactorNnzMatchesUplookingSameOrdering) {
  // The supernode partition must not pad: with the same fill ordering the
  // panel nnz equals the scalar factor's nnz. Natural ordering keeps the
  // composed postorder from changing fill.
  const CsrMatrix a = laplacian2d(12, 12);
  const SupernodalCholesky super(a, OrderingChoice::kNatural);
  const SparseCholesky up(a, OrderingChoice::kNatural);
  EXPECT_EQ(super.factorNonZeroCount(), up.factorNonZeroCount());
}

TEST(SupernodalCholesky, PooledFactorIsBitIdenticalToSerial) {
  const CsrMatrix a = laplacian2d(20, 16, 0.03);
  const auto b = randomVector(static_cast<std::size_t>(a.rows()), 31);
  const SupernodalCholesky serial(a, OrderingChoice::kAmd, nullptr);
  const auto xRef = serial.solve(b);
  for (int threads : {1, 4, 8}) {
    ThreadPool pool(threads);
    const SupernodalCholesky pooled(a, OrderingChoice::kAmd, &pool);
    const auto x = pooled.solve(b);
    for (std::size_t i = 0; i < b.size(); ++i)
      EXPECT_EQ(x[i], xRef[i]) << "threads=" << threads << " i=" << i;
  }
}

TEST(SupernodalCholesky, RefactoredSharesSymbolicAndMatchesFresh) {
  CsrMatrix a = laplacian2d(10, 10, 0.02);
  const auto b = randomVector(static_cast<std::size_t>(a.rows()), 41);
  const SupernodalCholesky base(a);
  // Scale values, keep the pattern.
  for (auto& v : a.mutableValues()) v *= 1.7;
  const auto re = base.refactored(a);
  const SupernodalCholesky fresh(a);
  const auto xr = re->solve(b);
  const auto xf = fresh.solve(b);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(xr[i], xf[i]);
}

TEST(SupernodalCholesky, ThrowsOnIndefinite) {
  TripletMatrix t(2, 2);
  t.add(0, 0, 1.0);
  t.add(0, 1, 3.0);
  t.add(1, 0, 3.0);
  t.add(1, 1, 1.0);  // eigenvalues 4, -2
  const CsrMatrix a = CsrMatrix::fromTriplets(t);
  EXPECT_THROW(SupernodalCholesky{a}, NumericalError);
}

TEST(SupernodalCholesky, ThrowsOnSingular) {
  TripletMatrix t(3, 3);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  t.add(2, 2, 0.0);  // exactly singular pivot
  const CsrMatrix a = CsrMatrix::fromTriplets(t);
  EXPECT_THROW(SupernodalCholesky{a}, NumericalError);
}

TEST(SupernodalCholesky, SizeOneAndDiagonalMatrices) {
  TripletMatrix t1(1, 1);
  t1.add(0, 0, 4.0);
  const SupernodalCholesky c1(CsrMatrix::fromTriplets(t1));
  EXPECT_EQ(c1.size(), 1);
  const auto x1 = c1.solve(std::vector<double>{8.0});
  EXPECT_NEAR(x1[0], 2.0, 1e-15);

  TripletMatrix t3(3, 3);
  t3.add(0, 0, 4.0);
  t3.add(1, 1, 2.0);
  t3.add(2, 2, 8.0);
  const SupernodalCholesky c3(CsrMatrix::fromTriplets(t3));
  const auto x3 = c3.solve(std::vector<double>{4.0, 4.0, 4.0});
  EXPECT_NEAR(x3[0], 1.0, 1e-14);
  EXPECT_NEAR(x3[1], 2.0, 1e-14);
  EXPECT_NEAR(x3[2], 0.5, 1e-14);
}

TEST(SupernodalCholesky, SupernodesActuallyMerge) {
  // The trailing triangle of a banded factor always merges into chains, so
  // a grid gives some reduction; a dense-ish factor should collapse to a
  // handful of width-capped panels.
  const CsrMatrix grid = laplacian2d(24, 24);
  const SupernodalCholesky gridChol(grid, OrderingChoice::kNatural);
  EXPECT_LT(gridChol.supernodeCount(), grid.rows());
  EXPECT_GE(gridChol.levelCount(), 1);

  const CsrMatrix dense = randomSpd(120, 0.5, 9);
  const SupernodalCholesky denseChol(dense, OrderingChoice::kNatural);
  EXPECT_LE(denseChol.supernodeCount(), dense.rows() / 4);
}

bool bitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// solveIncidence(i, j) against solve(e_i − e_j), bit for bit (signed
/// zeros included), for every ordered pair of nodes and every node against
/// ground on either side. Exhaustive pairs cover both endpoints in one
/// supernode and endpoints in the root supernode for any partition.
void expectIncidenceColumnsMatchDenseSolves(const SpdFactor& factor,
                                            const std::string& label) {
  const Index n = factor.size();
  for (Index i = -1; i < n; ++i) {
    for (Index j = -1; j < n; ++j) {
      if (i == j) continue;
      std::vector<double> a(static_cast<std::size_t>(n), 0.0);
      if (i >= 0) a[static_cast<std::size_t>(i)] = 1.0;
      if (j >= 0) a[static_cast<std::size_t>(j)] = -1.0;
      ASSERT_TRUE(bitwiseEqual(factor.solveIncidence(i, j), factor.solve(a)))
          << label << " branch (" << i << ", " << j << ")";
    }
  }
}

TEST(SupernodalCholesky, IncidenceSolveIsBitIdenticalToDenseSolve) {
  const CsrMatrix grid = laplacian2d(9, 7, 0.02);
  const CsrMatrix random = randomSpd(40, 0.08, 13);
  for (OrderingChoice ord :
       {OrderingChoice::kNatural, OrderingChoice::kRcm, OrderingChoice::kAmd}) {
    for (const SpdSolverKind kind :
         {SpdSolverKind::kSupernodal, SpdSolverKind::kUplooking}) {
      const std::string label = std::string(spdSolverKindName(kind)) + "+" +
                                std::string(orderingChoiceName(ord));
      expectIncidenceColumnsMatchDenseSolves(*buildSpdFactor(grid, kind, ord),
                                             "grid " + label);
      expectIncidenceColumnsMatchDenseSolves(
          *buildSpdFactor(random, kind, ord), "random " + label);
    }
  }

  TripletMatrix t1(1, 1);
  t1.add(0, 0, 4.0);
  const SupernodalCholesky one(CsrMatrix::fromTriplets(t1));
  expectIncidenceColumnsMatchDenseSolves(one, "n=1");
  EXPECT_EQ(one.solveIncidence(0, -1), std::vector<double>{0.25});

  EXPECT_THROW(one.solveIncidence(0, 0), PreconditionError);
  EXPECT_THROW(one.solveIncidence(-1, -1), PreconditionError);
  EXPECT_THROW(one.solveIncidence(1, -1), PreconditionError);
}

TEST(SupernodalCholesky, IncidenceSolveCountsOneTriangularSolve) {
  obs::setEnabled(true);
  auto& solves = obs::Registry::instance().counter("cholesky.triangular_solves");
  const SupernodalCholesky chol(laplacian2d(6, 6));
  const std::uint64_t before = solves.value();
  (void)chol.solveIncidence(3, 17);
  (void)chol.solveIncidence(5, -1);
  EXPECT_EQ(solves.value() - before, 2u);
}

TEST(SpdFactorFactory, BuildsBothKindsAndParsesNames) {
  const CsrMatrix a = laplacian2d(8, 8, 0.05);
  const auto b = randomVector(static_cast<std::size_t>(a.rows()), 51);
  const auto up =
      buildSpdFactor(a, SpdSolverKind::kUplooking, OrderingChoice::kRcm);
  const auto super =
      buildSpdFactor(a, SpdSolverKind::kSupernodal, OrderingChoice::kAmd);
  EXPECT_EQ(up->kind(), SpdSolverKind::kUplooking);
  EXPECT_EQ(super->kind(), SpdSolverKind::kSupernodal);
  const auto xu = up->solve(b);
  const auto xs = super->solve(b);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(xu[i], xs[i], 1e-10);

  EXPECT_EQ(parseSpdSolverKind("supernodal"), SpdSolverKind::kSupernodal);
  EXPECT_EQ(parseOrderingChoice("amd"), OrderingChoice::kAmd);
  EXPECT_EQ(spdSolverKindName(SpdSolverKind::kSupernodal), "supernodal");
  EXPECT_EQ(orderingChoiceName(OrderingChoice::kAmd), "amd");
  EXPECT_THROW(parseSpdSolverKind("lu"), ParseError);
  EXPECT_THROW(parseOrderingChoice("colamd"), ParseError);
}

}  // namespace
}  // namespace viaduct
