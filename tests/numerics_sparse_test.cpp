#include "numerics/sparse.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "numerics/cholesky.h"
#include "numerics/ordering.h"

namespace viaduct {
namespace {

TEST(TripletMatrix, AddAndBounds) {
  TripletMatrix t(3, 3);
  t.add(0, 0, 1.0);
  t.add(2, 1, -2.0);
  EXPECT_EQ(t.entryCount(), 2u);
  EXPECT_THROW(t.add(3, 0, 1.0), PreconditionError);
  EXPECT_THROW(t.add(0, -1, 1.0), PreconditionError);
}

TEST(TripletMatrix, StampConductance) {
  TripletMatrix t(2, 2);
  t.stampConductance(0, 1, 2.0);
  const CsrMatrix m = CsrMatrix::fromTriplets(t);
  EXPECT_NEAR(m.at(0, 0), 2.0, 1e-14);
  EXPECT_NEAR(m.at(1, 1), 2.0, 1e-14);
  EXPECT_NEAR(m.at(0, 1), -2.0, 1e-14);
  EXPECT_NEAR(m.at(1, 0), -2.0, 1e-14);
}

TEST(TripletMatrix, StampConductanceToGround) {
  TripletMatrix t(2, 2);
  t.stampConductance(1, -1, 3.0);  // branch to an eliminated node
  const CsrMatrix m = CsrMatrix::fromTriplets(t);
  EXPECT_NEAR(m.at(1, 1), 3.0, 1e-14);
  EXPECT_NEAR(m.at(0, 0), 0.0, 1e-14);
}

TEST(CsrMatrix, DuplicatesSummed) {
  TripletMatrix t(2, 2);
  t.add(0, 1, 1.5);
  t.add(0, 1, 2.5);
  const CsrMatrix m = CsrMatrix::fromTriplets(t);
  EXPECT_EQ(m.nonZeroCount(), 1u);
  EXPECT_NEAR(m.at(0, 1), 4.0, 1e-14);
}

TEST(CsrMatrix, ColumnsSortedWithinRows) {
  TripletMatrix t(1, 5);
  t.add(0, 4, 4.0);
  t.add(0, 1, 1.0);
  t.add(0, 3, 3.0);
  const CsrMatrix m = CsrMatrix::fromTriplets(t);
  const auto ci = m.colIndices();
  EXPECT_TRUE(std::is_sorted(ci.begin(), ci.end()));
}

TEST(CsrMatrix, Multiply) {
  TripletMatrix t(2, 3);
  t.add(0, 0, 1.0);
  t.add(0, 2, 2.0);
  t.add(1, 1, 3.0);
  const CsrMatrix m = CsrMatrix::fromTriplets(t);
  const std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y(2);
  m.multiply(x, y);
  EXPECT_NEAR(y[0], 7.0, 1e-14);
  EXPECT_NEAR(y[1], 6.0, 1e-14);
}

TEST(CsrMatrix, MultiplyAddScales) {
  TripletMatrix t(2, 2);
  t.add(0, 0, 2.0);
  t.add(1, 1, 2.0);
  const CsrMatrix m = CsrMatrix::fromTriplets(t);
  const std::vector<double> x = {1.0, 1.0};
  std::vector<double> y = {10.0, 10.0};
  m.multiplyAdd(x, y, -0.5);
  EXPECT_NEAR(y[0], 9.0, 1e-14);
  EXPECT_NEAR(y[1], 9.0, 1e-14);
}

TEST(CsrMatrix, AtAndValueIndex) {
  TripletMatrix t(3, 3);
  t.add(1, 2, 5.0);
  const CsrMatrix m = CsrMatrix::fromTriplets(t);
  EXPECT_EQ(m.at(1, 2), 5.0);
  EXPECT_EQ(m.at(2, 1), 0.0);
  EXPECT_GE(m.valueIndex(1, 2), 0);
  EXPECT_EQ(m.valueIndex(0, 0), -1);
}

TEST(CsrMatrix, DiagonalExtraction) {
  TripletMatrix t(3, 3);
  t.add(0, 0, 1.0);
  t.add(2, 2, 3.0);
  t.add(0, 1, 9.0);
  const CsrMatrix m = CsrMatrix::fromTriplets(t);
  const auto d = m.diagonal();
  EXPECT_EQ(d[0], 1.0);
  EXPECT_EQ(d[1], 0.0);
  EXPECT_EQ(d[2], 3.0);
}

TEST(CsrMatrix, SymmetryCheck) {
  TripletMatrix t(2, 2);
  t.stampConductance(0, 1, 1.0);
  EXPECT_TRUE(CsrMatrix::fromTriplets(t).isSymmetric());
  TripletMatrix t2(2, 2);
  t2.add(0, 1, 1.0);
  EXPECT_FALSE(CsrMatrix::fromTriplets(t2).isSymmetric());
}

TEST(CsrMatrix, ResidualNorm) {
  TripletMatrix t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  const CsrMatrix m = CsrMatrix::fromTriplets(t);
  const std::vector<double> x = {1.0, 2.0};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_NEAR(m.residualNorm(x, b), 0.0, 1e-14);
  const std::vector<double> b2 = {2.0, 2.0};
  EXPECT_NEAR(m.residualNorm(x, b2), 1.0, 1e-14);
}

TEST(CscLowerMatrix, KeepsLowerTriangleWithDiagFirst) {
  TripletMatrix t(3, 3);
  t.stampConductance(0, 1, 1.0);
  t.stampConductance(1, 2, 2.0);
  const CscLowerMatrix lower = CscLowerMatrix::fromSymmetricTriplets(t);
  EXPECT_EQ(lower.size(), 3);
  const auto cp = lower.colPointers();
  const auto ri = lower.rowIndices();
  // Each column's first stored row index is the diagonal.
  for (Index j = 0; j < 3; ++j) {
    ASSERT_LT(cp[j], cp[j + 1]);
    EXPECT_EQ(ri[cp[j]], j);
  }
}

TEST(CscLowerMatrix, FromCsrMatchesTripletPath) {
  TripletMatrix t(4, 4);
  t.stampConductance(0, 1, 1.0);
  t.stampConductance(1, 2, 2.0);
  t.stampConductance(2, 3, 0.5);
  t.stampConductance(0, 3, 0.25);
  const CsrMatrix csr = CsrMatrix::fromTriplets(t);
  const CscLowerMatrix a = CscLowerMatrix::fromSymmetricTriplets(t);
  const CscLowerMatrix b = CscLowerMatrix::fromCsr(csr);
  ASSERT_EQ(a.values().size(), b.values().size());
  for (std::size_t i = 0; i < a.values().size(); ++i) {
    EXPECT_EQ(a.rowIndices()[i], b.rowIndices()[i]);
    EXPECT_NEAR(a.values()[i], b.values()[i], 1e-14);
  }
}

TEST(VectorKernels, DotNormAxpyScale) {
  std::vector<double> a = {1.0, 2.0, 2.0};
  std::vector<double> b = {3.0, 0.0, 4.0};
  EXPECT_NEAR(dot(a, b), 11.0, 1e-14);
  EXPECT_NEAR(norm2(a), 3.0, 1e-14);
  axpy(2.0, a, b);
  EXPECT_NEAR(b[0], 5.0, 1e-14);
  scale(0.5, b);
  EXPECT_NEAR(b[0], 2.5, 1e-14);
}

TEST(Ordering, IdentityIsValid) {
  const Ordering o = Ordering::identity(5);
  EXPECT_TRUE(o.isValid());
}

TEST(Ordering, RcmReducesBandwidthOnShuffledPath) {
  // A path graph numbered randomly has large bandwidth; RCM restores ~1.
  const Index n = 64;
  Rng rng(87);
  std::vector<Index> label(n);
  for (Index i = 0; i < n; ++i) label[i] = i;
  for (Index i = n - 1; i > 0; --i)
    std::swap(label[i], label[rng.uniformInt(static_cast<std::uint64_t>(i) + 1)]);
  TripletMatrix t(n, n);
  for (Index i = 0; i < n; ++i) t.add(i, i, 2.0);
  for (Index i = 0; i + 1 < n; ++i) {
    t.add(label[i], label[i + 1], -1.0);
    t.add(label[i + 1], label[i], -1.0);
  }
  const CsrMatrix a = CsrMatrix::fromTriplets(t);
  const Ordering o = reverseCuthillMcKee(a);
  EXPECT_TRUE(o.isValid());
  const CsrMatrix p = permuteSymmetric(a, o);
  EXPECT_LE(bandwidth(p), 2);
  EXPECT_GE(bandwidth(a), 4);
}

TEST(Ordering, PermuteVectorRoundTrip) {
  TripletMatrix t(4, 4);
  for (Index i = 0; i < 4; ++i) t.add(i, i, 1.0);
  t.stampConductance(0, 3, 1.0);
  const CsrMatrix a = CsrMatrix::fromTriplets(t);
  const Ordering o = reverseCuthillMcKee(a);
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  const auto p = permuteVector(v, o);
  const auto back = unpermuteVector(p, o);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(back[i], v[i]);
}

TEST(Ordering, HandlesDisconnectedComponents) {
  TripletMatrix t(6, 6);
  for (Index i = 0; i < 6; ++i) t.add(i, i, 1.0);
  t.stampConductance(0, 1, 1.0);
  t.stampConductance(3, 4, 1.0);  // nodes 2 and 5 isolated
  const CsrMatrix a = CsrMatrix::fromTriplets(t);
  const Ordering o = reverseCuthillMcKee(a);
  EXPECT_TRUE(o.isValid());
}

// Minimum-degree properties, checked on approximate minimum degree (AMD),
// the minimum-degree ordering the grid and mesh factorizations use.
TEST(Ordering, MinimumDegreeIsValidPermutation) {
  TripletMatrix t(10, 10);
  for (Index i = 0; i < 10; ++i) t.add(i, i, 4.0);
  for (Index i = 0; i + 1 < 10; ++i) t.stampConductance(i, i + 1, 1.0);
  t.stampConductance(0, 9, 1.0);  // a ring
  const Ordering o = approximateMinimumDegree(CsrMatrix::fromTriplets(t));
  EXPECT_TRUE(o.isValid());
}

TEST(Ordering, MinimumDegreeEliminatesLeavesFirst) {
  // A star graph: the hub must be eliminated LAST.
  const Index n = 8;
  TripletMatrix t(n, n);
  for (Index i = 0; i < n; ++i) t.add(i, i, 4.0);
  for (Index i = 1; i < n; ++i) t.stampConductance(0, i, 1.0);
  const Ordering o = approximateMinimumDegree(CsrMatrix::fromTriplets(t));
  // The hub stays degree >= 2 until only two nodes remain, so it cannot be
  // eliminated before position n-2 (it may tie with the final leaf).
  EXPECT_GE(o.inverse[0], static_cast<Index>(n - 2));
}

TEST(Ordering, MinimumDegreeReducesFillOnStar) {
  // Natural order on a star with the hub first fills in completely;
  // minimum degree keeps the factor linear-sized.
  const Index n = 40;
  TripletMatrix t(n, n);
  for (Index i = 0; i < n; ++i) t.add(i, i, 8.0);
  for (Index i = 1; i < n; ++i) t.stampConductance(0, i, 1.0);
  const CsrMatrix a = CsrMatrix::fromTriplets(t);
  const SparseCholesky natural(a, SparseCholesky::OrderingChoice::kNatural);
  const SparseCholesky md(a, SparseCholesky::OrderingChoice::kAmd);
  EXPECT_LT(md.factorNonZeroCount() * 5, natural.factorNonZeroCount());
  // And the solves agree.
  std::vector<double> b(static_cast<std::size_t>(n), 1.0);
  const auto x1 = natural.solve(b);
  const auto x2 = md.solve(b);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(x1[i], x2[i], 1e-10);
}

TEST(Ordering, MinimumDegreeSolvesGridCorrectly) {
  const Index nx = 12, ny = 12;
  TripletMatrix t(nx * ny, nx * ny);
  auto id = [nx2 = nx](Index x, Index y) { return y * nx2 + x; };
  for (Index y = 0; y < ny; ++y)
    for (Index x = 0; x < nx; ++x) {
      t.add(id(x, y), id(x, y), 0.05);
      if (x + 1 < nx) t.stampConductance(id(x, y), id(x + 1, y), 1.0);
      if (y + 1 < ny) t.stampConductance(id(x, y), id(x, y + 1), 1.0);
    }
  const CsrMatrix a = CsrMatrix::fromTriplets(t);
  Rng rng(314);
  std::vector<double> xTrue(static_cast<std::size_t>(a.rows()));
  for (auto& v : xTrue) v = rng.uniform(-1.0, 1.0);
  std::vector<double> b(xTrue.size());
  a.multiply(xTrue, b);
  const SparseCholesky md(a, SparseCholesky::OrderingChoice::kAmd);
  const auto x = md.solve(b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], xTrue[i], 1e-8);
}

}  // namespace
}  // namespace viaduct
