#include "numerics/sparse.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/obs.h"

namespace viaduct {

TripletMatrix::TripletMatrix(Index rows, Index cols)
    : rows_(rows), cols_(cols) {
  VIADUCT_REQUIRE(rows >= 0 && cols >= 0);
}

void TripletMatrix::add(Index row, Index col, double value) {
  VIADUCT_REQUIRE(row >= 0 && row < rows_ && col >= 0 && col < cols_);
  rowIdx_.push_back(row);
  colIdx_.push_back(col);
  vals_.push_back(value);
}

void TripletMatrix::stampConductance(Index i, Index j, double g) {
  VIADUCT_REQUIRE(g >= 0.0);
  if (i >= 0) add(i, i, g);
  if (j >= 0) add(j, j, g);
  if (i >= 0 && j >= 0) {
    add(i, j, -g);
    add(j, i, -g);
  }
}

void TripletMatrix::reserve(std::size_t n) {
  rowIdx_.reserve(n);
  colIdx_.reserve(n);
  vals_.reserve(n);
}

CsrMatrix CsrMatrix::fromCsrArrays(Index rows, Index cols,
                                   std::vector<Index> rowPointers,
                                   std::vector<Index> colIndices,
                                   std::vector<double> values) {
  VIADUCT_REQUIRE(rows >= 0 && cols >= 0);
  VIADUCT_REQUIRE(rowPointers.size() == static_cast<std::size_t>(rows) + 1);
  VIADUCT_REQUIRE(rowPointers.front() == 0 &&
                  static_cast<std::size_t>(rowPointers.back()) ==
                      colIndices.size() &&
                  colIndices.size() == values.size());
  for (Index r = 0; r < rows; ++r) {
    const Index begin = rowPointers[static_cast<std::size_t>(r)];
    const Index end = rowPointers[static_cast<std::size_t>(r) + 1];
    VIADUCT_REQUIRE(begin <= end);
    for (Index k = begin; k < end; ++k) {
      const Index c = colIndices[static_cast<std::size_t>(k)];
      VIADUCT_REQUIRE(c >= 0 && c < cols);
      VIADUCT_REQUIRE(k == begin || colIndices[static_cast<std::size_t>(k) - 1] < c);
    }
  }
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.rowPtr_ = std::move(rowPointers);
  m.colIdx_ = std::move(colIndices);
  m.values_ = std::move(values);
  return m;
}

CsrMatrix CsrMatrix::fromTriplets(const TripletMatrix& t) {
  CsrMatrix m;
  m.rows_ = t.rows();
  m.cols_ = t.cols();
  const auto ri = t.rowIndices();
  const auto ci = t.colIndices();
  const auto va = t.values();
  const std::size_t nnzIn = ri.size();

  // Count entries per row, then bucket, then sort+dedupe within rows.
  std::vector<Index> counts(static_cast<std::size_t>(m.rows_) + 1, 0);
  for (std::size_t k = 0; k < nnzIn; ++k) counts[ri[k] + 1]++;
  std::partial_sum(counts.begin(), counts.end(), counts.begin());

  std::vector<Index> cols(nnzIn);
  std::vector<double> vals(nnzIn);
  {
    std::vector<Index> cursor(counts.begin(), counts.end() - 1);
    for (std::size_t k = 0; k < nnzIn; ++k) {
      const Index pos = cursor[ri[k]]++;
      cols[pos] = ci[k];
      vals[pos] = va[k];
    }
  }

  m.rowPtr_.assign(static_cast<std::size_t>(m.rows_) + 1, 0);
  std::vector<std::pair<Index, double>> rowBuf;
  for (Index r = 0; r < m.rows_; ++r) {
    rowBuf.clear();
    for (Index k = counts[r]; k < counts[r + 1]; ++k)
      rowBuf.emplace_back(cols[k], vals[k]);
    std::sort(rowBuf.begin(), rowBuf.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    // Merge duplicates.
    std::size_t out = m.colIdx_.size();
    for (const auto& [c, v] : rowBuf) {
      if (m.colIdx_.size() > out && m.colIdx_.back() == c) {
        m.values_.back() += v;
      } else {
        m.colIdx_.push_back(c);
        m.values_.push_back(v);
      }
    }
    m.rowPtr_[r + 1] = static_cast<Index>(m.colIdx_.size());
  }
  return m;
}

void CsrMatrix::multiply(std::span<const double> x, std::span<double> y) const {
  VIADUCT_COUNTER_ADD("sparse.spmv", 1);
  VIADUCT_REQUIRE(x.size() == static_cast<std::size_t>(cols_) &&
                  y.size() == static_cast<std::size_t>(rows_));
  for (Index r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (Index k = rowPtr_[r]; k < rowPtr_[r + 1]; ++k)
      s += values_[k] * x[colIdx_[k]];
    y[r] = s;
  }
}

void CsrMatrix::multiply(std::span<const double> x, std::span<double> y,
                         ThreadPool* pool) const {
  VIADUCT_COUNTER_ADD("sparse.spmv", 1);
  VIADUCT_REQUIRE(x.size() == static_cast<std::size_t>(cols_) &&
                  y.size() == static_cast<std::size_t>(rows_));
  viaduct::parallelFor(pool, 0, rows_, kSpmvRowGrain, [&](std::int64_t r) {
    double s = 0.0;
    for (Index k = rowPtr_[static_cast<std::size_t>(r)];
         k < rowPtr_[static_cast<std::size_t>(r) + 1]; ++k)
      s += values_[static_cast<std::size_t>(k)]
           * x[static_cast<std::size_t>(colIdx_[static_cast<std::size_t>(k)])];
    y[static_cast<std::size_t>(r)] = s;
  });
}

void CsrMatrix::multiplyAdd(std::span<const double> x, std::span<double> y,
                            double alpha) const {
  VIADUCT_REQUIRE(x.size() == static_cast<std::size_t>(cols_) &&
                  y.size() == static_cast<std::size_t>(rows_));
  for (Index r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (Index k = rowPtr_[r]; k < rowPtr_[r + 1]; ++k)
      s += values_[k] * x[colIdx_[k]];
    y[r] += alpha * s;
  }
}

double CsrMatrix::at(Index row, Index col) const {
  const std::ptrdiff_t pos = valueIndex(row, col);
  return pos >= 0 ? values_[static_cast<std::size_t>(pos)] : 0.0;
}

std::ptrdiff_t CsrMatrix::valueIndex(Index row, Index col) const {
  VIADUCT_REQUIRE(row >= 0 && row < rows_ && col >= 0 && col < cols_);
  const Index* begin = colIdx_.data() + rowPtr_[row];
  const Index* end = colIdx_.data() + rowPtr_[row + 1];
  const Index* it = std::lower_bound(begin, end, col);
  if (it != end && *it == col) return it - colIdx_.data();
  return -1;
}

std::vector<double> CsrMatrix::diagonal() const {
  std::vector<double> d(static_cast<std::size_t>(rows_), 0.0);
  for (Index r = 0; r < rows_ && r < cols_; ++r) d[r] = at(r, r);
  return d;
}

double CsrMatrix::residualNorm(std::span<const double> x,
                               std::span<const double> b) const {
  VIADUCT_REQUIRE(b.size() == static_cast<std::size_t>(rows_));
  std::vector<double> r(b.begin(), b.end());
  multiplyAdd(x, r, -1.0);
  return norm2(r);
}

bool CsrMatrix::isSymmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (Index r = 0; r < rows_; ++r) {
    for (Index k = rowPtr_[r]; k < rowPtr_[r + 1]; ++k) {
      const Index c = colIdx_[k];
      if (std::abs(values_[k] - at(c, r)) > tol) return false;
    }
  }
  return true;
}

CscLowerMatrix CscLowerMatrix::fromSymmetricTriplets(const TripletMatrix& t) {
  VIADUCT_REQUIRE(t.rows() == t.cols());
  // The input triplets describe the FULL symmetric matrix (both triangles
  // stamped, as stampConductance does). We keep the lower triangle and
  // compress it column-wise by compressing the transposed triplets row-wise.
  TripletMatrix lower(t.rows(), t.cols());
  const auto ri = t.rowIndices();
  const auto ci = t.colIndices();
  const auto va = t.values();
  for (std::size_t k = 0; k < ri.size(); ++k) {
    if (ri[k] < ci[k]) continue;            // drop strict upper triangle
    lower.add(ci[k], ri[k], va[k]);         // store transposed
  }
  const CsrMatrix byCol = CsrMatrix::fromTriplets(lower);
  CscLowerMatrix m;
  m.n_ = t.rows();
  m.colPtr_.assign(byCol.rowPointers().begin(), byCol.rowPointers().end());
  m.rowIdx_.assign(byCol.colIndices().begin(), byCol.colIndices().end());
  m.values_.assign(byCol.values().begin(), byCol.values().end());
  return m;
}

CscLowerMatrix CscLowerMatrix::fromCsr(const CsrMatrix& a) {
  VIADUCT_REQUIRE(a.rows() == a.cols());
  TripletMatrix t(a.rows(), a.cols());
  const auto rp = a.rowPointers();
  const auto ci = a.colIndices();
  const auto va = a.values();
  for (Index r = 0; r < a.rows(); ++r)
    for (Index k = rp[r]; k < rp[r + 1]; ++k)
      if (ci[k] <= r) t.add(ci[k], r, va[k]);  // transposed storage as above
  const CsrMatrix byCol = CsrMatrix::fromTriplets(t);
  CscLowerMatrix m;
  m.n_ = a.rows();
  m.colPtr_.assign(byCol.rowPointers().begin(), byCol.rowPointers().end());
  m.rowIdx_.assign(byCol.colIndices().begin(), byCol.colIndices().end());
  m.values_.assign(byCol.values().begin(), byCol.values().end());
  return m;
}

CsrMatrix csrFromTripletChunks(Index rows, Index cols,
                               std::span<const TripletMatrix> chunks) {
  TripletMatrix merged(rows, cols);
  std::size_t total = 0;
  for (const auto& c : chunks) total += c.entryCount();
  merged.reserve(total);
  for (const auto& c : chunks) {
    VIADUCT_REQUIRE(c.rows() == rows && c.cols() == cols);
    const auto ri = c.rowIndices();
    const auto ci = c.colIndices();
    const auto va = c.values();
    for (std::size_t k = 0; k < ri.size(); ++k) merged.add(ri[k], ci[k], va[k]);
  }
  return CsrMatrix::fromTriplets(merged);
}

double dot(std::span<const double> a, std::span<const double> b,
           ThreadPool* pool) {
  VIADUCT_REQUIRE(a.size() == b.size());
  const auto n = static_cast<std::int64_t>(a.size());
  const auto chunkSum = [&](std::int64_t lo, std::int64_t hi) {
    double s = 0.0;
    for (std::int64_t i = lo; i < hi; ++i)
      s += a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
    return s;
  };
  if (!pool) {
    // Same fixed-grain chunking as the pooled path so the summation order
    // (and therefore the rounding) is identical.
    double acc = 0.0;
    for (std::int64_t lo = 0; lo < n; lo += kVectorOpGrain)
      acc += chunkSum(lo, std::min(lo + kVectorOpGrain, n));
    return acc;
  }
  return pool->parallelReduce<double>(
      0, n, kVectorOpGrain, 0.0, chunkSum,
      [](double x, double y) { return x + y; });
}

double norm2(std::span<const double> a, ThreadPool* pool) {
  return std::sqrt(dot(a, a, pool));
}

void axpy(double alpha, std::span<const double> x, std::span<double> y,
          ThreadPool* pool) {
  VIADUCT_REQUIRE(x.size() == y.size());
  viaduct::parallelFor(pool, 0, static_cast<std::int64_t>(x.size()),
                       kVectorOpGrain, [&](std::int64_t i) {
                         y[static_cast<std::size_t>(i)] +=
                             alpha * x[static_cast<std::size_t>(i)];
                       });
}

void scale(double alpha, std::span<double> x) {
  for (double& v : x) v *= alpha;
}

}  // namespace viaduct
