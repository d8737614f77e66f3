// Sparse matrix types.
//
// TripletMatrix is the assembly-time builder (duplicates are summed on
// compression). CsrMatrix is the mat-vec workhorse for iterative solvers.
// CscMatrix (lower-triangle view) feeds the sparse Cholesky factorization.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace viaduct {

class ThreadPool;  // common/thread_pool.h

using Index = std::int32_t;

/// Chunk sizes for the parallel kernels below. They are compile-time
/// constants (never derived from the thread count) so that chunked
/// reductions produce bit-identical results for every pool size.
inline constexpr std::int64_t kVectorOpGrain = 8192;
inline constexpr std::int64_t kSpmvRowGrain = 256;

/// Coordinate-format builder; duplicate entries are summed when compressed.
class TripletMatrix {
 public:
  TripletMatrix(Index rows, Index cols);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  std::size_t entryCount() const { return rowIdx_.size(); }

  void add(Index row, Index col, double value);

  /// Symmetric stamp convenience for conductance assembly:
  /// A[i][i]+=g, A[j][j]+=g, A[i][j]-=g, A[j][i]-=g. Negative node indices
  /// denote eliminated (grounded / fixed-voltage) nodes and are skipped.
  void stampConductance(Index i, Index j, double g);

  void reserve(std::size_t n);

  std::span<const Index> rowIndices() const { return rowIdx_; }
  std::span<const Index> colIndices() const { return colIdx_; }
  std::span<const double> values() const { return vals_; }

 private:
  Index rows_;
  Index cols_;
  std::vector<Index> rowIdx_;
  std::vector<Index> colIdx_;
  std::vector<double> vals_;
};

/// Compressed-sparse-row matrix; immutable structure, mutable values.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Compresses a triplet matrix, summing duplicates and dropping explicit
  /// zeros produced by cancellation is NOT done (structure kept stable).
  static CsrMatrix fromTriplets(const TripletMatrix& t);

  /// Adopts prebuilt CSR arrays from an assembler that emits rows directly
  /// in sorted order (e.g. the FEA node-gather stiffness assembly), skipping
  /// the triplet detour. Validates shape, monotone row pointers, and
  /// strictly increasing in-range column indices per row.
  static CsrMatrix fromCsrArrays(Index rows, Index cols,
                                 std::vector<Index> rowPointers,
                                 std::vector<Index> colIndices,
                                 std::vector<double> values);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  std::size_t nonZeroCount() const { return values_.size(); }

  std::span<const Index> rowPointers() const { return rowPtr_; }
  std::span<const Index> colIndices() const { return colIdx_; }
  std::span<const double> values() const { return values_; }
  std::span<double> mutableValues() { return values_; }

  /// y = A x.
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// y = A x, row-partitioned across `pool` (nullptr = serial). Each row's
  /// sum is computed identically regardless of the partitioning, so the
  /// result is bit-identical to the serial product for any thread count.
  void multiply(std::span<const double> x, std::span<double> y,
                ThreadPool* pool) const;

  /// y += alpha * A x.
  void multiplyAdd(std::span<const double> x, std::span<double> y,
                   double alpha = 1.0) const;

  /// Returns A[row][col], or 0 if not stored.
  double at(Index row, Index col) const;

  /// Returns the storage position of entry (row, col), or -1 if absent.
  /// Use with mutableValues() for in-place numeric updates that preserve
  /// the sparsity structure.
  std::ptrdiff_t valueIndex(Index row, Index col) const;

  /// Extracts the diagonal (missing entries read as 0).
  std::vector<double> diagonal() const;

  /// ||Ax - b||_2.
  double residualNorm(std::span<const double> x,
                      std::span<const double> b) const;

  /// Checks structural + numerical symmetry to a tolerance.
  bool isSymmetric(double tol = 1e-9) const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Index> rowPtr_;
  std::vector<Index> colIdx_;
  std::vector<double> values_;
};

/// Compressed-sparse-column storage of the LOWER triangle (including the
/// diagonal) of a symmetric matrix, as consumed by SparseCholesky.
class CscLowerMatrix {
 public:
  /// Builds the lower triangle from a symmetric triplet matrix (entries in
  /// the upper triangle are mirrored; duplicates summed).
  static CscLowerMatrix fromSymmetricTriplets(const TripletMatrix& t);

  /// Builds from a full symmetric CSR matrix, keeping the lower triangle.
  static CscLowerMatrix fromCsr(const CsrMatrix& a);

  Index size() const { return n_; }
  std::span<const Index> colPointers() const { return colPtr_; }
  std::span<const Index> rowIndices() const { return rowIdx_; }
  std::span<const double> values() const { return values_; }

 private:
  Index n_ = 0;
  std::vector<Index> colPtr_;
  std::vector<Index> rowIdx_;
  std::vector<double> values_;
};

/// Deterministic parallel triplet assembly: concatenates per-worker triplet
/// buffers in buffer order (a fixed order chosen by the caller, independent
/// of how chunks were scheduled) and compresses. Builders fill `chunks[c]`
/// from contiguous element ranges so the merged entry sequence — and hence
/// the duplicate-summing order inside fromTriplets — matches a serial
/// single-buffer assembly exactly.
CsrMatrix csrFromTripletChunks(Index rows, Index cols,
                               std::span<const TripletMatrix> chunks);

// Basic vector kernels shared by the solvers. dot/norm2 always sum in
// fixed kVectorOpGrain chunks (partials combined in chunk order), so their
// results are bit-identical for every pool size, including no pool at all.
// axpy is elementwise, so any partitioning gives the same result.
double dot(std::span<const double> a, std::span<const double> b,
           ThreadPool* pool = nullptr);
double norm2(std::span<const double> a, ThreadPool* pool = nullptr);
void axpy(double alpha, std::span<const double> x, std::span<double> y,
          ThreadPool* pool = nullptr);
void scale(double alpha, std::span<double> x);

}  // namespace viaduct
