// Common interface over the sparse SPD factorizations (the scalar
// up-looking SparseCholesky and the blocked SupernodalCholesky).
//
// The level-2 grid engine holds ONE immutable factor per PowerGridModel
// behind shared_ptr<const SpdFactor>; every Monte Carlo trial session
// solves against it concurrently (solve() is const and thread-safe) and a
// rebase clones it through refactored(), which reuses the shared symbolic
// analysis instead of re-running ordering + elimination-tree work.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "numerics/ordering.h"
#include "numerics/sparse.h"

namespace viaduct {

class ThreadPool;  // common/thread_pool.h

enum class SpdSolverKind { kUplooking, kSupernodal };

class SpdFactor {
 public:
  virtual ~SpdFactor() = default;

  virtual Index size() const = 0;
  virtual std::size_t factorNonZeroCount() const = 0;
  virtual SpdSolverKind kind() const = 0;

  /// Solves A x = b in the original (unpermuted) ordering. Const and
  /// thread-safe: concurrent solves on one factor share no mutable state.
  virtual void solve(std::span<const double> b, std::span<double> x) const = 0;

  std::vector<double> solve(std::span<const double> b) const {
    std::vector<double> x(b.size());
    solve(b, x);
    return x;
  }

  /// The incidence column G⁻¹·(e_i − e_j) of branch (i, j): node −1 is
  /// ground (its term is dropped). Requires i != j, each in [−1, size()).
  /// The default solves the dense incidence vector; a factor may seed the
  /// two non-zeros directly instead, but must return the same bits.
  virtual std::vector<double> solveIncidence(Index i, Index j) const;

  /// Numeric re-factorization with new values on the SAME sparsity
  /// structure, returned as a fresh factor that shares this factor's
  /// symbolic analysis (ordering, elimination tree, supernode partition).
  /// The receiver is untouched — this is the copy-on-write rebase path.
  virtual std::unique_ptr<SpdFactor> refactored(const CsrMatrix& a) const = 0;
};

/// Factory over the solver kinds. `pool` parallelizes the supernodal
/// numeric factorization (ignored by kUplooking); the factor itself is
/// bit-identical for every pool size including nullptr.
std::unique_ptr<SpdFactor> buildSpdFactor(const CsrMatrix& a,
                                          SpdSolverKind kind,
                                          OrderingChoice ordering,
                                          ThreadPool* pool = nullptr);

/// Stable names used by CLI flags, checkpoint keys and bench JSON.
std::string_view spdSolverKindName(SpdSolverKind kind);
std::string_view orderingChoiceName(OrderingChoice choice);

/// Parse the names back ("uplooking"/"supernodal",
/// "natural"/"rcm"/"amd"); throws ParseError on anything else.
SpdSolverKind parseSpdSolverKind(std::string_view name);
OrderingChoice parseOrderingChoice(std::string_view name);

}  // namespace viaduct
