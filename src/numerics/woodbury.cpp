#include "numerics/woodbury.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>

#include "common/check.h"
#include "common/cpu_features.h"
#include "fault/fault.h"
#include "obs/obs.h"

namespace viaduct {

namespace {

/// Below this magnitude a branch's accumulated delta has cancelled: its
/// capacitance diagonal 1/Δg would be unbounded, so it leaves the update set.
constexpr double kCancelledDelta = 1e-300;

/// aᵀv for the incidence vector a = e_i − e_j of branch (i, j), j = −1
/// for a ground endpoint.
double incidence(Index i, Index j, std::span<const double> v) {
  return v[static_cast<std::size_t>(i)] -
         (j >= 0 ? v[static_cast<std::size_t>(j)] : 0.0);
}

/// L doubles, operated on lane-wise, so each lane computes the scalar IEEE
/// operation: two (SSE2) in the plain kernel, four in the AVX2 one. Spelled
/// as specializations because GCC drops vector_size from a dependent alias.
template <std::size_t L>
struct LanesOf;
template <>
struct LanesOf<2> {
  typedef double type __attribute__((vector_size(2 * sizeof(double))));
};
template <>
struct LanesOf<4> {
  typedef double type __attribute__((vector_size(4 * sizeof(double))));
};
template <std::size_t L>
using Lanes = typename LanesOf<L>::type;

/// Rows [r, r + L·V) of subtractScaledColumns: the tile stays in registers
/// (the vector loops are unrolled so that it does) while every column is
/// subtracted from it.
template <std::size_t L, std::size_t V>
void subtractTile(const double* x0, const ScaledColumn* columns,
                  std::size_t count, std::size_t r, double* x) {
  Lanes<L> acc[V];
#pragma GCC unroll 8
  for (std::size_t v = 0; v < V; ++v)
    __builtin_memcpy(&acc[v], x0 + r + L * v, sizeof(Lanes<L>));
  for (std::size_t c = 0; c < count; ++c) {
    const double* z = columns[c].z + r;
    const double y = columns[c].y;
#pragma GCC unroll 8
    for (std::size_t v = 0; v < V; ++v) {
      Lanes<L> zv;
      __builtin_memcpy(&zv, z + L * v, sizeof(Lanes<L>));
      acc[v] -= zv * y;
    }
  }
#pragma GCC unroll 8
  for (std::size_t v = 0; v < V; ++v)
    __builtin_memcpy(x + r + L * v, &acc[v], sizeof(Lanes<L>));
}

/// The body of both kernels: tiles of eight vectors (16 rows plain, 32
/// AVX2), then one-vector tiles, then single rows.
template <std::size_t L>
void subtractRows(const double* x0, const ScaledColumn* columns,
                  std::size_t count, std::size_t n, double* x) {
  std::size_t r = 0;
  for (; r + 8 * L <= n; r += 8 * L)
    subtractTile<L, 8>(x0, columns, count, r, x);
  for (; r + L <= n; r += L) subtractTile<L, 1>(x0, columns, count, r, x);
  for (; r < n; ++r) {
    double acc = x0[r];
    for (std::size_t c = 0; c < count; ++c)
      acc -= columns[c].z[r] * columns[c].y;
    x[r] = acc;
  }
}

[[gnu::flatten]] void subtractRowsPlain(const double* x0,
                                        const ScaledColumn* columns,
                                        std::size_t count, std::size_t n,
                                        double* x) {
  subtractRows<2>(x0, columns, count, n, x);
}

#if VIADUCT_AVX2_DISPATCH
[[gnu::flatten, gnu::target("avx2")]] void subtractRowsAvx2(
    const double* x0, const ScaledColumn* columns, std::size_t count,
    std::size_t n, double* x) {
  subtractRows<4>(x0, columns, count, n, x);
}
#endif

/// The applyKernel() a test chose, or −1 for bestWoodburyKernel().
std::atomic<int> kernelOverride{-1};

}  // namespace

WoodburyKernel bestWoodburyKernel() {
  return cpuHasAvx2() ? WoodburyKernel::kAvx2 : WoodburyKernel::kPlain;
}

void subtractScaledColumns(WoodburyKernel kernel, std::span<const double> x0,
                           std::span<const ScaledColumn> columns,
                           std::span<double> x) {
  VIADUCT_REQUIRE(x0.size() == x.size());
  VIADUCT_REQUIRE_MSG(
      kernel == WoodburyKernel::kPlain || bestWoodburyKernel() == kernel,
      "this CPU cannot run the AVX2 Woodbury kernel");
  const auto zero = [](const ScaledColumn& c) { return c.y == 0.0; };
  std::vector<ScaledColumn> nonZero;
  if (std::any_of(columns.begin(), columns.end(), zero)) {
    std::remove_copy_if(columns.begin(), columns.end(),
                        std::back_inserter(nonZero), zero);
    columns = nonZero;
  }
#if VIADUCT_AVX2_DISPATCH
  if (kernel == WoodburyKernel::kAvx2) {
    subtractRowsAvx2(x0.data(), columns.data(), columns.size(), x.size(),
                     x.data());
    return;
  }
#endif
  subtractRowsPlain(x0.data(), columns.data(), columns.size(), x.size(),
                    x.data());
}

WoodburyKernel WoodburySolver::applyKernel() {
  const int chosen = kernelOverride.load();
  return chosen < 0 ? bestWoodburyKernel()
                    : static_cast<WoodburyKernel>(chosen);
}

void WoodburySolver::setApplyKernelForTesting(WoodburyKernel kernel) {
  VIADUCT_REQUIRE_MSG(
      kernel == WoodburyKernel::kPlain || bestWoodburyKernel() == kernel,
      "this CPU cannot run the AVX2 Woodbury kernel");
  kernelOverride.store(static_cast<int>(kernel));
}

WoodburySolver::WoodburySolver(CsrMatrix g0, const Options& options,
                               std::shared_ptr<const std::vector<double>> rhs)
    : options_(options), rhs_(std::move(rhs)) {
  VIADUCT_REQUIRE(g0.rows() == g0.cols());
  VIADUCT_REQUIRE(!rhs_ || rhs_->size() == static_cast<std::size_t>(g0.rows()));
  VIADUCT_GAUGE_SET("woodbury.apply_kernel", static_cast<int>(applyKernel()));
  base_ = std::make_shared<const CsrMatrix>(std::move(g0));
  sharedBase_ = buildSpdFactor(*base_, options_.solver, options_.ordering);
  if (rhs_)
    rhsBaseSolution_ =
        std::make_shared<const std::vector<double>>(sharedBase_->solve(*rhs_));
}

std::size_t IncidenceColumnCache::budgetFor(const SpdFactor& factor) {
  return std::max(
      factor.factorNonZeroCount() * (sizeof(double) + sizeof(Index)),
      kMinByteBudget);
}

IncidenceColumnCache::Column IncidenceColumnCache::find(Index i,
                                                        Index j) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = columns_.find({i, j});
  return it == columns_.end() ? nullptr : it->second;
}

void IncidenceColumnCache::insert(Index i, Index j, Column column) {
  const std::size_t columnBytes = column->size() * sizeof(double);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (bytes_ + columnBytes > byteBudget_) return;
  if (columns_.try_emplace({i, j}, std::move(column)).second)
    bytes_ += columnBytes;
}

std::size_t IncidenceColumnCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return columns_.size();
}

std::size_t IncidenceColumnCache::bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

WoodburySolver::WoodburySolver(SharedBase base, const Options& options)
    : options_(options),
      base_(std::move(base.g0)),
      sharedBase_(std::move(base.factor)),
      rhs_(std::move(base.rhs)),
      rhsBaseSolution_(std::move(base.rhsBaseSolution)),
      columnCache_(std::move(base.columns)) {
  VIADUCT_REQUIRE(base_ != nullptr && sharedBase_ != nullptr);
  VIADUCT_REQUIRE(base_->rows() == base_->cols() &&
                  sharedBase_->size() == base_->rows());
  VIADUCT_REQUIRE_MSG((rhs_ == nullptr) == (rhsBaseSolution_ == nullptr),
                      "a bound right-hand side needs its base solution");
  VIADUCT_REQUIRE(!rhs_ ||
                  (rhs_->size() == static_cast<std::size_t>(base_->rows()) &&
                   rhsBaseSolution_->size() == rhs_->size()));
  VIADUCT_GAUGE_SET("woodbury.apply_kernel", static_cast<int>(applyKernel()));
  // The owning constructor factors here and so consumes one decision from
  // the cholesky.factor fault stream per solver. Adopting a shared factor
  // skips the factorization but must keep that per-solver stream alignment
  // (and the failure surface: acquiring a base factor can still fail), so
  // it queries the same site exactly once.
  if (fault::shouldInject("cholesky.factor")) {
    throw NumericalError(
        "WoodburySolver: base factorization rejected (injected fault)");
  }
}

void WoodburySolver::recordDelta(Index i, Index j, double deltaG) {
  auto check = [&](Index r, Index c) {
    VIADUCT_REQUIRE_MSG(base_->valueIndex(r, c) >= 0,
                        "branch entry absent from the sparsity structure");
  };
  if (i >= 0) check(i, i);
  if (j >= 0) check(j, j);
  if (i >= 0 && j >= 0) {
    check(i, j);
    check(j, i);
  }
  appliedDelta_[{i, j}] += deltaG;
  if (gCache_) {
    auto values = gCache_->mutableValues();
    auto bump = [&](Index r, Index c, double dv) {
      values[static_cast<std::size_t>(gCache_->valueIndex(r, c))] += dv;
    };
    if (i >= 0) bump(i, i, deltaG);
    if (j >= 0) bump(j, j, deltaG);
    if (i >= 0 && j >= 0) {
      bump(i, j, -deltaG);
      bump(j, i, -deltaG);
    }
  }
}

const CsrMatrix& WoodburySolver::currentMatrix() const {
  if (!gCache_) {
    gCache_.emplace(*base_);
    auto values = gCache_->mutableValues();
    auto bump = [&](Index r, Index c, double dv) {
      values[static_cast<std::size_t>(gCache_->valueIndex(r, c))] += dv;
    };
    for (const auto& [key, d] : appliedDelta_) {
      const auto [i, j] = key;
      if (i >= 0) bump(i, i, d);
      if (j >= 0) bump(j, j, d);
      if (i >= 0 && j >= 0) {
        bump(i, j, -d);
        bump(j, i, -d);
      }
    }
  }
  return *gCache_;
}

IncidenceColumnCache::Column WoodburySolver::incidenceColumn(Index i,
                                                             Index j) const {
  const bool cached = columnCache_ && usesSharedBase();
  if (cached) {
    if (auto hit = columnCache_->find(i, j)) {
      VIADUCT_COUNTER_ADD("woodbury.column_cache_hits", 1);
      return hit;
    }
    VIADUCT_COUNTER_ADD("woodbury.column_cache_misses", 1);
  }
  auto column = std::make_shared<const std::vector<double>>(
      activeFactor().solveIncidence(i, j));
  if (cached) columnCache_->insert(i, j, column);
  return column;
}

void WoodburySolver::foldIntoFactor() {
  std::unique_ptr<SpdFactor> folded = activeFactor().refactored(currentMatrix());
  if (rhs_)
    rhsBaseSolution_ =
        std::make_shared<const std::vector<double>>(folded->solve(*rhs_));
  privateFactor_ = std::move(folded);
}

void WoodburySolver::clearUpdates() {
  branches_.clear();
  branchIndex_.clear();
  factoredRows_ = 0;
}

void WoodburySolver::dropBranch(std::size_t index) {
  const Branch& b = branches_[index];
  branchIndex_.erase({b.i, b.j});
  branches_.erase(branches_.begin() + static_cast<std::ptrdiff_t>(index));
  for (auto& [key, slot] : branchIndex_)
    if (slot > index) --slot;
  for (std::size_t m = index; m < branches_.size(); ++m)
    branches_[m].utz.erase(branches_[m].utz.begin() +
                           static_cast<std::ptrdiff_t>(index));
}

void WoodburySolver::refactorFrom(std::size_t index) {
  factoredRows_ = std::min(factoredRows_, index);
  for (std::size_t m = index; m < branches_.size(); ++m) borderFactor(m);
}

void WoodburySolver::borderFactor(std::size_t m) {
  // C_{m+1} = [[C_m, c], [cᵀ, γ]] = L·diag(p)·Lᵀ: L's new row is
  // ℓ_l = u_l / p_l with u = L_m⁻¹ c, and the new pivot γ − Σ u_l ℓ_l.
  Branch& b = branches_[m];
  std::vector<double>& row = b.lower;
  row.assign(b.utz.begin(), b.utz.begin() + static_cast<std::ptrdiff_t>(m));
  for (std::size_t l = 0; l < m; ++l) {
    const std::vector<double>& lrow = branches_[l].lower;
    double u = row[l];
    for (std::size_t q = 0; q < l; ++q) u -= lrow[q] * row[q];
    row[l] = u;
  }
  double pivot = b.utz[m] + 1.0 / b.deltaG;
  for (std::size_t l = 0; l < m; ++l) {
    const double ell = row[l] / branches_[l].pivot;
    pivot -= row[l] * ell;
    row[l] = ell;
  }
  if (pivot == 0.0 || !std::isfinite(pivot))
    throw NumericalError("Woodbury capacitance pivot is zero or non-finite");
  b.pivot = pivot;
  factoredRows_ = m + 1;
}

void WoodburySolver::updateBranch(Index i, Index j, double deltaG) {
  VIADUCT_COUNTER_ADD("woodbury.branch_updates", 1);
  VIADUCT_REQUIRE_MSG(i != j, "branch endpoints must differ");
  VIADUCT_REQUIRE_MSG(i >= 0 || j >= 0, "at least one endpoint must be live");
  // Canonical key: the update a·aᵀ with a = e_i − e_j is symmetric in
  // (i, j), so sort the pair and keep a ground endpoint (−1) in slot j.
  if (i < 0) std::swap(i, j);
  if (j >= 0 && i > j) std::swap(i, j);
  VIADUCT_REQUIRE(i >= 0 && i < base_->rows() && j < base_->rows());

  // The accumulated deltas always describe the true updated matrix from
  // here on, so a full re-factorization is a valid recovery for anything
  // below.
  recordDelta(i, j, deltaG);

  try {
    if (fault::shouldInject("woodbury.update")) {
      throw NumericalError("Woodbury update rejected (injected fault)");
    }
    const auto key = std::make_pair(i, j);
    if (const auto it = branchIndex_.find(key); it != branchIndex_.end()) {
      const std::size_t index = it->second;
      Branch& b = branches_[index];
      b.deltaG += deltaG;
      // A delta that cancels back to zero leaves the branch unchanged
      // relative to the base; order-preserving removal keeps every solve
      // identical to one that never saw the branch.
      if (std::abs(b.deltaG) <= kCancelledDelta) dropBranch(index);
      refactorFrom(index);
    } else if (std::abs(deltaG) > kCancelledDelta) {
      Branch b;
      b.i = i;
      b.j = j;
      b.deltaG = deltaG;
      b.z = incidenceColumn(i, j);
      // Row m of Uᵀ Z: aₘᵀ z_l against every tracked column, then its own.
      b.utz.reserve(branches_.size() + 1);
      for (const Branch& l : branches_) b.utz.push_back(incidence(i, j, *l.z));
      b.utz.push_back(incidence(i, j, *b.z));
      branchIndex_.emplace(key, branches_.size());
      branches_.push_back(std::move(b));
      borderFactor(branches_.size() - 1);
    }
  } catch (const NumericalError&) {
    if (!options_.policy.enabled || !options_.policy.refactorOnWoodburyFailure)
      throw;
    // Fold every accumulated delta (including this one) into the base.
    // Not rebase(): that early-returns when the update set is empty, and
    // the rejected delta must reach the factorization either way.
    VIADUCT_COUNTER_ADD("fault.policy.woodbury_refactors", 1);
    VIADUCT_COUNTER_ADD("woodbury.rebases", 1);
    foldIntoFactor();
    clearUpdates();
    ++rebases_;
    return;
  }

  if (static_cast<int>(branches_.size()) > options_.rebaseThreshold) rebase();
}

void WoodburySolver::rebase() {
  if (branches_.empty()) return;
  VIADUCT_SPAN("woodbury.rebase");
  VIADUCT_COUNTER_ADD("woodbury.rebases", 1);
  foldIntoFactor();
  clearUpdates();
  ++rebases_;
}

void WoodburySolver::startSolve() const {
  if (fault::shouldInject("woodbury.solve")) {
    throw NumericalError("Woodbury solve failed (injected fault)");
  }
  VIADUCT_COUNTER_ADD("woodbury.solves", 1);
  VIADUCT_HISTOGRAM_OBSERVE("woodbury.pending_updates", branches_.size(),
                            obs::Buckets::linear(0, 16, 17));
}

std::vector<double> WoodburySolver::solve(std::span<const double> b) const {
  startSolve();
  std::vector<double> x = activeFactor().solve(b);
  applyUpdates(x, x);
  return x;
}

std::vector<double> WoodburySolver::solveFixedRhs() const {
  VIADUCT_REQUIRE_MSG(rhsBaseSolution_ != nullptr,
                      "no fixed right-hand side bound");
  startSolve();
  std::vector<double> x(rhsBaseSolution_->size());
  applyUpdates(*rhsBaseSolution_, x);
  return x;
}

void WoodburySolver::applyUpdates(std::span<const double> x0,
                                  std::span<double> x) const {
  const std::size_t k = branches_.size();
  if (factoredRows_ != k)
    throw NumericalError("Woodbury capacitance factor is singular");

  // y = C⁻¹ Uᵀ x0: w = Uᵀ x0, then L v = w, v /= pivots, Lᵀ y = v in place.
  std::vector<double> y(k);
  for (std::size_t m = 0; m < k; ++m) {
    const std::vector<double>& row = branches_[m].lower;
    double v = incidence(branches_[m].i, branches_[m].j, x0);
    for (std::size_t l = 0; l < m; ++l) v -= row[l] * y[l];
    y[m] = v;
  }
  for (std::size_t m = 0; m < k; ++m) y[m] /= branches_[m].pivot;
  for (std::size_t m = k; m-- > 0;) {
    const std::vector<double>& row = branches_[m].lower;
    const double ym = y[m];
    for (std::size_t l = 0; l < m; ++l) y[l] -= row[l] * ym;
  }

  std::vector<ScaledColumn> zy(k);
  for (std::size_t m = 0; m < k; ++m) zy[m] = {branches_[m].z->data(), y[m]};
  subtractScaledColumns(applyKernel(), x0, zy, x);
}

}  // namespace viaduct
