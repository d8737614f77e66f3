#include "numerics/supernodal_cholesky.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/thread_pool.h"
#include "fault/fault.h"
#include "obs/obs.h"

namespace viaduct {

namespace {

/// Width cap splitting long supernode chains: bounds panel height × width
/// growth and gives the level scheduler enough independent tasks.
constexpr Index kMaxSupernodeWidth = 64;

/// Supernodes per ThreadPool chunk in the level-parallel passes.
constexpr std::int64_t kSupernodeGrain = 8;

}  // namespace

struct SupernodalCholesky::Symbolic {
  Index n = 0;
  /// Fill-reducing ordering composed with the etree postorder, so supernode
  /// columns are consecutive.
  Ordering ordering;
  std::vector<Index> parent;  // etree of the final permuted matrix

  Index snodes = 0;
  std::vector<Index> snodeOfCol;            // n
  std::vector<Index> first;                 // snodes+1, first[snodes] = n
  std::vector<std::size_t> rowsOffset;      // snodes+1 into rows
  std::vector<Index> rows;                  // ascending row list per snode
  std::vector<std::size_t> panelOffset;     // snodes+1 into panels_

  /// Descendant update lists: descendant d scatters its rows starting at
  /// `tailStart` into supernode s's panel.
  struct Updater {
    Index d = 0;
    Index tailStart = 0;
  };
  std::vector<std::size_t> updOffset;  // snodes+1
  std::vector<Updater> updaters;

  /// Level schedule: levels[l] lists supernodes whose update lists are
  /// fully contained in levels < l. Ascending ids within a level.
  std::vector<std::vector<Index>> levels;

  std::size_t factorNnz = 0;  // true nnz(L) (panels carry no padding)
  std::size_t lowerNnz = 0;   // nnz(tril(A)), for the fill-ratio gauge
};

std::shared_ptr<const SupernodalCholesky::Symbolic> SupernodalCholesky::analyze(
    const CsrMatrix& a, OrderingChoice choice) {
  const Index n = a.rows();
  Ordering fillOrd = makeOrdering(a, choice);
  CsrMatrix pm = permuteSymmetric(a, fillOrd);

  // Elimination tree of the fill-ordered matrix (Liu's algorithm), using
  // the lower-triangle pattern row by row.
  std::vector<Index> parent(static_cast<std::size_t>(n), -1);
  {
    std::vector<Index> ancestor(static_cast<std::size_t>(n), -1);
    const auto rp = pm.rowPointers();
    const auto ci = pm.colIndices();
    for (Index k = 0; k < n; ++k) {
      for (Index p = rp[k]; p < rp[k + 1]; ++p) {
        Index i = ci[p];
        if (i >= k) continue;
        while (i != -1 && i < k) {
          const Index next = ancestor[i];
          ancestor[i] = k;
          if (next == -1) {
            parent[i] = k;
            break;
          }
          i = next;
        }
      }
    }
  }

  // Postorder the etree (children ascending) so each supernode's columns
  // are consecutive, then compose: final[new] = fillOrd.perm[post[new]].
  std::vector<Index> post;
  post.reserve(static_cast<std::size_t>(n));
  {
    std::vector<Index> firstChild(static_cast<std::size_t>(n), -1);
    std::vector<Index> sibling(static_cast<std::size_t>(n), -1);
    for (Index j = n; j-- > 0;) {
      if (parent[j] == -1) continue;
      sibling[j] = firstChild[parent[j]];
      firstChild[parent[j]] = j;
    }
    std::vector<std::pair<Index, bool>> stack;
    for (Index root = 0; root < n; ++root) {
      if (parent[root] != -1) continue;
      stack.emplace_back(root, false);
      while (!stack.empty()) {
        auto& [v, expanded] = stack.back();
        if (expanded) {
          post.push_back(v);
          stack.pop_back();
          continue;
        }
        expanded = true;
        // Children pushed in reverse so the ascending child comes out first.
        std::vector<Index> kids;
        for (Index c = firstChild[v]; c != -1; c = sibling[c])
          kids.push_back(c);
        for (auto it = kids.rbegin(); it != kids.rend(); ++it)
          stack.emplace_back(*it, false);
      }
    }
  }
  VIADUCT_CHECK(post.size() == static_cast<std::size_t>(n));

  auto sym = std::make_shared<Symbolic>();
  sym->n = n;
  sym->ordering.perm.resize(static_cast<std::size_t>(n));
  sym->ordering.inverse.resize(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i)
    sym->ordering.perm[i] = fillOrd.perm[post[i]];
  for (Index i = 0; i < n; ++i) sym->ordering.inverse[sym->ordering.perm[i]] = i;
  VIADUCT_CHECK(sym->ordering.isValid());
  pm = permuteSymmetric(a, sym->ordering);

  // Lower-triangle pattern rows of the final matrix, its etree and the
  // per-column factor counts (one ereach sweep).
  std::vector<Index> aRowPtr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Index> aColIdx;
  {
    const auto rp = pm.rowPointers();
    const auto ci = pm.colIndices();
    for (Index r = 0; r < n; ++r) {
      for (Index k = rp[r]; k < rp[r + 1]; ++k)
        if (ci[k] <= r) aColIdx.push_back(ci[k]);
      aRowPtr[r + 1] = static_cast<Index>(aColIdx.size());
    }
  }
  sym->lowerNnz = aColIdx.size();
  sym->parent.assign(static_cast<std::size_t>(n), -1);
  {
    std::vector<Index> ancestor(static_cast<std::size_t>(n), -1);
    for (Index k = 0; k < n; ++k) {
      for (Index p = aRowPtr[k]; p < aRowPtr[k + 1]; ++p) {
        Index i = aColIdx[p];
        while (i != -1 && i < k) {
          const Index next = ancestor[i];
          ancestor[i] = k;
          if (next == -1) {
            sym->parent[i] = k;
            break;
          }
          i = next;
        }
      }
    }
  }
  std::vector<Index> counts(static_cast<std::size_t>(n), 1);
  {
    std::vector<Index> mark(static_cast<std::size_t>(n), -1);
    for (Index k = 0; k < n; ++k) {
      mark[k] = k;
      for (Index p = aRowPtr[k]; p < aRowPtr[k + 1]; ++p) {
        Index i = aColIdx[p];
        if (i == k) continue;
        while (mark[i] != k) {
          mark[i] = k;
          counts[i]++;
          i = sym->parent[i];
          VIADUCT_CHECK(i != -1);
        }
      }
    }
  }

  // Supernode partition: maximal chains with parent(j) = j+1 and
  // count(j) = count(j+1) + 1 share their below-diagonal structure exactly
  // (struct(j) \ {j} = struct(j+1)), capped at kMaxSupernodeWidth.
  sym->snodeOfCol.resize(static_cast<std::size_t>(n));
  sym->first.push_back(0);
  for (Index j = 0; j < n; ++j) {
    const Index f = sym->first.back();
    const bool extend = j > f && sym->parent[j - 1] == j &&
                        counts[j - 1] == counts[j] + 1 &&
                        j - f < kMaxSupernodeWidth;
    if (!extend && j > f) sym->first.push_back(j);
    sym->snodeOfCol[j] = static_cast<Index>(sym->first.size()) - 1;
  }
  if (n > 0) sym->first.push_back(n);
  sym->snodes = static_cast<Index>(sym->first.size()) - 1;

  // Row lists: the diagonal columns, then every below-diagonal row found by
  // a second ereach sweep (row k lands in snode(j) for each pattern column
  // j of row k). Rows arrive in ascending k, deduped via the list back.
  std::vector<std::vector<Index>> below(static_cast<std::size_t>(sym->snodes));
  {
    std::vector<Index> mark(static_cast<std::size_t>(n), -1);
    for (Index k = 0; k < n; ++k) {
      mark[k] = k;
      for (Index p = aRowPtr[k]; p < aRowPtr[k + 1]; ++p) {
        Index i = aColIdx[p];
        if (i == k) continue;
        while (mark[i] != k) {
          mark[i] = k;
          const Index s = sym->snodeOfCol[i];
          if (k >= sym->first[s + 1]) {
            auto& list = below[static_cast<std::size_t>(s)];
            if (list.empty() || list.back() != k) list.push_back(k);
          }
          i = sym->parent[i];
        }
      }
    }
  }
  sym->rowsOffset.assign(static_cast<std::size_t>(sym->snodes) + 1, 0);
  sym->panelOffset.assign(static_cast<std::size_t>(sym->snodes) + 1, 0);
  for (Index s = 0; s < sym->snodes; ++s) {
    const Index w = sym->first[s + 1] - sym->first[s];
    const std::size_t h = static_cast<std::size_t>(w) +
                          below[static_cast<std::size_t>(s)].size();
    sym->rowsOffset[s + 1] = sym->rowsOffset[s] + h;
    sym->panelOffset[s + 1] =
        sym->panelOffset[s] + h * static_cast<std::size_t>(w);
    sym->factorNnz += h * static_cast<std::size_t>(w) -
                      static_cast<std::size_t>(w) *
                          static_cast<std::size_t>(w - 1) / 2;
  }
  sym->rows.resize(sym->rowsOffset[static_cast<std::size_t>(sym->snodes)]);
  for (Index s = 0; s < sym->snodes; ++s) {
    std::size_t out = sym->rowsOffset[s];
    for (Index j = sym->first[s]; j < sym->first[s + 1]; ++j)
      sym->rows[out++] = j;
    for (const Index r : below[static_cast<std::size_t>(s)])
      sym->rows[out++] = r;
  }
  below.clear();
  below.shrink_to_fit();

  // Update lists: descendant d touches snode s where its below-diagonal
  // rows first enter s's column range. Rows ascending ⇒ target snodes
  // ascending ⇒ one entry per (d, s) pair; built in ascending d.
  {
    std::vector<std::vector<Symbolic::Updater>> upd(
        static_cast<std::size_t>(sym->snodes));
    for (Index d = 0; d < sym->snodes; ++d) {
      const Index wd = sym->first[d + 1] - sym->first[d];
      const std::size_t ro = sym->rowsOffset[d];
      const Index hd = static_cast<Index>(sym->rowsOffset[d + 1] - ro);
      Index lastS = -1;
      for (Index r = wd; r < hd; ++r) {
        const Index s = sym->snodeOfCol[sym->rows[ro + r]];
        if (s != lastS) {
          upd[static_cast<std::size_t>(s)].push_back({d, r});
          lastS = s;
        }
      }
    }
    sym->updOffset.assign(static_cast<std::size_t>(sym->snodes) + 1, 0);
    for (Index s = 0; s < sym->snodes; ++s)
      sym->updOffset[s + 1] =
          sym->updOffset[s] + upd[static_cast<std::size_t>(s)].size();
    sym->updaters.resize(sym->updOffset[static_cast<std::size_t>(sym->snodes)]);
    for (Index s = 0; s < sym->snodes; ++s)
      std::copy(upd[static_cast<std::size_t>(s)].begin(),
                upd[static_cast<std::size_t>(s)].end(),
                sym->updaters.begin() +
                    static_cast<std::ptrdiff_t>(sym->updOffset[s]));
  }

  // Level schedule: a supernode is one level above its deepest updater.
  {
    std::vector<Index> level(static_cast<std::size_t>(sym->snodes), 0);
    Index maxLevel = -1;
    for (Index s = 0; s < sym->snodes; ++s) {
      Index l = 0;
      for (std::size_t u = sym->updOffset[s]; u < sym->updOffset[s + 1]; ++u)
        l = std::max(l, level[sym->updaters[u].d] + 1);
      level[s] = l;
      maxLevel = std::max(maxLevel, l);
    }
    sym->levels.resize(static_cast<std::size_t>(maxLevel + 1));
    for (Index s = 0; s < sym->snodes; ++s)
      sym->levels[static_cast<std::size_t>(level[s])].push_back(s);
  }
  return sym;
}

SupernodalCholesky::SupernodalCholesky(const CsrMatrix& a,
                                       OrderingChoice ordering,
                                       ThreadPool* pool) {
  VIADUCT_SPAN("cholesky.supernodal_factorize");
  VIADUCT_COUNTER_ADD("cholesky.factorizations", 1);
  VIADUCT_REQUIRE_MSG(a.rows() == a.cols(), "Cholesky needs a square matrix");
  n_ = a.rows();
  sym_ = analyze(a, ordering);
  VIADUCT_GAUGE_SET("cholesky.factor_nnz",
                    static_cast<double>(sym_->factorNnz));
  VIADUCT_GAUGE_SET("cholesky.fill_ratio",
                    sym_->lowerNnz > 0
                        ? static_cast<double>(sym_->factorNnz) /
                              static_cast<double>(sym_->lowerNnz)
                        : 1.0);
  numericFactor(permuted(a), pool);
}

SupernodalCholesky::SupernodalCholesky(
    std::shared_ptr<const Symbolic> symbolic, const CsrMatrix& a)
    : n_(symbolic->n), sym_(std::move(symbolic)) {
  VIADUCT_SPAN("cholesky.refactor");
  VIADUCT_COUNTER_ADD("cholesky.refactorizations", 1);
  VIADUCT_REQUIRE(a.rows() == n_ && a.cols() == n_);
  numericFactor(permuted(a), nullptr);
}

CsrMatrix SupernodalCholesky::permuted(const CsrMatrix& a) const {
  return permuteSymmetric(a, sym_->ordering);
}

std::size_t SupernodalCholesky::factorNonZeroCount() const {
  return sym_->factorNnz;
}

Index SupernodalCholesky::supernodeCount() const { return sym_->snodes; }

Index SupernodalCholesky::levelCount() const {
  return static_cast<Index>(sym_->levels.size());
}

std::unique_ptr<SpdFactor> SupernodalCholesky::refactored(
    const CsrMatrix& a) const {
  return std::unique_ptr<SpdFactor>(new SupernodalCholesky(sym_, a));
}

void SupernodalCholesky::numericFactor(const CsrMatrix& permuted,
                                       ThreadPool* pool) {
  // Mimics the organic failure mode (loss of positive definiteness).
  if (fault::shouldInject("cholesky.supernodal_factor")) {
    throw NumericalError(
        "SupernodalCholesky: matrix is not positive definite (injected "
        "fault)");
  }
  panels_.assign(sym_->panelOffset[static_cast<std::size_t>(sym_->snodes)],
                 0.0);
  for (const auto& level : sym_->levels) {
    const auto count = static_cast<std::int64_t>(level.size());
    if (pool != nullptr && pool->threadCount() > 1 && count > 1) {
      pool->parallelFor(0, count, kSupernodeGrain, [&](std::int64_t i) {
        factorSupernode(level[static_cast<std::size_t>(i)], permuted);
      });
    } else {
      for (const Index s : level) factorSupernode(s, permuted);
    }
  }
}

void SupernodalCholesky::factorSupernode(Index s, const CsrMatrix& pm) {
  const Symbolic& sy = *sym_;
  const Index f = sy.first[s];
  const Index w = sy.first[s + 1] - f;
  const std::size_t ro = sy.rowsOffset[s];
  const Index h = static_cast<Index>(sy.rowsOffset[s + 1] - ro);
  const Index* rows = sy.rows.data() + ro;
  double* panel = panels_.data() + sy.panelOffset[s];

  // Per-thread scratch: global row → panel row of s (valid only for rows of
  // s, which covers every scatter target below), and the dense update block.
  thread_local std::vector<Index> rel;
  thread_local std::vector<double> cbuf;
  if (rel.size() < static_cast<std::size_t>(n_))
    rel.resize(static_cast<std::size_t>(n_));
  for (Index r = 0; r < h; ++r) rel[rows[r]] = r;

  // Scatter A's columns f..f+w (read as upper-triangle rows of the
  // permuted CSR) into the zeroed panel.
  {
    const auto rp = pm.rowPointers();
    const auto ci = pm.colIndices();
    const auto va = pm.values();
    for (Index c = 0; c < w; ++c) {
      const Index j = f + c;
      double* col = panel + static_cast<std::size_t>(c) * h;
      for (Index k = rp[j]; k < rp[j + 1]; ++k)
        if (ci[k] >= j) col[rel[ci[k]]] = va[k];
    }
  }

  // Left-looking: subtract each descendant's rank-wd outer product,
  // C = Ld[tail,:] · Ld[I1,:]ᵀ, through a 4-way-unrolled kernel over the
  // descendant's columns (contiguous column-major reads).
  for (std::size_t u = sy.updOffset[s]; u < sy.updOffset[s + 1]; ++u) {
    const Index d = sy.updaters[u].d;
    const Index t = sy.updaters[u].tailStart;
    const std::size_t rod = sy.rowsOffset[d];
    const Index hd = static_cast<Index>(sy.rowsOffset[d + 1] - rod);
    const Index wd = sy.first[d + 1] - sy.first[d];
    const Index* rowsD = sy.rows.data() + rod;
    const double* pd = panels_.data() + sy.panelOffset[d];
    const Index mt = hd - t;
    Index m1 = 0;  // leading tail rows that are columns of s
    while (m1 < mt && rowsD[t + m1] < f + w) ++m1;

    const std::size_t cn = static_cast<std::size_t>(mt) *
                           static_cast<std::size_t>(m1);
    if (cbuf.size() < cn) cbuf.resize(cn);
    std::fill(cbuf.begin(), cbuf.begin() + static_cast<std::ptrdiff_t>(cn),
              0.0);

    Index k = 0;
    for (; k + 4 <= wd; k += 4) {
      const double* c0 = pd + static_cast<std::size_t>(k) * hd + t;
      const double* c1 = c0 + hd;
      const double* c2 = c1 + hd;
      const double* c3 = c2 + hd;
      for (Index a = 0; a < m1; ++a) {
        const double l0 = c0[a];
        const double l1 = c1[a];
        const double l2 = c2[a];
        const double l3 = c3[a];
        double* crow = cbuf.data() + static_cast<std::size_t>(a) * mt;
        for (Index r = a; r < mt; ++r)
          crow[r] += l0 * c0[r] + l1 * c1[r] + l2 * c2[r] + l3 * c3[r];
      }
    }
    for (; k < wd; ++k) {
      const double* ck = pd + static_cast<std::size_t>(k) * hd + t;
      for (Index a = 0; a < m1; ++a) {
        const double lk = ck[a];
        double* crow = cbuf.data() + static_cast<std::size_t>(a) * mt;
        for (Index r = a; r < mt; ++r) crow[r] += lk * ck[r];
      }
    }

    for (Index a = 0; a < m1; ++a) {
      double* col = panel + static_cast<std::size_t>(rowsD[t + a] - f) * h;
      const double* crow = cbuf.data() + static_cast<std::size_t>(a) * mt;
      for (Index r = a; r < mt; ++r) col[rel[rowsD[t + r]]] -= crow[r];
    }
  }

  // Dense left-looking factorization of the panel itself (4-way unrolled
  // over prior panel columns, DenseCholeskyFactor style).
  for (Index c = 0; c < w; ++c) {
    double* colc = panel + static_cast<std::size_t>(c) * h;
    Index k = 0;
    for (; k + 4 <= c; k += 4) {
      const double* p0 = panel + static_cast<std::size_t>(k) * h;
      const double* p1 = p0 + h;
      const double* p2 = p1 + h;
      const double* p3 = p2 + h;
      const double l0 = p0[c];
      const double l1 = p1[c];
      const double l2 = p2[c];
      const double l3 = p3[c];
      for (Index r = c; r < h; ++r)
        colc[r] -= l0 * p0[r] + l1 * p1[r] + l2 * p2[r] + l3 * p3[r];
    }
    for (; k < c; ++k) {
      const double* pk = panel + static_cast<std::size_t>(k) * h;
      const double lk = pk[c];
      for (Index r = c; r < h; ++r) colc[r] -= lk * pk[r];
    }
    const double dkk = colc[c];
    if (!(dkk > 0.0))
      throw NumericalError(
          "SupernodalCholesky: matrix is not positive definite at pivot " +
          std::to_string(f + c));
    const double root = std::sqrt(dkk);
    colc[c] = root;
    const double inv = 1.0 / root;
    for (Index r = c + 1; r < h; ++r) colc[r] *= inv;
  }
}

void SupernodalCholesky::forwardSupernode(Index s, std::span<double> y) const {
  const Symbolic& sy = *sym_;
  const Index f = sy.first[s];
  const Index w = sy.first[s + 1] - f;
  const std::size_t ro = sy.rowsOffset[s];
  const Index h = static_cast<Index>(sy.rowsOffset[s + 1] - ro);
  const Index* rows = sy.rows.data() + ro;
  const double* panel = panels_.data() + sy.panelOffset[s];
  for (Index c = 0; c < w; ++c) {
    const double* col = panel + static_cast<std::size_t>(c) * h;
    const double yc = y[f + c] / col[c];
    y[f + c] = yc;
    for (Index r = c + 1; r < h; ++r) y[rows[r]] -= col[r] * yc;
  }
}

void SupernodalCholesky::backwardSweep(std::span<double> y) const {
  const Symbolic& sy = *sym_;
  for (Index s = sy.snodes; s-- > 0;) {
    const Index f = sy.first[s];
    const Index w = sy.first[s + 1] - f;
    const std::size_t ro = sy.rowsOffset[s];
    const Index h = static_cast<Index>(sy.rowsOffset[s + 1] - ro);
    const Index* rows = sy.rows.data() + ro;
    const double* panel = panels_.data() + sy.panelOffset[s];
    for (Index c = w; c-- > 0;) {
      const double* col = panel + static_cast<std::size_t>(c) * h;
      double acc = y[f + c];
      for (Index r = c + 1; r < h; ++r) acc -= col[r] * y[rows[r]];
      y[f + c] = acc / col[c];
    }
  }
}

template <typename Visit>
void SupernodalCholesky::forEachReachSupernode(Index i, Index j,
                                               Visit&& visit) const {
  const Symbolic& sy = *sym_;
  auto seed = [&](Index node) {
    return node < 0 ? -1 : sy.snodeOfCol[sy.ordering.inverse[node]];
  };
  auto parent = [&](Index s) {
    const Index p = sy.parent[sy.first[s + 1] - 1];
    return p < 0 ? -1 : sy.snodeOfCol[p];
  };
  // Supernode ids ascend along every path to the root (postorder), so the
  // reach is the ascending merge of the two paths; a shared tail is
  // visited once.
  Index si = seed(i);
  Index sj = seed(j);
  while (si >= 0 || sj >= 0) {
    const Index s = sj < 0 || (si >= 0 && si < sj) ? si : sj;
    visit(s);
    if (si == s) si = parent(si);
    if (sj == s) sj = parent(sj);
  }
}

double SupernodalCholesky::forwardReachFraction(Index i, Index j) const {
  VIADUCT_REQUIRE(i >= -1 && j >= -1 && i < n_ && j < n_);
  const Symbolic& sy = *sym_;
  std::size_t entries = 0;
  forEachReachSupernode(i, j, [&](Index s) {
    entries += sy.panelOffset[s + 1] - sy.panelOffset[s];
  });
  const std::size_t total = sy.panelOffset[static_cast<std::size_t>(sy.snodes)];
  return total == 0 ? 0.0
                    : static_cast<double>(entries) / static_cast<double>(total);
}

void SupernodalCholesky::solve(std::span<const double> b,
                               std::span<double> x) const {
  VIADUCT_COUNTER_ADD("cholesky.triangular_solves", 1);
  VIADUCT_REQUIRE(b.size() == static_cast<std::size_t>(n_) &&
                  x.size() == b.size());
  const Symbolic& sy = *sym_;
  std::vector<double> y = permuteVector(b, sy.ordering);
  for (Index s = 0; s < sy.snodes; ++s) forwardSupernode(s, y);
  backwardSweep(y);
  const std::vector<double> out = unpermuteVector(y, sy.ordering);
  std::copy(out.begin(), out.end(), x.begin());
}

std::vector<double> SupernodalCholesky::solveIncidence(Index i,
                                                       Index j) const {
  VIADUCT_COUNTER_ADD("cholesky.triangular_solves", 1);
  VIADUCT_REQUIRE(i != j && i >= -1 && j >= -1 && i < n_ && j < n_);
  const Symbolic& sy = *sym_;
  std::vector<double> y(static_cast<std::size_t>(n_), 0.0);
  if (i >= 0) y[sy.ordering.inverse[i]] = 1.0;
  if (j >= 0) y[sy.ordering.inverse[j]] = -1.0;
  forEachReachSupernode(i, j, [&](Index s) { forwardSupernode(s, y); });
  backwardSweep(y);
  return unpermuteVector(y, sy.ordering);
}

}  // namespace viaduct
