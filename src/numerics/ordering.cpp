#include "numerics/ordering.h"

#include <algorithm>
#include <queue>

#include "common/check.h"

namespace viaduct {

Ordering Ordering::identity(Index n) {
  Ordering o;
  o.perm.resize(static_cast<std::size_t>(n));
  o.inverse.resize(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    o.perm[i] = i;
    o.inverse[i] = i;
  }
  return o;
}

bool Ordering::isValid() const {
  if (perm.size() != inverse.size()) return false;
  for (std::size_t i = 0; i < perm.size(); ++i) {
    const Index p = perm[i];
    if (p < 0 || static_cast<std::size_t>(p) >= perm.size()) return false;
    if (inverse[p] != static_cast<Index>(i)) return false;
  }
  return true;
}

Ordering reverseCuthillMcKee(const CsrMatrix& a) {
  VIADUCT_REQUIRE(a.rows() == a.cols());
  const Index n = a.rows();
  const auto rp = a.rowPointers();
  const auto ci = a.colIndices();

  std::vector<Index> degree(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) degree[i] = rp[i + 1] - rp[i];

  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  std::vector<Index> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<Index> neighbors;

  for (Index seedScan = 0; seedScan < n; ++seedScan) {
    if (visited[seedScan]) continue;
    // Pick the minimum-degree unvisited node of this component as the seed
    // (cheap peripheral-node heuristic).
    Index seed = seedScan;
    // BFS from seedScan to find the component and a pseudo-peripheral node.
    {
      std::queue<Index> q;
      q.push(seedScan);
      std::vector<Index> component;
      std::vector<bool> seen(static_cast<std::size_t>(n), false);
      seen[seedScan] = true;
      Index last = seedScan;
      while (!q.empty()) {
        const Index u = q.front();
        q.pop();
        component.push_back(u);
        last = u;
        for (Index k = rp[u]; k < rp[u + 1]; ++k) {
          const Index v = ci[k];
          if (v != u && !seen[v] && !visited[v]) {
            seen[v] = true;
            q.push(v);
          }
        }
      }
      seed = last;  // the last BFS node approximates a peripheral node
      (void)component;
    }

    std::queue<Index> q;
    q.push(seed);
    visited[seed] = true;
    while (!q.empty()) {
      const Index u = q.front();
      q.pop();
      order.push_back(u);
      neighbors.clear();
      for (Index k = rp[u]; k < rp[u + 1]; ++k) {
        const Index v = ci[k];
        if (v != u && !visited[v]) {
          visited[v] = true;
          neighbors.push_back(v);
        }
      }
      std::sort(neighbors.begin(), neighbors.end(),
                [&](Index x, Index y) { return degree[x] < degree[y]; });
      for (Index v : neighbors) q.push(v);
    }
  }
  VIADUCT_CHECK(order.size() == static_cast<std::size_t>(n));

  std::reverse(order.begin(), order.end());
  Ordering o;
  o.perm = std::move(order);
  o.inverse.resize(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) o.inverse[o.perm[i]] = i;
  return o;
}

Ordering approximateMinimumDegree(const CsrMatrix& a) {
  VIADUCT_REQUIRE(a.rows() == a.cols());
  const Index n = a.rows();
  Ordering o;
  o.perm.reserve(static_cast<std::size_t>(n));
  if (n == 0) return o;
  const auto rp = a.rowPointers();
  const auto ci = a.colIndices();

  // Quotient graph. Each uneliminated variable i keeps
  //   adjVar[i]  — uneliminated neighbor variables not yet covered by a
  //                shared element (pruned on every elimination touching i),
  //   adjEl[i]   — elements (eliminated pivots) whose clique contains i.
  // Each alive element e keeps its variable list elemVars[e]. Eliminating a
  // pivot p absorbs every element adjacent to p into the new element p.
  std::vector<std::vector<Index>> adjVar(static_cast<std::size_t>(n));
  std::vector<std::vector<Index>> adjEl(static_cast<std::size_t>(n));
  std::vector<std::vector<Index>> elemVars(static_cast<std::size_t>(n));
  for (Index r = 0; r < n; ++r) {
    adjVar[static_cast<std::size_t>(r)].reserve(
        static_cast<std::size_t>(rp[r + 1] - rp[r]));
    for (Index k = rp[r]; k < rp[r + 1]; ++k)
      if (ci[k] != r) adjVar[static_cast<std::size_t>(r)].push_back(ci[k]);
  }

  std::vector<char> eliminated(static_cast<std::size_t>(n), 0);
  std::vector<char> elemAlive(static_cast<std::size_t>(n), 0);

  // Intrusive doubly-linked degree lists: head[d] is the most recently
  // inserted variable of (approximate) degree d.
  std::vector<Index> degree(static_cast<std::size_t>(n));
  std::vector<Index> head(static_cast<std::size_t>(n) + 1, -1);
  std::vector<Index> next(static_cast<std::size_t>(n), -1);
  std::vector<Index> prev(static_cast<std::size_t>(n), -1);
  auto listInsert = [&](Index v, Index d) {
    next[v] = head[d];
    prev[v] = -1;
    if (head[d] != -1) prev[head[d]] = v;
    head[d] = v;
  };
  auto listRemove = [&](Index v, Index d) {
    if (prev[v] != -1)
      next[prev[v]] = next[v];
    else
      head[d] = next[v];
    if (next[v] != -1) prev[next[v]] = prev[v];
  };
  for (Index v = 0; v < n; ++v) {
    degree[v] = static_cast<Index>(adjVar[static_cast<std::size_t>(v)].size());
    listInsert(v, degree[v]);
  }

  // Epoch-stamped scratch: mark[] flags membership of the current pivot's
  // clique Lp; w[] counts |Le \ Lp| for elements touching Lp.
  std::vector<Index> mark(static_cast<std::size_t>(n), -1);
  std::vector<Index> wEpoch(static_cast<std::size_t>(n), -1);
  std::vector<Index> w(static_cast<std::size_t>(n), 0);
  std::vector<Index> lp;  // the pivot's clique (future element variables)
  lp.reserve(64);

  Index minDeg = 0;
  for (Index k = 0; k < n; ++k) {
    // Pop a minimum-approximate-degree variable.
    while (minDeg < n && head[minDeg] == -1) ++minDeg;
    VIADUCT_CHECK(minDeg < n);
    const Index p = head[minDeg];
    listRemove(p, minDeg);
    eliminated[static_cast<std::size_t>(p)] = 1;
    o.perm.push_back(p);

    // Lp := uneliminated variables adjacent to p directly or via elements.
    lp.clear();
    mark[static_cast<std::size_t>(p)] = k;
    for (const Index v : adjVar[static_cast<std::size_t>(p)]) {
      if (mark[static_cast<std::size_t>(v)] == k) continue;
      mark[static_cast<std::size_t>(v)] = k;
      lp.push_back(v);
    }
    for (const Index e : adjEl[static_cast<std::size_t>(p)]) {
      if (!elemAlive[static_cast<std::size_t>(e)]) continue;
      for (const Index v : elemVars[static_cast<std::size_t>(e)]) {
        if (eliminated[static_cast<std::size_t>(v)] ||
            mark[static_cast<std::size_t>(v)] == k)
          continue;
        mark[static_cast<std::size_t>(v)] = k;
        lp.push_back(v);
      }
      // Every element adjacent to the pivot is absorbed into element p.
      elemAlive[static_cast<std::size_t>(e)] = 0;
      std::vector<Index>().swap(elemVars[static_cast<std::size_t>(e)]);
    }
    std::vector<Index>().swap(adjVar[static_cast<std::size_t>(p)]);
    std::vector<Index>().swap(adjEl[static_cast<std::size_t>(p)]);

    if (lp.empty()) continue;  // isolated variable
    elemVars[static_cast<std::size_t>(p)] = lp;
    elemAlive[static_cast<std::size_t>(p)] = 1;

    // |Le \ Lp| for every alive element touching Lp, in one decrement pass.
    for (const Index i : lp) {
      for (const Index e : adjEl[static_cast<std::size_t>(i)]) {
        if (!elemAlive[static_cast<std::size_t>(e)]) continue;
        if (wEpoch[static_cast<std::size_t>(e)] != k) {
          wEpoch[static_cast<std::size_t>(e)] = k;
          w[static_cast<std::size_t>(e)] = static_cast<Index>(
              elemVars[static_cast<std::size_t>(e)].size());
        }
        --w[static_cast<std::size_t>(e)];
      }
    }

    // Prune adjacency of every clique member and refresh its approximate
    // external degree:  d ≈ |A_i \ Lp| + |Lp \ i| + Σ_e |Le \ Lp|.
    const Index lpSize = static_cast<Index>(lp.size());
    for (const Index i : lp) {
      auto& av = adjVar[static_cast<std::size_t>(i)];
      std::size_t out = 0;
      for (const Index v : av) {
        // Drop p (marked), clique members (covered by element p) and any
        // variable eliminated meanwhile; keeps lists shrinking over time.
        if (mark[static_cast<std::size_t>(v)] == k ||
            eliminated[static_cast<std::size_t>(v)])
          continue;
        av[out++] = v;
      }
      av.resize(out);

      auto& ae = adjEl[static_cast<std::size_t>(i)];
      std::size_t eOut = 0;
      Index elemDegree = 0;
      for (const Index e : ae) {
        if (!elemAlive[static_cast<std::size_t>(e)]) continue;
        // Aggressive absorption: an element fully covered by Lp (w == 0)
        // is redundant once element p exists.
        if (wEpoch[static_cast<std::size_t>(e)] == k &&
            w[static_cast<std::size_t>(e)] == 0) {
          elemAlive[static_cast<std::size_t>(e)] = 0;
          std::vector<Index>().swap(elemVars[static_cast<std::size_t>(e)]);
          continue;
        }
        elemDegree += wEpoch[static_cast<std::size_t>(e)] == k
                          ? w[static_cast<std::size_t>(e)]
                          : static_cast<Index>(
                                elemVars[static_cast<std::size_t>(e)].size());
        ae[eOut++] = e;
      }
      ae.resize(eOut);
      ae.push_back(p);

      Index d = static_cast<Index>(av.size()) + (lpSize - 1) + elemDegree;
      d = std::min(d, degree[static_cast<std::size_t>(i)] + lpSize - 1);
      d = std::min(d, n - k - 1);
      d = std::max(d, Index{0});
      if (d != degree[static_cast<std::size_t>(i)]) {
        listRemove(i, degree[static_cast<std::size_t>(i)]);
        listInsert(i, d);
        degree[static_cast<std::size_t>(i)] = d;
      }
      minDeg = std::min(minDeg, d);
    }
  }

  o.inverse.resize(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) o.inverse[o.perm[i]] = i;
  VIADUCT_CHECK(o.isValid());
  return o;
}

Ordering makeOrdering(const CsrMatrix& a, OrderingChoice choice) {
  switch (choice) {
    case OrderingChoice::kNatural:
      return Ordering::identity(a.rows());
    case OrderingChoice::kRcm:
      return reverseCuthillMcKee(a);
    case OrderingChoice::kAmd:
      return approximateMinimumDegree(a);
  }
  VIADUCT_CHECK(false);
  return Ordering::identity(a.rows());
}

CsrMatrix permuteSymmetric(const CsrMatrix& a, const Ordering& ordering) {
  VIADUCT_REQUIRE(a.rows() == a.cols());
  VIADUCT_REQUIRE(ordering.perm.size() == static_cast<std::size_t>(a.rows()));
  TripletMatrix t(a.rows(), a.cols());
  t.reserve(a.nonZeroCount());
  const auto rp = a.rowPointers();
  const auto ci = a.colIndices();
  const auto va = a.values();
  for (Index r = 0; r < a.rows(); ++r) {
    for (Index k = rp[r]; k < rp[r + 1]; ++k) {
      t.add(ordering.inverse[r], ordering.inverse[ci[k]], va[k]);
    }
  }
  return CsrMatrix::fromTriplets(t);
}

std::vector<double> permuteVector(std::span<const double> v,
                                  const Ordering& ordering) {
  VIADUCT_REQUIRE(v.size() == ordering.perm.size());
  std::vector<double> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = v[ordering.perm[i]];
  return out;
}

std::vector<double> unpermuteVector(std::span<const double> v,
                                    const Ordering& ordering) {
  VIADUCT_REQUIRE(v.size() == ordering.perm.size());
  std::vector<double> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[ordering.perm[i]] = v[i];
  return out;
}

Index bandwidth(const CsrMatrix& a) {
  Index bw = 0;
  const auto rp = a.rowPointers();
  const auto ci = a.colIndices();
  for (Index r = 0; r < a.rows(); ++r)
    for (Index k = rp[r]; k < rp[r + 1]; ++k)
      bw = std::max(bw, std::abs(r - ci[k]));
  return bw;
}

}  // namespace viaduct
