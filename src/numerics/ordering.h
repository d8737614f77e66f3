// Fill-reducing / bandwidth-reducing orderings for sparse factorization.
// Reverse Cuthill–McKee is simple and effective on the mesh-like graphs of
// power grids and voxel FEA systems.
#pragma once

#include <vector>

#include "numerics/sparse.h"

namespace viaduct {

/// Permutation pair. `perm[newIndex] = oldIndex`, `inverse[oldIndex] = new`.
struct Ordering {
  std::vector<Index> perm;
  std::vector<Index> inverse;

  static Ordering identity(Index n);
  bool isValid() const;
};

/// Fill-reducing ordering selection shared by every sparse SPD factorization
/// (SparseCholesky, SupernodalCholesky, the Woodbury engine and the grid
/// model config). kAmd is the only choice that stays practical at
/// million-node meshes; kRcm remains the default for the small stamped
/// systems because its banded factors favor the up-looking solver.
enum class OrderingChoice { kNatural, kRcm, kAmd };

/// Builds the ordering named by `choice` for the symmetric structure of `a`.
Ordering makeOrdering(const CsrMatrix& a, OrderingChoice choice);

/// Reverse Cuthill–McKee on the symmetric structure of `a` (structure of
/// A + Aᵀ is assumed symmetric, which holds for all viaduct systems).
Ordering reverseCuthillMcKee(const CsrMatrix& a);

/// Approximate minimum degree (Amestoy–Davis–Duff style). Quotient-graph
/// elimination with element absorption and the approximate external-degree
/// bound, entirely array/vector based — near-linear in nnz in practice and
/// the only ordering here that handles 10^6-node grids in seconds. Fill on
/// mesh-like graphs is close to nested dissection, far below RCM.
Ordering approximateMinimumDegree(const CsrMatrix& a);

/// Applies an ordering: B = P A Pᵀ (rows and columns permuted).
CsrMatrix permuteSymmetric(const CsrMatrix& a, const Ordering& ordering);

/// Permutes a vector: out[new] = in[perm[new]] (i.e. into the new ordering).
std::vector<double> permuteVector(std::span<const double> v,
                                  const Ordering& ordering);

/// Inverse-permutes a vector back to the original ordering.
std::vector<double> unpermuteVector(std::span<const double> v,
                                    const Ordering& ordering);

/// Matrix bandwidth (max |i - j| over stored entries); ordering quality gauge.
Index bandwidth(const CsrMatrix& a);

}  // namespace viaduct
