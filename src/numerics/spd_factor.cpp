#include "numerics/spd_factor.h"

#include "common/check.h"
#include "numerics/cholesky.h"
#include "numerics/supernodal_cholesky.h"

namespace viaduct {

std::vector<double> SpdFactor::solveIncidence(Index i, Index j) const {
  VIADUCT_REQUIRE(i != j && i >= -1 && j >= -1 && i < size() && j < size());
  std::vector<double> a(static_cast<std::size_t>(size()), 0.0);
  if (i >= 0) a[static_cast<std::size_t>(i)] = 1.0;
  if (j >= 0) a[static_cast<std::size_t>(j)] = -1.0;
  return solve(a);
}

std::unique_ptr<SpdFactor> buildSpdFactor(const CsrMatrix& a,
                                          SpdSolverKind kind,
                                          OrderingChoice ordering,
                                          ThreadPool* pool) {
  switch (kind) {
    case SpdSolverKind::kUplooking:
      return std::make_unique<SparseCholesky>(a, ordering);
    case SpdSolverKind::kSupernodal:
      return std::make_unique<SupernodalCholesky>(a, ordering, pool);
  }
  VIADUCT_CHECK(false);
  return nullptr;
}

std::string_view spdSolverKindName(SpdSolverKind kind) {
  switch (kind) {
    case SpdSolverKind::kUplooking:
      return "uplooking";
    case SpdSolverKind::kSupernodal:
      return "supernodal";
  }
  return "?";
}

std::string_view orderingChoiceName(OrderingChoice choice) {
  switch (choice) {
    case OrderingChoice::kNatural:
      return "natural";
    case OrderingChoice::kRcm:
      return "rcm";
    case OrderingChoice::kAmd:
      return "amd";
  }
  return "?";
}

SpdSolverKind parseSpdSolverKind(std::string_view name) {
  if (name == "uplooking") return SpdSolverKind::kUplooking;
  if (name == "supernodal") return SpdSolverKind::kSupernodal;
  throw ParseError("unknown solver kind '" + std::string(name) +
                   "' (expected uplooking|supernodal)");
}

OrderingChoice parseOrderingChoice(std::string_view name) {
  if (name == "natural") return OrderingChoice::kNatural;
  if (name == "rcm") return OrderingChoice::kRcm;
  if (name == "amd") return OrderingChoice::kAmd;
  throw ParseError("unknown ordering '" + std::string(name) +
                   "' (expected natural|rcm|amd)");
}

}  // namespace viaduct
