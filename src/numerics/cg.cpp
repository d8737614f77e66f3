#include "numerics/cg.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "obs/solver_health.h"

namespace viaduct {

namespace {
/// Records one solve's convergence telemetry: iteration-count histogram
/// (the quantity that makes large-scale EM analysis tunable), running
/// iteration total, and the achieved relative residual on a log scale.
/// Iteration counts are additionally binned by system size class so a
/// dashboard can tell "the big FEA systems got slower" from "many small
/// grid solves": small is n < 10k, medium < 300k, large the rest.
void recordCgTelemetry(const CgResult& result, std::int64_t unknowns) {
  VIADUCT_COUNTER_ADD("cg.solves", 1);
  VIADUCT_COUNTER_ADD("cg.iterations_total", result.iterations);
  VIADUCT_HISTOGRAM_OBSERVE("cg.iterations", result.iterations,
                            obs::Buckets::exponential(1, 2, 16));
  if (unknowns < 10'000) {
    VIADUCT_HISTOGRAM_OBSERVE("cg.iterations.small", result.iterations,
                              obs::Buckets::exponential(1, 2, 16));
  } else if (unknowns < 300'000) {
    VIADUCT_HISTOGRAM_OBSERVE("cg.iterations.medium", result.iterations,
                              obs::Buckets::exponential(1, 2, 16));
  } else {
    VIADUCT_HISTOGRAM_OBSERVE("cg.iterations.large", result.iterations,
                              obs::Buckets::exponential(1, 2, 16));
  }
  VIADUCT_HISTOGRAM_OBSERVE("cg.relative_residual", result.relativeResidual,
                            obs::Buckets::exponential(1e-16, 10, 16));
  if (!result.converged) VIADUCT_COUNTER_ADD("cg.nonconverged", 1);
}

/// Files the solve into the solver-health trace ring (obs/solver_health.h).
/// `residuals` is moved in; empty for solves that never iterated.
void recordCgTrace(const CgResult& result, std::int64_t unknowns,
                   std::vector<float> residuals) {
  obs::SolveTrace trace;
  trace.solver = "cg";
  trace.unknowns = unknowns;
  trace.iterations = result.iterations;
  trace.converged = result.converged;
  trace.relativeResidual = result.relativeResidual;
  trace.residuals = std::move(residuals);
  obs::recordSolveTrace(std::move(trace));
}
}  // namespace

CgResult conjugateGradient(const LinearOperator& a, std::span<const double> b,
                           std::span<double> x, const Preconditioner& m,
                           const CgOptions& options) {
  VIADUCT_SPAN("cg.solve");
  const auto n = static_cast<std::size_t>(a.size());
  VIADUCT_REQUIRE(b.size() == n && x.size() == n);

  // Injection sites mimic the two real CG failure modes exactly, so the
  // recovery ladders downstream cannot tell injected from organic faults.
  if (fault::shouldInject("cg.nan_residual")) {
    throw NumericalError("CG residual is not finite (injected fault)");
  }
  if (fault::shouldInject("cg.nonconverge")) {
    CgResult stalled;
    stalled.iterations = options.maxIterations;
    stalled.converged = false;
    stalled.relativeResidual = 1.0;
    recordCgTelemetry(stalled, static_cast<std::int64_t>(n));
    recordCgTrace(stalled, static_cast<std::int64_t>(n), {});
    if (options.throwOnStall) {
      throw NumericalError("CG failed to converge in " +
                           std::to_string(options.maxIterations) +
                           " iterations (injected fault)");
    }
    return stalled;
  }

  // Every reduction sums in fixed kVectorOpGrain chunks, so the iterate
  // sequence is bit-identical with no pool and for any pool size.
  ThreadPool* const pool = options.pool;

  std::vector<double> r(n), z(n), p(n), ap(n);

  // r = b - A x.
  a.apply(x, r);
  parallelFor(pool, 0, static_cast<std::int64_t>(n), kVectorOpGrain,
              [&](std::int64_t i) {
                r[static_cast<std::size_t>(i)] =
                    b[static_cast<std::size_t>(i)] -
                    r[static_cast<std::size_t>(i)];
              });

  const double bnorm = norm2(b, pool);
  const double target =
      std::max(options.relativeTolerance * bnorm, options.absoluteTolerance);

  CgResult result;
  double rnorm = norm2(r, pool);
  if (rnorm <= target) {
    result.converged = true;
    result.relativeResidual = bnorm > 0.0 ? rnorm / bnorm : 0.0;
    recordCgTelemetry(result, static_cast<std::int64_t>(n));
    recordCgTrace(result, static_cast<std::int64_t>(n), {});
    return result;
  }

  m.apply(r, z);
  std::copy(z.begin(), z.end(), p.begin());
  double rz = dot(r, z, pool);

  // Health telemetry only observes values the solve already computes
  // (rnorm per iteration); it cannot perturb the iterate sequence, so
  // results stay bit-identical with obs on or off.
  const bool traceResiduals = obs::enabled();
  std::vector<float> residualTrace;
  const double rscale = bnorm > 0.0 ? 1.0 / bnorm : 1.0;
  if (traceResiduals) {
    residualTrace.reserve(static_cast<std::size_t>(
        std::min(options.maxIterations, 4096)));
    residualTrace.push_back(static_cast<float>(rnorm * rscale));
  }

  for (int it = 1; it <= options.maxIterations; ++it) {
    a.apply(p, ap);
    const double pap = dot(p, ap, pool);
    if (!(pap > 0.0)) {
      throw NumericalError(
          "CG: matrix is not positive definite (p'Ap <= 0 encountered)");
    }
    const double alpha = rz / pap;
    axpy(alpha, p, x, pool);
    axpy(-alpha, ap, r, pool);
    rnorm = norm2(r, pool);
    if (!std::isfinite(rnorm)) {
      throw NumericalError("CG residual is not finite at iteration " +
                           std::to_string(it));
    }
    result.iterations = it;
    if (traceResiduals) {
      if (residualTrace.size() < residualTrace.capacity())
        residualTrace.push_back(static_cast<float>(rnorm * rscale));
      // Live progress for long solves: cheap enough (two relaxed stores
      // every 256 iterations) that a scrape mid-solve shows where CG is.
      if ((it & 255) == 0) {
        VIADUCT_GAUGE_SET("cg.inflight_iteration", it);
        VIADUCT_GAUGE_SET("cg.inflight_relative_residual", rnorm * rscale);
      }
    }
    if (rnorm <= target) {
      result.converged = true;
      break;
    }
    m.apply(r, z);
    const double rzNew = dot(r, z, pool);
    const double beta = rzNew / rz;
    rz = rzNew;
    parallelFor(pool, 0, static_cast<std::int64_t>(n), kVectorOpGrain,
                [&](std::int64_t i) {
                  p[static_cast<std::size_t>(i)] =
                      z[static_cast<std::size_t>(i)] +
                      beta * p[static_cast<std::size_t>(i)];
                });
  }

  result.relativeResidual = bnorm > 0.0 ? rnorm / bnorm : rnorm;
  recordCgTelemetry(result, static_cast<std::int64_t>(n));
  if (!result.converged) {
    const std::string decay = obs::describeResidualDecay(residualTrace);
    recordCgTrace(result, static_cast<std::int64_t>(n),
                  std::move(residualTrace));
    if (options.throwOnStall) {
      throw NumericalError("CG failed to converge in " +
                           std::to_string(options.maxIterations) +
                           " iterations (rel. residual " +
                           std::to_string(result.relativeResidual) + ")");
    }
    VIADUCT_WARN << "CG did not converge in " << options.maxIterations
                 << " iterations (rel. residual " << result.relativeResidual
                 << ", decay " << decay << "); returning best iterate";
  } else {
    recordCgTrace(result, static_cast<std::int64_t>(n),
                  std::move(residualTrace));
  }
  return result;
}

CgResult conjugateGradient(const CsrMatrix& a, std::span<const double> b,
                           std::span<double> x, const Preconditioner& m,
                           const CgOptions& options) {
  VIADUCT_REQUIRE(a.rows() == a.cols());
  const CsrOperator op(a, options.pool);
  return conjugateGradient(op, b, x, m, options);
}

std::vector<double> solveCgJacobi(const CsrMatrix& a, std::span<const double> b,
                                  const CgOptions& options) {
  std::vector<double> x(b.size(), 0.0);
  const JacobiPreconditioner m(a);
  conjugateGradient(a, b, x, m, options);
  return x;
}

}  // namespace viaduct
