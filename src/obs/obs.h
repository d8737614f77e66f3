// viaduct::obs — umbrella header and instrumentation macros.
//
// Three gates, cheapest first:
//   compile time  -DVIADUCT_OBS_ENABLED=0 compiles every macro below to
//                 nothing (the library still builds; direct Registry use
//                 keeps working).
//   runtime       obs::setEnabled(false), or environment VIADUCT_OBS=0.
//                 Every macro starts with one relaxed atomic load.
//   tracing       per-event trace collection is a separate opt-in
//                 (obs::setTracingEnabled / --trace-out); the metric
//                 aggregates above it are always maintained while enabled.
//
// Hot-loop cost with obs enabled: one relaxed load (the gate) plus one
// relaxed fetch_add on a cache-line-padded per-thread shard. The handle
// lookup happens once per call site (function-local static).
//
// The live-telemetry surfaces over the same registry live in their own
// headers (they pull in threads and are not for hot loops): obs/export.h
// (OpenMetrics + JSONL rendering), obs/sampler.h (background JSONL
// sampler), obs/solver_health.h (residual-decay trace ring). The HTTP
// scrape endpoint is served by serve/protocol.h (startTelemetryListener).
#pragma once

#include <string>

#include "obs/metrics.h"
#include "obs/span.h"

namespace viaduct::obs {

/// One JSON object with every counter, gauge, histogram, and span
/// aggregate: {"schema": "viaduct-obs-v1", "counters": {...}, ...}.
std::string snapshotJson();

/// Writes snapshotJson() to `path`. Returns false on I/O failure (obs is
/// dependency-free and never throws).
bool writeSnapshot(const std::string& path);

/// Writes traceJson() to `path`. Returns false on I/O failure.
bool writeTrace(const std::string& path);

/// Zeroes all metric values and drops buffered trace events. Registrations
/// and enable flags are untouched. For tests and A/B overhead measurement.
void resetAll();

}  // namespace viaduct::obs

#ifndef VIADUCT_OBS_ENABLED
#define VIADUCT_OBS_ENABLED 1
#endif

#define VIADUCT_OBS_CONCAT2(a, b) a##b
#define VIADUCT_OBS_CONCAT(a, b) VIADUCT_OBS_CONCAT2(a, b)

#if VIADUCT_OBS_ENABLED

/// Adds `delta` to the named counter. `name` must be a string literal.
#define VIADUCT_COUNTER_ADD(name, delta)                             \
  do {                                                               \
    if (::viaduct::obs::enabled()) {                                 \
      static ::viaduct::obs::Counter& vobs_counter =                 \
          ::viaduct::obs::Registry::instance().counter(name);        \
      vobs_counter.add(static_cast<std::uint64_t>(delta));           \
    }                                                                \
  } while (false)

/// Sets the named gauge to `value`.
#define VIADUCT_GAUGE_SET(name, value)                               \
  do {                                                               \
    if (::viaduct::obs::enabled()) {                                 \
      static ::viaduct::obs::Gauge& vobs_gauge =                     \
          ::viaduct::obs::Registry::instance().gauge(name);          \
      vobs_gauge.set(static_cast<double>(value));                    \
    }                                                                \
  } while (false)

/// Observes `value` in the named histogram. `bounds` (any range of
/// doubles, e.g. obs::Buckets::exponential(...)) is evaluated once, at the
/// call site's first enabled execution.
#define VIADUCT_HISTOGRAM_OBSERVE(name, value, bounds)               \
  do {                                                               \
    if (::viaduct::obs::enabled()) {                                 \
      static ::viaduct::obs::Histogram& vobs_histogram =             \
          ::viaduct::obs::Registry::instance().histogram(name,       \
                                                         (bounds));  \
      vobs_histogram.observe(static_cast<double>(value));            \
    }                                                                \
  } while (false)

/// RAII span covering the rest of the enclosing scope.
#define VIADUCT_SPAN(name)                                           \
  ::viaduct::obs::ScopedSpan VIADUCT_OBS_CONCAT(vobs_span_,          \
                                                __LINE__)(name)

#else  // !VIADUCT_OBS_ENABLED

#define VIADUCT_COUNTER_ADD(name, delta) ((void)0)
#define VIADUCT_GAUGE_SET(name, value) ((void)0)
#define VIADUCT_HISTOGRAM_OBSERVE(name, value, bounds) ((void)0)
#define VIADUCT_SPAN(name) ((void)0)

#endif  // VIADUCT_OBS_ENABLED
