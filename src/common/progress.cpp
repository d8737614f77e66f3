#include "common/progress.h"

#include <cmath>
#include <cstdio>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace viaduct {

namespace {
std::string fixed1(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

std::string etaString(double seconds) {
  if (!(seconds >= 0.0) || !std::isfinite(seconds)) return "?";
  const auto s = static_cast<std::int64_t>(seconds + 0.5);
  if (s < 120) return std::to_string(s) + "s";
  if (s < 7200) return std::to_string(s / 60) + "m" + std::to_string(s % 60) + "s";
  return std::to_string(s / 3600) + "h" + std::to_string((s % 3600) / 60) + "m";
}
}  // namespace

ProgressReporter::ProgressReporter(std::string label, std::int64_t totalTrials,
                                   Options options)
    : label_(std::move(label)),
      total_(totalTrials),
      options_(std::move(options)),
      startNs_(obs::nowNs()) {
  nextReportAt_.store(options_.reportEverySeconds, std::memory_order_relaxed);
}

ProgressReporter::~ProgressReporter() { reportNow(); }

double ProgressReporter::elapsedSeconds() const {
  return static_cast<double>(obs::nowNs() - startNs_) * 1e-9;
}

void ProgressReporter::seedCompleted(std::int64_t alreadyDone) {
  if (alreadyDone <= 0) return;
  completed_.fetch_add(alreadyDone, std::memory_order_relaxed);
  lastReportCompleted_.fetch_add(alreadyDone, std::memory_order_relaxed);
}

void ProgressReporter::trialDone(std::int64_t discarded, std::int64_t salvaged) {
  if (discarded > 0) discarded_.fetch_add(discarded, std::memory_order_relaxed);
  if (salvaged > 0) salvaged_.fetch_add(salvaged, std::memory_order_relaxed);
  completed_.fetch_add(1, std::memory_order_relaxed);

  // Rate-limited slow path: the worker that crosses the interval boundary
  // claims the emission slot with one CAS; everyone else pays two relaxed
  // atomics and returns.
  const double now = elapsedSeconds();
  double due = nextReportAt_.load(std::memory_order_relaxed);
  if (now < due) return;
  if (!nextReportAt_.compare_exchange_strong(
          due, now + options_.reportEverySeconds, std::memory_order_relaxed))
    return;
  report(now, /*force=*/false);
}

void ProgressReporter::reportNow() { report(elapsedSeconds(), /*force=*/true); }

void ProgressReporter::report(double nowSeconds, bool force) {
  const std::int64_t done = completed_.load(std::memory_order_relaxed);
  const std::int64_t discarded = discarded_.load(std::memory_order_relaxed);
  const std::int64_t salvaged = salvaged_.load(std::memory_order_relaxed);

  const double lastAt = lastReportAt_.exchange(nowSeconds,
                                               std::memory_order_relaxed);
  const std::int64_t lastDone =
      lastReportCompleted_.exchange(done, std::memory_order_relaxed);
  const double dt = nowSeconds - lastAt;
  double rate = ewmaRate_.load(std::memory_order_relaxed);
  if (dt > 1e-9 && done > lastDone) {
    const double instant = static_cast<double>(done - lastDone) / dt;
    rate = rate <= 0.0 ? instant
                       : rate + options_.ewmaAlpha * (instant - rate);
    ewmaRate_.store(rate, std::memory_order_relaxed);
  }

  const bool haveTotal = total_ > 0;
  const double fraction =
      haveTotal ? static_cast<double>(done) / static_cast<double>(total_) : 0.0;
  const double remaining =
      haveTotal ? static_cast<double>(total_ - done) : 0.0;
  const double eta = (haveTotal && rate > 0.0) ? remaining / rate
                                               : std::nan("");

  double checkpointAge = std::nan("");
  if (options_.checkpointAgeSeconds)
    checkpointAge = options_.checkpointAgeSeconds();

  if (obs::enabled()) {
    auto& reg = obs::Registry::instance();
    reg.gauge(label_ + ".trials_completed").set(static_cast<double>(done));
    reg.gauge(label_ + ".trials_discarded").set(static_cast<double>(discarded));
    reg.gauge(label_ + ".trials_salvaged").set(static_cast<double>(salvaged));
    reg.gauge(label_ + ".trials_per_second_ewma").set(rate);
    if (haveTotal) {
      reg.gauge(label_ + ".fraction_done").set(fraction);
      reg.gauge(label_ + ".eta_seconds").set(eta);
    }
    if (options_.checkpointAgeSeconds)
      reg.gauge(label_ + ".checkpoint_age_seconds").set(checkpointAge);
  }

  // Skip the final forced line when nothing ran (e.g. a resumed loop with
  // zero outstanding trials) so quiet tools stay quiet.
  if (force && done == 0) return;

  std::string msg = label_ + ": " + std::to_string(done);
  if (haveTotal) {
    msg += '/';
    msg += std::to_string(total_);
    msg += " trials (" + fixed1(fraction * 100.0) + "%)";
  } else {
    msg += " trials";
  }
  msg += ", " + fixed1(rate) + " trials/s";
  if (haveTotal && done < total_) msg += ", ETA " + etaString(eta);
  if (discarded > 0) msg += ", discarded " + std::to_string(discarded);
  if (salvaged > 0) msg += ", salvaged " + std::to_string(salvaged);
  if (std::isfinite(checkpointAge) && checkpointAge >= 0.0)
    msg += ", checkpoint age " + fixed1(checkpointAge) + "s";
  if (force && haveTotal && done >= total_)
    msg += ", done in " + etaString(nowSeconds);
  VIADUCT_INFO << msg;
}

}  // namespace viaduct
