// viaduct::fault — failure policy.
//
// One plain-data knob bundle describing how the pipeline reacts when a
// solver, cache, or trial fails (injected via fault.h or organically).
// Threaded through ThermoSolverOptions, WoodburySolver::Options,
// PowerGridConfig, GridMcOptions, ViaArrayCharacterizationSpec, and
// AnalyzerConfig; see DESIGN.md §5.7 for the recovery ladder each consumer
// implements.
#pragma once

namespace viaduct::fault {

struct FailurePolicy {
  /// Master switch. Disabled, every consumer falls back to fail-fast:
  /// solver errors propagate and MC trials abort the run.
  bool enabled = true;

  /// FEA CG recovery ladder (ThermoSolver::solve): up to this many
  /// retries, each with the relative tolerance multiplied by
  /// `retryToleranceTighten` (< 1: the retry must beat a *stricter*
  /// target, so an accepted retry is at least as accurate as a clean first
  /// pass) and the iteration cap multiplied by `retryIterationGrowth`.
  /// Every retry restarts from a zero guess, so a stalled or NaN-poisoned
  /// iterate never warm-starts it.
  int cgRetries = 1;
  double retryToleranceTighten = 0.1;
  double retryIterationGrowth = 2.0;

  /// When a Woodbury low-rank update or an incrementally-updated solve
  /// fails, fold the accumulated updates into the base matrix and
  /// re-factorize instead of failing (the updated matrix is always kept
  /// numerically current, so a full re-factorization is always available).
  bool refactorOnWoodburyFailure = true;

  /// When a persisted characterization entry fails validation on load,
  /// recompute the characterization and rewrite the entry instead of
  /// failing.
  bool recomputeOnCacheCorruption = true;

  /// What both MC levels do with a trial whose solve chain failed beyond
  /// the recovery options above:
  ///   kAbort   — rethrow; the whole run fails (also the behavior when the
  ///              policy is disabled).
  ///   kDiscard — drop the trial; it is counted (obs + result fields) and
  ///              excluded from the TTF statistics.
  ///   kSalvage — keep the trial's progress up to the failure (grid MC: the
  ///              accumulated time; characterization: the partial trace).
  enum class TrialPolicy { kAbort, kDiscard, kSalvage };
  TrialPolicy trialPolicy = TrialPolicy::kDiscard;

  static FailurePolicy disabled() {
    FailurePolicy policy;
    policy.enabled = false;
    return policy;
  }
};

}  // namespace viaduct::fault
