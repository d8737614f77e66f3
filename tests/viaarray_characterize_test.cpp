#include "viaarray/characterize.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "common/units.h"

namespace viaduct {
namespace {

/// Shared coarse spec (0.25 µm voxels, few trials) to keep tests fast; one
/// library instance memoizes across all tests in this binary.
ViaArrayLibrary& sharedLibrary() {
  static ViaArrayLibrary lib;
  return lib;
}

ViaArrayCharacterizationSpec fastSpec(int n = 4) {
  ViaArrayCharacterizationSpec spec;
  spec.array.n = n;
  spec.resolutionXy = 0.25e-6;
  spec.margin = 1.0e-6;
  spec.trials = 80;
  spec.seed = 42;
  return spec;
}

TEST(FailureCriterion, Describe) {
  EXPECT_EQ(ViaArrayFailureCriterion::weakestLink().describe(),
            "weakest-link");
  EXPECT_EQ(ViaArrayFailureCriterion::kthVia(8).describe(), "via #8");
  EXPECT_EQ(ViaArrayFailureCriterion::resistanceRatio(2.0).describe(),
            "R=2x");
  EXPECT_EQ(ViaArrayFailureCriterion::openCircuit().describe(), "R=inf");
}

TEST(FailureCriterion, Validation) {
  EXPECT_THROW(ViaArrayFailureCriterion::kthVia(0), PreconditionError);
  EXPECT_THROW(ViaArrayFailureCriterion::resistanceRatio(1.0),
               PreconditionError);
}

TEST(CharacterizationSpec, CacheKeyDistinguishesConfigs) {
  const auto a = fastSpec(4);
  auto b = fastSpec(4);
  EXPECT_EQ(a.cacheKey(), b.cacheKey());
  b.pattern = IntersectionPattern::kT;
  EXPECT_NE(a.cacheKey(), b.cacheKey());
  auto c = fastSpec(8);
  EXPECT_NE(a.cacheKey(), c.cacheKey());
  auto d = fastSpec(4);
  d.em.diffusivityPrefactor *= 2.0;
  EXPECT_NE(a.cacheKey(), d.cacheKey());
}

// Regression: cacheKey() used to format doubles at precision(12), so specs
// differing only past the 12th significant digit aliased to the same key
// and silently shared a characterization.
TEST(CharacterizationSpec, CacheKeyResolvesFullDoublePrecision) {
  const auto a = fastSpec(4);
  auto b = fastSpec(4);
  b.wireWidth = a.wireWidth * (1.0 + 1e-14);  // invisible at 12 digits
  ASSERT_NE(a.wireWidth, b.wireWidth);
  EXPECT_NE(a.cacheKey(), b.cacheKey());
  // The format tag was bumped alongside the precision fix so caches written
  // under the old scheme are invalidated rather than reinterpreted.
  EXPECT_NE(a.cacheKey().find(";key=p17"), std::string::npos);
}

TEST(CharacterizationSpec, TotalCurrentFromDensity) {
  const auto spec = fastSpec();
  EXPECT_NEAR(spec.totalCurrent(), 1e10 * 1e-12, 1e-15);  // 10 mA
}

TEST(Characterizer, SigmaTPerViaInPaperWindow) {
  auto ch = sharedLibrary().get(fastSpec());
  const auto& sigma = ch->sigmaT();
  ASSERT_EQ(sigma.size(), 16u);
  for (double s : sigma) {
    EXPECT_GT(s, 120e6);
    EXPECT_LT(s, 320e6);
  }
  // Calibration is affine in the raw stress.
  for (std::size_t i = 0; i < sigma.size(); ++i)
    EXPECT_NEAR(sigma[i],
                kDefaultStressScale * ch->rawSigmaT()[i] +
                    kDefaultStressOffsetPa,
                1.0);
}

TEST(Characterizer, TracesHaveFullFailureSequences) {
  auto ch = sharedLibrary().get(fastSpec());
  const auto& traces = ch->traces();
  ASSERT_EQ(traces.size(), 80u);
  for (const auto& t : traces) {
    ASSERT_EQ(t.failureTimes.size(), 16u);
    ASSERT_EQ(t.resistanceAfter.size(), 16u);
    // Times are nondecreasing; resistances increase; last is open.
    for (std::size_t m = 1; m < t.failureTimes.size(); ++m) {
      EXPECT_GE(t.failureTimes[m], t.failureTimes[m - 1]);
      if (m + 1 < t.resistanceAfter.size()) {
        EXPECT_GT(t.resistanceAfter[m], t.resistanceAfter[m - 1]);
      }
    }
    EXPECT_TRUE(std::isinf(t.resistanceAfter.back()));
  }
}

TEST(Characterizer, CriterionOrderingIsStochasticallyMonotone) {
  auto ch = sharedLibrary().get(fastSpec());
  using C = ViaArrayFailureCriterion;
  const auto first = ch->ttfCdf(C::weakestLink());
  const auto eighth = ch->ttfCdf(C::kthVia(8));
  const auto open = ch->ttfCdf(C::openCircuit());
  EXPECT_LT(first.median(), eighth.median());
  EXPECT_LT(eighth.median(), open.median());
  EXPECT_LE(first.worstCase(), open.worstCase());
}

TEST(Characterizer, ResistanceRatioBetweenCountCriteria) {
  auto ch = sharedLibrary().get(fastSpec());
  using C = ViaArrayFailureCriterion;
  // R=2x on 16 vias corresponds to ~8 failures (Eq. 5), so its TTF lies
  // between the 4th-via and open-circuit criteria.
  const double r2 = ch->ttfCdf(C::resistanceRatio(2.0)).median();
  EXPECT_GT(r2, ch->ttfCdf(C::kthVia(4)).median());
  EXPECT_LT(r2, ch->ttfCdf(C::openCircuit()).median());
}

TEST(Characterizer, TtfSamplesAreYearsScale) {
  auto ch = sharedLibrary().get(fastSpec());
  const auto cdf = ch->ttfCdf(ViaArrayFailureCriterion::openCircuit());
  EXPECT_GT(cdf.median(), 0.5 * units::year);
  EXPECT_LT(cdf.median(), 100.0 * units::year);
}

TEST(Characterizer, LognormalFitMatchesSampleBulk) {
  auto ch = sharedLibrary().get(fastSpec());
  const auto crit = ViaArrayFailureCriterion::kthVia(8);
  const Lognormal fit = ch->ttfLognormal(crit);
  const auto cdf = ch->ttfCdf(crit);
  EXPECT_NEAR(fit.median(), cdf.median(), 0.15 * cdf.median());
}

TEST(Characterizer, KthViaOutOfRangeRejected) {
  auto ch = sharedLibrary().get(fastSpec());
  EXPECT_THROW(ch->ttfSamples(ViaArrayFailureCriterion::kthVia(17)),
               PreconditionError);
}

TEST(Characterizer, DeterministicForSeed) {
  auto spec = fastSpec();
  spec.seed = 123;
  spec.trials = 20;
  ViaArrayCharacterizer a(spec), b(spec);
  const auto sa = a.ttfSamples(ViaArrayFailureCriterion::openCircuit());
  const auto sb = b.ttfSamples(ViaArrayFailureCriterion::openCircuit());
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_DOUBLE_EQ(sa[i], sb[i]);
}

TEST(Characterizer, BitIdenticalAcrossThreadCounts) {
  // Both the FEA stress extraction and the per-trial counter-based RNG
  // streams are thread-count invariant, so the full characterization —
  // sigma_T and every TTF sample — must be byte-for-byte identical
  // between a serial and a parallel run.
  auto spec = fastSpec();
  spec.seed = 31;
  spec.trials = 24;
  spec.parallelism.threads = 1;
  ViaArrayCharacterizer serial(spec);
  const auto crit = ViaArrayFailureCriterion::openCircuit();
  const auto sa = serial.ttfSamples(crit);
  // The incremental network solver must not break this invariant either:
  // the shared base factor is built once (single-threaded, in the
  // constructor) and each trial's downdate sequence depends only on that
  // trial's RNG stream.
  for (const int threads : {4, 8}) {
    spec.parallelism.threads = threads;
    ViaArrayCharacterizer parallel(spec);

    ASSERT_EQ(serial.sigmaT().size(), parallel.sigmaT().size());
    for (std::size_t i = 0; i < serial.sigmaT().size(); ++i)
      EXPECT_EQ(serial.sigmaT()[i], parallel.sigmaT()[i]) << "via " << i;

    const auto sb = parallel.ttfSamples(crit);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i)
      EXPECT_EQ(sa[i], sb[i]) << "trial " << i << " threads " << threads;
  }
}

TEST(Library, MemoizesBySpec) {
  auto& lib = sharedLibrary();
  auto a = lib.get(fastSpec());
  const std::size_t afterFirst = lib.size();
  auto b = lib.get(fastSpec());
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(lib.size(), afterFirst);
}

TEST(Characterizer, RejectsTooFewTrials) {
  auto spec = fastSpec();
  spec.trials = 1;
  EXPECT_THROW(ViaArrayCharacterizer{spec}, PreconditionError);
}

}  // namespace
}  // namespace viaduct
