#include "viaarray/cache.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/serialize.h"
#include "fea/thermo_solver.h"
#include "viaarray/characterize.h"

namespace viaduct {
namespace {

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("viaduct_cache_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".tbl"))
                .string();
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_;
};

CharacterizationData sampleData(int vias = 4, int trials = 3) {
  CharacterizationData data;
  for (int v = 0; v < vias; ++v) data.rawSigmaT.push_back(2.5e8 + v * 1e6);
  for (int t = 0; t < trials; ++t) {
    FailureTrace trace;
    for (int v = 0; v < vias; ++v) {
      trace.failureTimes.push_back(1e7 * (t + 1) + v * 1e5);
      trace.resistanceAfter.push_back(
          v + 1 == vias ? std::numeric_limits<double>::infinity()
                        : 0.4 * (v + 2));
    }
    data.traces.push_back(std::move(trace));
  }
  return data;
}

TEST_F(CacheTest, MissOnEmptyStore) {
  CharacterizationStore store(path_);
  EXPECT_FALSE(store.load("anything").has_value());
  EXPECT_EQ(store.entryCount(), 0u);
}

TEST_F(CacheTest, SaveAndLoadRoundTrip) {
  CharacterizationStore store(path_);
  const auto data = sampleData();
  store.save("key-a", data);
  const auto loaded = store.load("key-a");
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->rawSigmaT.size(), data.rawSigmaT.size());
  for (std::size_t i = 0; i < data.rawSigmaT.size(); ++i)
    EXPECT_DOUBLE_EQ(loaded->rawSigmaT[i], data.rawSigmaT[i]);
  ASSERT_EQ(loaded->traces.size(), data.traces.size());
  for (std::size_t t = 0; t < data.traces.size(); ++t) {
    for (std::size_t v = 0; v < data.traces[t].failureTimes.size(); ++v) {
      EXPECT_DOUBLE_EQ(loaded->traces[t].failureTimes[v],
                       data.traces[t].failureTimes[v]);
    }
    EXPECT_TRUE(std::isinf(loaded->traces[t].resistanceAfter.back()));
  }
}

TEST_F(CacheTest, MultipleEntriesCoexist) {
  CharacterizationStore store(path_);
  store.save("key-a", sampleData(4));
  store.save("key-b", sampleData(16));
  EXPECT_EQ(store.entryCount(), 2u);
  EXPECT_EQ(store.load("key-a")->rawSigmaT.size(), 4u);
  EXPECT_EQ(store.load("key-b")->rawSigmaT.size(), 16u);
}

TEST_F(CacheTest, SaveReplacesExistingKey) {
  CharacterizationStore store(path_);
  store.save("key", sampleData(4, 2));
  store.save("key", sampleData(4, 5));
  EXPECT_EQ(store.entryCount(), 1u);
  EXPECT_EQ(store.load("key")->traces.size(), 5u);
}

TEST_F(CacheTest, SavePublishesANewFileInsteadOfRewritingTheOldOne) {
  CharacterizationStore store(path_);
  store.save("key-a", sampleData(4, 2));
  std::string before;
  {
    std::ifstream is(path_);
    before.assign(std::istreambuf_iterator<char>(is), {});
  }
  // A reader that opened the store before a save keeps reading the complete
  // old file: the save must replace it, not truncate and refill it.
  std::ifstream reader(path_);
  ASSERT_TRUE(reader.good());
  store.save("key-b", sampleData(16, 3));
  const std::string seen(std::istreambuf_iterator<char>(reader), {});
  EXPECT_EQ(seen, before);
  EXPECT_EQ(store.entryCount(), 2u);
  EXPECT_FALSE(std::filesystem::exists(atomicTempPath(path_)));
}

TEST_F(CacheTest, CorruptFileIsTreatedAsMiss) {
  {
    std::ofstream os(path_);
    os << "not a cache file\ngarbage\n";
  }
  CharacterizationStore store(path_);
  EXPECT_FALSE(store.load("key").has_value());
  // And save still recovers a clean file.
  store.save("key", sampleData());
  EXPECT_TRUE(store.load("key").has_value());
}

TEST_F(CacheTest, RejectsEmptyPayload) {
  CharacterizationStore store(path_);
  EXPECT_THROW(store.save("key", CharacterizationData{}), PreconditionError);
}

TEST_F(CacheTest, LibraryRehydratesFromStore) {
  ViaArrayCharacterizationSpec spec;
  spec.array.n = 2;
  spec.resolutionXy = 0.5e-6;
  spec.margin = 1.0e-6;
  spec.trials = 20;

  auto store = std::make_shared<CharacterizationStore>(path_);
  std::vector<double> samplesA;
  {
    ViaArrayLibrary lib(store);
    auto ch = lib.get(spec);  // computes FEA + MC, persists
    samplesA = ch->ttfSamples(ViaArrayFailureCriterion::openCircuit());
    EXPECT_EQ(store->entryCount(), 1u);
  }
  {
    ViaArrayLibrary lib2(store);  // fresh in-memory cache
    auto ch2 = lib2.get(spec);    // must rehydrate, not recompute
    const auto samplesB =
        ch2->ttfSamples(ViaArrayFailureCriterion::openCircuit());
    ASSERT_EQ(samplesA.size(), samplesB.size());
    for (std::size_t i = 0; i < samplesA.size(); ++i)
      EXPECT_DOUBLE_EQ(samplesA[i], samplesB[i]);
    // Calibrated stress is rederived from raw + spec calibration.
    EXPECT_FALSE(ch2->sigmaT().empty());
  }
}

// Regression: writeDoubles used to emit -inf as "inf" (std::isinf ignores
// the sign), silently flipping negative infinities on round-trip.
TEST(SerializeTest, SignedInfinityRoundTrips) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(formatDoubles({inf}), "inf");
  EXPECT_EQ(formatDoubles({-inf}), "-inf");
  const auto parsed = parseDoubles("inf -inf 1.5");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_TRUE(std::isinf((*parsed)[0]) && (*parsed)[0] > 0);
  EXPECT_TRUE(std::isinf((*parsed)[1]) && (*parsed)[1] < 0);
  EXPECT_DOUBLE_EQ((*parsed)[2], 1.5);
}

TEST(SerializeTest, RoundTripIsExactAtFullPrecision) {
  const std::vector<double> v = {0.1, 1.0 / 3.0, 6.02214076e23,
                                 -2.2250738585072014e-308,
                                 0.059999999999999998};
  const auto parsed = parseDoubles(formatDoubles(v));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_EQ((*parsed)[i], v[i]);  // bit-exact, not just close
}

// Regression: parseDoubles used std::stod, which throws on overflow and
// accepts "nan"/fused junk — corrupt files crashed the loader instead of
// degrading to a miss.
TEST(SerializeTest, CorruptTokensReturnNullopt) {
  const char* corrupt[] = {
      "nan",  "NaN",        "-nan",    "1e999999", "-1e999999",
      "1.5x", "0x10",       "abc",     "1.5 2.5 garbage",
      "1..5", "1e",         "--3",     "infinity", "1.5\x01",
  };
  for (const char* s : corrupt)
    EXPECT_FALSE(parseDoubles(s).has_value()) << "token: " << s;
  // Empty / whitespace-only input is an empty vector, not a failure.
  ASSERT_TRUE(parseDoubles("").has_value());
  EXPECT_TRUE(parseDoubles("")->empty());
  EXPECT_TRUE(parseDoubles(" \t ")->empty());
}

TEST_F(CacheTest, NegativeInfinityRoundTripsThroughStore) {
  CharacterizationStore store(path_);
  auto data = sampleData();
  data.rawSigmaT[0] = -std::numeric_limits<double>::infinity();
  store.save("key", data);
  const auto loaded = store.load("key");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(std::isinf(loaded->rawSigmaT[0]));
  EXPECT_LT(loaded->rawSigmaT[0], 0.0);
}

// Corrupt payload tokens inside an otherwise well-formed store file must be
// a cache miss for that entry — never an exception out of load().
TEST_F(CacheTest, CorruptPayloadTokensAreMisses) {
  const char* badPayloads[] = {"nan 2.5", "1e999999", "2.5 gar bage",
                               "2.5 1.5e"};
  for (const char* bad : badPayloads) {
    {
      std::ofstream os(path_, std::ios::trunc);
      os << "viaduct-characterization-cache v1\n"
         << "entry key\n"
         << "sigma " << bad << "\n"
         << "trace 1e7 | 0.5\n";
    }
    CharacterizationStore store(path_);
    EXPECT_FALSE(store.load("key").has_value()) << "payload: " << bad;
  }
  // A trace line truncated mid-token (crash mid-write: this store predates
  // the checkpoint subsystem's rename protocol) is also a miss.
  {
    std::ofstream os(path_, std::ios::trunc);
    os << "viaduct-characterization-cache v1\n"
       << "entry key\n"
       << "sigma 2.5e8\n"
       << "trace 1e7 2e7 | 0.5 1.2\n"
       << "trace 1e7 2e7 | 0.5 1.2e";  // write died inside the exponent
  }
  CharacterizationStore store(path_);
  EXPECT_FALSE(store.load("key").has_value());
}

TEST_F(CacheTest, RehydrationValidatesShape) {
  ViaArrayCharacterizationSpec spec;
  spec.array.n = 2;
  spec.resolutionXy = 0.5e-6;
  spec.margin = 1.0e-6;
  spec.trials = 20;
  // Wrong via count.
  auto bad = sampleData(/*vias=*/9, /*trials=*/20);
  EXPECT_THROW(ViaArrayCharacterizer(spec, bad), PreconditionError);
  // Wrong trial count.
  auto bad2 = sampleData(/*vias=*/4, /*trials=*/3);
  EXPECT_THROW(ViaArrayCharacterizer(spec, bad2), PreconditionError);
}

TEST(CacheKeys, DefaultSpecKeysArePinned) {
  // Every persisted characterization, checkpoint and primitive-store entry
  // is addressed by these strings: a change to either silently orphans
  // every store written before it, so it must come with a deliberate
  // version bump, never by accident.
  const ViaArrayCharacterizationSpec spec;
  EXPECT_EQ(spec.cacheKey(),
            "n=4;A=9.9999999999999998e-13;sp=0;pat=Plus;"
            "w=1.9999999999999999e-06;m=1.5e-06;res=1.2499999999999999e-07;"
            "j=10000000000;Rarr=0.40000000000000002;sheet=0.02;"
            "Ea=0.84999999999999998;D0=2.7000000000000002e-09;"
            "sD=0.29999999999999999;rho=2.9999999999999997e-08;"
            "B=28000000000;gam=1.7;Rf=1e-08;sRf=0.050000000000000003;"
            "T=378.14999999999998;pkg=0;cal=0.80000000000000004,0;tr=500;"
            "seed=12345;stk=2.9999999999999999e-07,2.4999999999999999e-07,"
            "2.9999999999999999e-07;rng=ctr1;key=p17;solve=inc1;rtol=1e-10;"
            "fea=mg");
  EXPECT_EQ(spec.primitiveKey(),
            "n=4;A=9.9999999999999998e-13;sp=0;pat=Plus;"
            "w=1.9999999999999999e-06;m=1.5e-06;res=1.2499999999999999e-07;"
            "stk=2.9999999999999999e-07,2.4999999999999999e-07,"
            "2.9999999999999999e-07;fea=mg;Ta=350;Top=105;"
            "tol=9.9999999999999995e-08;key=p17v1");
}

TEST(CacheKeys, SolverAndCharacterizationShareTheFeaDefault) {
  // A solver built at its defaults computes the field the default
  // characterization key names ("fea=mg" above), so the two defaults are
  // one.
  EXPECT_EQ(ThermoSolverOptions{}.preconditioner,
            ViaArrayCharacterizationSpec{}.feaPreconditioner);
}

}  // namespace
}  // namespace viaduct
