// Tests for common utilities: RNG, env, strings, errors.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace tsnn {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    acc += rng.uniform();
  }
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 4.0);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 4.0);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform_index(0), InvalidArgument);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(13);
  const int n = 50000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(17);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += rng.normal(3.0, 0.5);
  }
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, NormalRejectsNegativeStddev) {
  Rng rng(1);
  EXPECT_THROW(rng.normal(0.0, -1.0), InvalidArgument);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(19);
  const int n = 50000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
  EXPECT_THROW(rng.bernoulli(1.5), InvalidArgument);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(29);
  Rng child = parent.split();
  // Child continues to produce values not identical to the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForStreamIsPureFunctionOfPair) {
  Rng a = Rng::for_stream(0xBEEF, 12);
  Rng b = Rng::for_stream(0xBEEF, 12);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, ForStreamNeighbouringIndicesDecorrelated) {
  Rng a = Rng::for_stream(0xBEEF, 0);
  Rng b = Rng::for_stream(0xBEEF, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForStreamDistinctBaseSeedsDecorrelated) {
  Rng a = Rng::for_stream(1, 5);
  Rng b = Rng::for_stream(2, 5);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

// discard_normals(n) must leave the stream exactly where n normal() calls
// leave it: the cache flag, the cached value's bits, and the next raw draw.
// Odd n ends on a cached sine, even n on an empty cache (or the reverse
// when a normal was cached going in).
TEST(Rng, DiscardNormalsMatchesNormalCalls) {
  for (const std::size_t n : {0u, 1u, 2u, 3u, 7u, 768u, 769u}) {
    for (const bool precached : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const std::string where = "n " + std::to_string(n) + " seed " +
                                  std::to_string(seed) +
                                  (precached ? " precached" : "");
        Rng got(seed);
        Rng want(seed);
        if (precached) {
          got.normal();
          want.normal();
        }
        got.discard_normals(n);
        for (std::size_t i = 0; i < n; ++i) {
          want.normal();
        }
        double z_got = 0.0;
        double z_want = 0.0;
        const bool cached_got = got.take_cached_normal(z_got);
        const bool cached_want = want.take_cached_normal(z_want);
        ASSERT_EQ(cached_got, cached_want) << where;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(z_got),
                  std::bit_cast<std::uint64_t>(z_want))
            << where;
        EXPECT_EQ(got(), want()) << where;
      }
    }
  }
}

/// what() of the InvalidArgument `f` throws ("" when it does not throw).
template <typename F>
std::string invalid_argument_of(F&& f) {
  try {
    f();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(Rng, KeepMaskMatchesBernoulliCalls) {
  // Each byte is !bernoulli(p) on a twin generator, and both generators
  // stand at the same raw draw afterwards. Besides the fixed p, each seed
  // puts p on its own first uniform, k * 2^-53, and one ulp to each side,
  // so the first draw sits exactly on the keep/drop boundary.
  std::vector<double> fixed = {0.0, 0x1.0p-53, 0.2, 0.5, 0.8,
                               1.0 - 0x1.0p-53, 1.0};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng probe(seed);
    const double k = static_cast<double>(probe() >> 11);
    std::vector<double> ps = fixed;
    for (const double kk : {k, 1.0, 0x1.0p52, 0x1.0p53 - 1.0}) {
      const double p = kk * 0x1.0p-53;
      ps.push_back(p);
      ps.push_back(std::nextafter(p, 0.0));
      ps.push_back(std::nextafter(p, 1.0));
    }
    for (const double p : ps) {
      for (const std::size_t n : {0u, 1u, 7u, 4001u}) {
        const std::string where = "p " + std::to_string(p) + " n " +
                                  std::to_string(n) + " seed " +
                                  std::to_string(seed);
        Rng got(seed);
        Rng want(seed);
        std::vector<std::uint8_t> keep(n, 2);
        got.keep_mask(p, n, keep.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(keep[i], want.bernoulli(p) ? 0 : 1) << where << " i " << i;
        }
        EXPECT_EQ(got(), want()) << where;
      }
    }
  }
  // A p outside [0, 1], or NaN, throws bernoulli's message before any draw.
  for (const double p : {-0.25, -0x1.0p-1074, std::nextafter(1.0, 2.0), 1.5,
                         std::nan("")}) {
    Rng got(7);
    Rng want(7);
    std::uint8_t keep[3] = {5, 5, 5};
    const std::string message =
        invalid_argument_of([&] { got.keep_mask(p, 3, keep); });
    EXPECT_FALSE(message.empty()) << p;
    EXPECT_EQ(message, invalid_argument_of([&] { want.bernoulli(p); })) << p;
    EXPECT_EQ(keep[0], 5) << p;
    EXPECT_EQ(got(), want()) << p;
  }
}

TEST(Env, StringFallback) {
  unsetenv("TSNN_TEST_VAR");
  EXPECT_EQ(env::get_string("TSNN_TEST_VAR", "dflt"), "dflt");
  setenv("TSNN_TEST_VAR", "value", 1);
  EXPECT_EQ(env::get_string("TSNN_TEST_VAR", "dflt"), "value");
  unsetenv("TSNN_TEST_VAR");
}

TEST(Env, IntParsing) {
  setenv("TSNN_TEST_INT", "123", 1);
  EXPECT_EQ(env::get_int("TSNN_TEST_INT", 0), 123);
  setenv("TSNN_TEST_INT", "not-a-number", 1);
  EXPECT_EQ(env::get_int("TSNN_TEST_INT", 7), 7);
  unsetenv("TSNN_TEST_INT");
}

TEST(Env, DoubleParsing) {
  setenv("TSNN_TEST_DBL", "2.75", 1);
  EXPECT_DOUBLE_EQ(env::get_double("TSNN_TEST_DBL", 0.0), 2.75);
  unsetenv("TSNN_TEST_DBL");
  EXPECT_DOUBLE_EQ(env::get_double("TSNN_TEST_DBL", 1.5), 1.5);
}

TEST(Env, BoolParsing) {
  setenv("TSNN_TEST_BOOL", "1", 1);
  EXPECT_TRUE(env::get_bool("TSNN_TEST_BOOL", false));
  setenv("TSNN_TEST_BOOL", "off", 1);
  EXPECT_FALSE(env::get_bool("TSNN_TEST_BOOL", true));
  unsetenv("TSNN_TEST_BOOL");
  EXPECT_TRUE(env::get_bool("TSNN_TEST_BOOL", true));
}

TEST(StringUtil, SplitAndJoin) {
  const auto parts = str::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(str::join({"x", "y", "z"}, "-"), "x-y-z");
  EXPECT_EQ(str::join({}, "-"), "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(str::trim("  hello \t\n"), "hello");
  EXPECT_EQ(str::trim(""), "");
  EXPECT_EQ(str::trim("   "), "");
  EXPECT_EQ(str::trim("x"), "x");
}

TEST(StringUtil, SciFormatsLikePaperTables) {
  EXPECT_EQ(str::sci(94800.0), "9.48E4");
  EXPECT_EQ(str::sci(3050.0), "3.05E3");
  EXPECT_EQ(str::sci(0.0), "0");
  EXPECT_EQ(str::sci(1.71e7), "1.71E7");
}

TEST(StringUtil, FormatFixed) {
  EXPECT_EQ(str::format_fixed(99.185, 2), "99.19");  // rounds
  EXPECT_EQ(str::format_fixed(1.0, 0), "1");
}

TEST(StringUtil, StartsEndsWith) {
  EXPECT_TRUE(str::starts_with("ttas(5)+WS", "ttas"));
  EXPECT_FALSE(str::starts_with("x", "xy"));
  EXPECT_TRUE(str::ends_with("ttas(5)+WS", "+WS"));
  EXPECT_FALSE(str::ends_with("a", "ab"));
}

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    TSNN_CHECK_MSG(1 == 2, "context " << 42);
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("context 42"), std::string::npos);
  }
}

TEST(Error, ShapeCheckThrowsShapeError) {
  EXPECT_THROW(TSNN_CHECK_SHAPE(false, "bad shape"), ShapeError);
}

TEST(Error, HierarchyRootsAtError) {
  try {
    throw IoError("io");
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "io");
  }
}

}  // namespace
}  // namespace tsnn
