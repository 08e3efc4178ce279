#include "core/rng.h"

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace ips {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_different = false;
  for (int i = 0; i < 50; ++i) {
    if (a.UniformInt(0, 1 << 30) != b.UniformInt(0, 1 << 30)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(7);
  EXPECT_EQ(rng.UniformInt(3, 3), 3);
}

TEST(RngTest, IndexCoversAllValues) {
  Rng rng(7);
  std::set<size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Index(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformRealInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyCorrect) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(1.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(SampleWithoutReplacementTest, DistinctAndInRange) {
  Rng rng(5);
  const auto sample = rng.SampleWithoutReplacement(20, 10);
  ASSERT_EQ(sample.size(), 10u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (size_t v : sample) EXPECT_LT(v, 20u);
}

TEST(SampleWithoutReplacementTest, FullSampleIsPermutation) {
  Rng rng(5);
  auto sample = rng.SampleWithoutReplacement(8, 8);
  std::sort(sample.begin(), sample.end());
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(sample[i], i);
}

TEST(SampleWithoutReplacementTest, EmptySample) {
  Rng rng(5);
  EXPECT_TRUE(rng.SampleWithoutReplacement(4, 0).empty());
}

TEST(SampleWithReplacementTest, InRange) {
  Rng rng(6);
  for (size_t v : rng.SampleWithReplacement(3, 50)) EXPECT_LT(v, 3u);
}

TEST(ShuffleTest, PreservesMultiset) {
  Rng rng(8);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled(v);
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Mt19937_64Test, MatchesStdMt19937_64) {
  for (const uint64_t seed : {uint64_t{0}, uint64_t{42}, ~uint64_t{0}}) {
    Mt19937_64 block(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 10000; ++i) {
      ASSERT_EQ(block(), reference()) << "seed " << seed << ", output " << i;
    }
  }
}

#ifdef __GLIBCXX__
// Uniform and Gaussian are libstdc++'s uniform_real_distribution and
// normal_distribution written out; a fresh distribution per call over the
// same engine must give the same bits.
TEST(RngStreamTest, MatchesLibstdcxxDistributions) {
  Rng rng(2024);
  std::mt19937_64 reference(2024);
  const double params[][2] = {
      {0.0, 1.0}, {-3.5, 2.25}, {1e-3, 7.0}, {-1e6, 1e6}, {0.25, 0.25}};
  for (int i = 0; i < 1000000; ++i) {
    const double a = params[i % 5][0];
    const double b = params[(i / 5) % 5][1];
    if (i % 3 == 0) {
      const double want =
          std::uniform_real_distribution<double>(std::min(a, b),
                                                 std::max(a, b))(reference);
      ASSERT_EQ(rng.Uniform(std::min(a, b), std::max(a, b)), want) << i;
    } else {
      const double want = std::normal_distribution<double>(a, b)(reference);
      ASSERT_EQ(rng.Gaussian(a, b), want) << i;
    }
  }
}
#endif

// FillGaussian(n) equals n successive Gaussian calls and leaves the stream
// where they do, from a block start and from odd and even positions inside
// a block (one uniform draw consumes one engine word).
TEST(RngStreamTest, FillGaussianMatchesSequentialCalls) {
  for (const size_t n : {0, 1, 2, 311, 312, 313, 1000}) {
    for (const int lead : {0, 1, 2, 311, 623}) {
      Rng batched(77 + n), sequential(77 + n);
      for (int i = 0; i < lead; ++i) {
        batched.Uniform();
        sequential.Uniform();
      }
      std::vector<double> got(n);
      batched.FillGaussian(got, 0.5, 1.75);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], sequential.Gaussian(0.5, 1.75))
            << "n " << n << ", lead " << lead << ", value " << i;
      }
      EXPECT_EQ(batched.Uniform(), sequential.Uniform())
          << "n " << n << ", lead " << lead;
    }
  }
}

}  // namespace
}  // namespace ips
