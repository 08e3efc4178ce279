#include "matrix_profile/matrix_profile.h"

#include <cmath>

#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "core/rng.h"
#include "core/znorm.h"

namespace ips {
namespace {

// Brute-force self-join reference: z-normalised distance between every
// window pair outside the exclusion zone. Like the kernels it keeps the
// smallest squared distance (the earliest among equal squares) and roots
// each entry once at the end.
MatrixProfile BruteSelfJoin(const std::vector<double>& s, size_t w,
                            size_t exclusion) {
  const size_t l = s.size() - w + 1;
  MatrixProfile mp;
  mp.values.assign(l, std::numeric_limits<double>::infinity());
  mp.indices.assign(l, kNoNeighbor);
  for (size_t i = 0; i < l; ++i) {
    const std::vector<double> wi =
        ZNormalize(std::span<const double>(s).subspan(i, w));
    for (size_t j = 0; j < l; ++j) {
      const size_t gap = i > j ? i - j : j - i;
      if (gap <= exclusion) continue;
      const std::vector<double> wj =
          ZNormalize(std::span<const double>(s).subspan(j, w));
      const double d2 = SquaredEuclidean(wi, wj);
      if (d2 < mp.values[i]) {
        mp.values[i] = d2;
        mp.indices[i] = j;
      }
    }
  }
  for (double& v : mp.values) v = std::sqrt(v);
  return mp;
}

TEST(SelfJoinProfileTest, MatchesBruteForce) {
  Rng rng(1);
  std::vector<double> s(80);
  for (auto& v : s) v = rng.Gaussian();
  const size_t w = 8;
  const size_t excl = DefaultExclusionZone(w);
  const MatrixProfile fast = SelfJoinProfile(s, w);
  const MatrixProfile brute = BruteSelfJoin(s, w, excl);
  ASSERT_EQ(fast.size(), brute.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast.values[i], brute.values[i], 1e-6) << "position " << i;
  }
}

TEST(SelfJoinProfileTest, PlantedMotifHasSmallestProfile) {
  Rng rng(2);
  std::vector<double> s(200);
  for (auto& v : s) v = rng.Gaussian(0.0, 0.3);
  // Plant the same pattern at positions 20 and 150.
  for (size_t i = 0; i < 16; ++i) {
    const double pattern =
        std::sin(2.0 * 3.14159 * static_cast<double>(i) / 8.0) * 3.0;
    s[20 + i] += pattern;
    s[150 + i] += pattern;
  }
  const MatrixProfile mp = SelfJoinProfile(s, 16);
  size_t argmin = 0;
  for (size_t i = 1; i < mp.size(); ++i) {
    if (mp.values[i] < mp.values[argmin]) argmin = i;
  }
  const bool near_plant =
      (argmin >= 15 && argmin <= 25) || (argmin >= 145 && argmin <= 155);
  EXPECT_TRUE(near_plant) << "argmin " << argmin;
}

TEST(SelfJoinProfileTest, NeighborIndicesRespectExclusion) {
  Rng rng(3);
  std::vector<double> s(60);
  for (auto& v : s) v = rng.Gaussian();
  const size_t w = 6;
  const MatrixProfile mp = SelfJoinProfile(s, w);
  const size_t excl = DefaultExclusionZone(w);
  for (size_t i = 0; i < mp.size(); ++i) {
    ASSERT_NE(mp.indices[i], kNoNeighbor);
    const size_t j = mp.indices[i];
    const size_t gap = i > j ? i - j : j - i;
    EXPECT_GT(gap, excl);
  }
}

TEST(SelfJoinProfileTest, ValuesBoundedBy2SqrtM) {
  // Max z-normalised distance between unit-variance windows is 2*sqrt(m).
  Rng rng(4);
  std::vector<double> s(100);
  for (auto& v : s) v = rng.Gaussian();
  const size_t w = 10;
  const MatrixProfile mp = SelfJoinProfile(s, w);
  const double bound = 2.0 * std::sqrt(static_cast<double>(w)) + 1e-9;
  for (double v : mp.values) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, bound);
  }
}

// Brute-force AB-join reference, under the same smallest-square rule.
MatrixProfile BruteAbJoin(const std::vector<double>& a,
                          const std::vector<double>& b, size_t w) {
  const size_t la = a.size() - w + 1;
  const size_t lb = b.size() - w + 1;
  MatrixProfile mp;
  mp.values.assign(la, std::numeric_limits<double>::infinity());
  mp.indices.assign(la, kNoNeighbor);
  for (size_t i = 0; i < la; ++i) {
    const std::vector<double> wi =
        ZNormalize(std::span<const double>(a).subspan(i, w));
    for (size_t j = 0; j < lb; ++j) {
      const std::vector<double> wj =
          ZNormalize(std::span<const double>(b).subspan(j, w));
      const double d2 = SquaredEuclidean(wi, wj);
      if (d2 < mp.values[i]) {
        mp.values[i] = d2;
        mp.indices[i] = j;
      }
    }
  }
  for (double& v : mp.values) v = std::sqrt(v);
  return mp;
}

TEST(AbJoinProfileTest, MatchesBruteForce) {
  Rng rng(5);
  std::vector<double> a(50), b(70);
  for (auto& v : a) v = rng.Gaussian();
  for (auto& v : b) v = rng.Gaussian();
  const size_t w = 7;
  const MatrixProfile fast = AbJoinProfile(a, b, w);
  const MatrixProfile brute = BruteAbJoin(a, b, w);
  ASSERT_EQ(fast.size(), brute.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast.values[i], brute.values[i], 1e-6) << "position " << i;
  }
}

TEST(AbJoinProfileTest, SharedPatternGivesNearZero) {
  Rng rng(6);
  std::vector<double> a(100), b(100);
  for (auto& v : a) v = rng.Gaussian(0.0, 0.2);
  for (auto& v : b) v = rng.Gaussian(0.0, 0.2);
  for (size_t i = 0; i < 12; ++i) {
    const double pattern = std::cos(0.5 * static_cast<double>(i)) * 4.0;
    a[30 + i] += pattern;
    b[60 + i] += pattern;
  }
  const MatrixProfile mp = AbJoinProfile(a, b, 12);
  double mn = mp.values[0];
  size_t argmin = 0;
  for (size_t i = 1; i < mp.size(); ++i) {
    if (mp.values[i] < mn) {
      mn = mp.values[i];
      argmin = i;
    }
  }
  EXPECT_LT(mn, 1.0);
  // The z-normalised minimum can land a few samples early where the window
  // straddles the pattern onset.
  EXPECT_NEAR(static_cast<double>(argmin), 30.0, 6.0);
}

TEST(AbJoinProfileTest, NoExclusionZone) {
  // a is a subrange of b, so every window has an exact match.
  Rng rng(7);
  std::vector<double> b(60);
  for (auto& v : b) v = rng.Gaussian();
  const std::vector<double> a(b.begin() + 10, b.begin() + 40);
  const MatrixProfile mp = AbJoinProfile(a, b, 8);
  for (size_t i = 0; i < mp.size(); ++i) {
    EXPECT_NEAR(mp.values[i], 0.0, 1e-6);
    EXPECT_EQ(mp.indices[i], i + 10);
  }
}

TEST(ProfileDiffTest, AbsoluteDifference) {
  MatrixProfile a, b;
  a.values = {1.0, 5.0, 2.0};
  b.values = {4.0, 1.0, 2.0};
  a.indices = b.indices = {0, 0, 0};
  EXPECT_EQ(ProfileDiff(a, b), (std::vector<double>{3.0, 4.0, 0.0}));
}

TEST(DefaultExclusionZoneTest, HalfWindowRoundedUp) {
  EXPECT_EQ(DefaultExclusionZone(8), 4u);
  EXPECT_EQ(DefaultExclusionZone(9), 5u);
}

TEST(SelfJoinProfileParallelTest, MatchesSequential) {
  Rng rng(11);
  std::vector<double> s(300);
  for (auto& v : s) v = rng.Gaussian();
  const MatrixProfile seq = SelfJoinProfile(s, 16);
  for (size_t threads : {2, 4, 7}) {
    const MatrixProfile par = SelfJoinProfileParallel(s, 16, threads);
    ASSERT_EQ(par.size(), seq.size());
    for (size_t i = 0; i < seq.size(); ++i) {
      EXPECT_NEAR(par.values[i], seq.values[i], 1e-7)
          << "threads " << threads << " position " << i;
    }
  }
}

TEST(SelfJoinProfileParallelTest, SingleThreadDelegates) {
  Rng rng(12);
  std::vector<double> s(80);
  for (auto& v : s) v = rng.Gaussian();
  const MatrixProfile a = SelfJoinProfile(s, 8);
  const MatrixProfile b = SelfJoinProfileParallel(s, 8, 1);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.values[i], b.values[i]);
    EXPECT_EQ(a.indices[i], b.indices[i]);
  }
}

TEST(SelfJoinProfileParallelTest, MoreThreadsThanRows) {
  Rng rng(13);
  std::vector<double> s(20);
  for (auto& v : s) v = rng.Gaussian();
  const MatrixProfile seq = SelfJoinProfile(s, 4);
  const MatrixProfile par = SelfJoinProfileParallel(s, 4, 64);
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_NEAR(par.values[i], seq.values[i], 1e-8);
  }
}

class SelfJoinSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(SelfJoinSweep, AgreesWithBruteAcrossWindows) {
  const size_t w = GetParam();
  Rng rng(20 + w);
  std::vector<double> s(64);
  for (auto& v : s) v = rng.Gaussian();
  const MatrixProfile fast = SelfJoinProfile(s, w);
  const MatrixProfile brute = BruteSelfJoin(s, w, DefaultExclusionZone(w));
  // Near-zero distances amplify the QT-recurrence rounding: d = sqrt(d2)
  // turns a 1e-12 absolute error in d2 into ~1e-6 in d.
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast.values[i], brute.values[i], 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, SelfJoinSweep,
                         ::testing::Values(2, 3, 5, 9, 16, 25));

}  // namespace
}  // namespace ips
