#include "ips/instance_profile.h"

#include <cmath>

#include <algorithm>
#include <iterator>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "core/rng.h"
#include "core/znorm.h"

namespace ips {
namespace {

std::vector<TimeSeries> RandomSample(Rng& rng, size_t count, size_t len) {
  std::vector<TimeSeries> out;
  for (size_t i = 0; i < count; ++i) {
    std::vector<double> v(len);
    for (auto& x : v) x = rng.Gaussian();
    out.emplace_back(std::move(v), 0);
  }
  return out;
}

// Brute-force Def. 9: nearest z-normalised window among OTHER instances.
double BruteIpEntry(const std::vector<TimeSeries>& sample, size_t m,
                    size_t offset, size_t w) {
  const std::vector<double> query(
      sample[m].values.begin() + static_cast<ptrdiff_t>(offset),
      sample[m].values.begin() + static_cast<ptrdiff_t>(offset + w));
  double best = std::numeric_limits<double>::infinity();
  for (size_t other = 0; other < sample.size(); ++other) {
    if (other == m || sample[other].length() < w) continue;
    const auto profile = DistanceProfileZNorm(query, sample[other].view());
    for (double d : profile) best = std::min(best, d);
  }
  return best;
}

TEST(InstanceProfileTest, MatchesBruteForce) {
  Rng rng(1);
  const auto sample = RandomSample(rng, 3, 40);
  const size_t w = 8;
  const InstanceProfile ip = ComputeInstanceProfile(sample, w);
  ASSERT_EQ(ip.size(), 3 * (40 - w + 1));
  for (size_t e = 0; e < ip.size(); e += 7) {
    const double brute =
        BruteIpEntry(sample, ip.instances[e], ip.offsets[e], w);
    EXPECT_NEAR(ip.values[e], brute, 1e-6) << "entry " << e;
  }
}

TEST(InstanceProfileTest, ProvenanceCoversAllWindows) {
  Rng rng(2);
  const auto sample = RandomSample(rng, 2, 20);
  const InstanceProfile ip = ComputeInstanceProfile(sample, 5);
  std::vector<std::vector<bool>> seen(2, std::vector<bool>(16, false));
  for (size_t e = 0; e < ip.size(); ++e) {
    seen[ip.instances[e]][ip.offsets[e]] = true;
  }
  for (const auto& inst : seen) {
    for (bool b : inst) EXPECT_TRUE(b);
  }
}

TEST(InstanceProfileTest, SharedPatternYieldsMotif) {
  Rng rng(3);
  auto sample = RandomSample(rng, 3, 100);
  // Plant the same strong pattern in every instance at different offsets.
  const std::vector<size_t> offsets = {10, 50, 70};
  for (size_t m = 0; m < 3; ++m) {
    for (size_t i = 0; i < 12; ++i) {
      sample[m].values[offsets[m] + i] +=
          6.0 * std::sin(0.7 * static_cast<double>(i));
    }
  }
  const InstanceProfile ip = ComputeInstanceProfile(sample, 12);
  const auto motifs = InstanceProfileMotifs(ip, 1, 12);
  ASSERT_EQ(motifs.size(), 1u);
  const size_t e = motifs[0];
  const size_t expected = offsets[ip.instances[e]];
  EXPECT_NEAR(static_cast<double>(ip.offsets[e]),
              static_cast<double>(expected), 3.0);
}

TEST(InstanceProfileTest, SingleInstanceFallsBackToSelfJoin) {
  Rng rng(4);
  const auto sample = RandomSample(rng, 1, 50);
  const InstanceProfile ip = ComputeInstanceProfile(sample, 8);
  EXPECT_EQ(ip.size(), 50u - 8 + 1);
  for (double v : ip.values) EXPECT_GE(v, 0.0);
}

TEST(InstanceProfileTest, ShortInstancesSkipped) {
  Rng rng(5);
  std::vector<TimeSeries> sample = RandomSample(rng, 2, 30);
  sample.push_back(TimeSeries(std::vector<double>(4, 1.0), 0));  // too short
  const InstanceProfile ip = ComputeInstanceProfile(sample, 10);
  for (size_t e = 0; e < ip.size(); ++e) {
    EXPECT_LT(ip.instances[e], 2u);
  }
}

TEST(InstanceProfileTest, NeighborOrderOneMatchesDefault) {
  Rng rng(8);
  const auto sample = RandomSample(rng, 3, 30);
  const InstanceProfile a = ComputeInstanceProfile(sample, 6);
  const InstanceProfile b = ComputeInstanceProfile(sample, 6, 1);
  ASSERT_EQ(a.size(), b.size());
  for (size_t e = 0; e < a.size(); ++e) {
    EXPECT_DOUBLE_EQ(a.values[e], b.values[e]);
  }
}

TEST(InstanceProfileTest, HigherNeighborOrdersAreMonotone) {
  // The k-th smallest per-instance distance is non-decreasing in k.
  Rng rng(9);
  const auto sample = RandomSample(rng, 4, 30);
  const InstanceProfile k1 = ComputeInstanceProfile(sample, 6, 1);
  const InstanceProfile k2 = ComputeInstanceProfile(sample, 6, 2);
  const InstanceProfile k3 = ComputeInstanceProfile(sample, 6, 3);
  ASSERT_EQ(k1.size(), k2.size());
  for (size_t e = 0; e < k1.size(); ++e) {
    EXPECT_LE(k1.values[e], k2.values[e] + 1e-12);
    EXPECT_LE(k2.values[e], k3.values[e] + 1e-12);
  }
}

TEST(InstanceProfileTest, NeighborOrderClampedToSampleSize) {
  Rng rng(10);
  const auto sample = RandomSample(rng, 3, 30);  // only 2 other instances
  const InstanceProfile k2 = ComputeInstanceProfile(sample, 6, 2);
  const InstanceProfile k9 = ComputeInstanceProfile(sample, 6, 9);
  for (size_t e = 0; e < k2.size(); ++e) {
    EXPECT_DOUBLE_EQ(k2.values[e], k9.values[e]);
  }
}

TEST(InstanceProfileMotifsTest, ExclusionAppliesWithinInstanceOnly) {
  InstanceProfile ip;
  // Two instances, adjacent offsets with tiny values.
  ip.values = {0.1, 0.2, 0.15, 0.25};
  ip.instances = {0, 0, 1, 1};
  ip.offsets = {5, 6, 5, 6};
  const auto motifs = InstanceProfileMotifs(ip, 4, 8);
  // Within each instance the two offsets are inside the exclusion zone, so
  // one survives per instance.
  ASSERT_EQ(motifs.size(), 2u);
  EXPECT_EQ(ip.instances[motifs[0]], 0u);
  EXPECT_EQ(ip.instances[motifs[1]], 1u);
}

// The selection by its definition, the reference the k-pass scan must
// reproduce element for element: stable-sort every entry by value, then
// walk the order and keep each finite entry that is more than
// ceil(window / 2) offsets from every kept entry of its instance.
std::vector<size_t> SortWalkReference(const InstanceProfile& profile,
                                      size_t k, size_t window,
                                      bool smallest_first) {
  std::vector<size_t> order(profile.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return smallest_first ? profile.values[a] < profile.values[b]
                          : profile.values[a] > profile.values[b];
  });
  const size_t exclusion = (window + 1) / 2;
  std::vector<size_t> selected;
  for (size_t e : order) {
    if (selected.size() >= k) break;
    if (!std::isfinite(profile.values[e])) continue;
    const bool clashes = std::any_of(
        selected.begin(), selected.end(), [&](size_t s) {
          if (profile.instances[s] != profile.instances[e]) return false;
          const size_t a = profile.offsets[s];
          const size_t b = profile.offsets[e];
          return (a > b ? a - b : b - a) <= exclusion;
        });
    if (!clashes) selected.push_back(e);
  }
  return selected;
}

// A profile laid out as ComputeInstanceProfile lays it out: each instance's
// windows in offset order, instance after instance. Values come from a small
// set so ties are common, with some infinities.
InstanceProfile RandomProfile(Rng& rng, size_t instances) {
  const double inf = std::numeric_limits<double>::infinity();
  const double palette[] = {0.0, 0.5, 0.5, 1.25, 2.0, 2.0, 4.0, inf, -inf};
  InstanceProfile ip;
  for (size_t m = 0; m < instances; ++m) {
    const size_t windows = 1 + rng.Index(40);
    for (size_t i = 0; i < windows; ++i) {
      ip.values.push_back(palette[rng.Index(std::size(palette))]);
      ip.instances.push_back(m);
      ip.offsets.push_back(i);
    }
  }
  return ip;
}

TEST(InstanceProfileMotifsTest, MatchesStableSortWalkOnRandomProfiles) {
  Rng rng(909);
  size_t nonempty = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const InstanceProfile ip = RandomProfile(rng, 1 + rng.Index(4));
    const size_t window = 1 + rng.Index(20);
    const size_t ks[] = {0, 1, 2, 3, 5, ip.size() + 1 + rng.Index(4)};
    for (size_t k : ks) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " entries "
                                      << ip.size() << " window " << window
                                      << " k " << k);
      const auto motifs = InstanceProfileMotifs(ip, k, window);
      EXPECT_EQ(motifs, SortWalkReference(ip, k, window, true));
      nonempty += motifs.empty() ? 0 : 1;
      EXPECT_EQ(InstanceProfileDiscords(ip, k, window),
                SortWalkReference(ip, k, window, false));
    }
  }
  EXPECT_GT(nonempty, 2000u);
}

TEST(InstanceProfileMotifsTest, NeverTakesNan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  InstanceProfile ip;
  ip.values = {nan, 0.3, nan, 0.1, 0.2, nan};
  ip.instances = {0, 0, 1, 1, 2, 2};
  ip.offsets = {0, 1, 0, 1, 0, 1};
  for (size_t k : {1, 2, 3, 6}) {
    for (const auto& taken : {InstanceProfileMotifs(ip, k, 2),
                              InstanceProfileDiscords(ip, k, 2)}) {
      EXPECT_EQ(taken.size(), std::min<size_t>(k, 3));
      for (size_t e : taken) EXPECT_FALSE(std::isnan(ip.values[e])) << e;
    }
  }
}

TEST(InstanceProfileDiscordsTest, PicksLargest) {
  InstanceProfile ip;
  ip.values = {0.5, 3.0, 1.0};
  ip.instances = {0, 1, 2};
  ip.offsets = {0, 0, 0};
  const auto discords = InstanceProfileDiscords(ip, 1, 4);
  ASSERT_EQ(discords.size(), 1u);
  EXPECT_EQ(discords[0], 1u);
}

}  // namespace
}  // namespace ips
