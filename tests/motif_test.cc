#include "matrix_profile/motif.h"

#include <cmath>

#include <algorithm>
#include <iterator>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace ips {
namespace {

// The selection by its definition, the reference the k-pass scan must
// reproduce element for element: stable-sort every index by value, then
// walk the order and keep each finite entry that is more than `exclusion`
// away from every entry kept so far.
std::vector<size_t> SortWalkReference(const std::vector<double>& profile,
                                      size_t k, size_t exclusion,
                                      bool smallest_first) {
  std::vector<size_t> order(profile.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return smallest_first ? profile[a] < profile[b] : profile[a] > profile[b];
  });
  std::vector<size_t> selected;
  for (size_t idx : order) {
    if (selected.size() >= k) break;
    if (!std::isfinite(profile[idx])) continue;
    const bool clashes = std::any_of(
        selected.begin(), selected.end(), [&](size_t s) {
          return (s > idx ? s - idx : idx - s) <= exclusion;
        });
    if (!clashes) selected.push_back(idx);
  }
  return selected;
}

TEST(FindMotifsTest, MatchesStableSortWalkOnRandomProfiles) {
  const double inf = std::numeric_limits<double>::infinity();
  // A small value set makes ties common; the infinities must be skipped.
  const double palette[] = {-1.5, 0.0, 0.25, 0.25, 1.0, 2.0, 3.5, inf, -inf};
  Rng rng(2026);
  size_t nonempty = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const size_t n = rng.Index(61);
    std::vector<double> profile(n);
    for (double& v : profile) v = palette[rng.Index(std::size(palette))];
    const size_t exclusion = rng.Index(11);
    const size_t ks[] = {0, 1, 2, 3, 5, n + 1 + rng.Index(4)};
    for (size_t k : ks) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " n " << n
                                      << " exclusion " << exclusion << " k "
                                      << k);
      const auto motifs = FindMotifs(profile, k, exclusion);
      EXPECT_EQ(motifs, SortWalkReference(profile, k, exclusion, true));
      nonempty += motifs.empty() ? 0 : 1;
      EXPECT_EQ(FindDiscords(profile, k, exclusion),
                SortWalkReference(profile, k, exclusion, false));
    }
  }
  EXPECT_GT(nonempty, 2000u);
}

TEST(FindMotifsTest, NeverTakesNan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> profile = {nan, 3.0, nan, 1.0, nan, 2.0, nan};
  for (size_t k : {1, 2, 3, 7}) {
    for (const auto& taken :
         {FindMotifs(profile, k, 0), FindDiscords(profile, k, 0)}) {
      EXPECT_EQ(taken.size(), std::min<size_t>(k, 3));
      for (size_t e : taken) EXPECT_FALSE(std::isnan(profile[e])) << e;
    }
  }
}

TEST(FindMotifsTest, PicksSmallestFirst) {
  const std::vector<double> profile = {5.0, 1.0, 4.0, 0.5, 3.0, 9.0};
  const auto motifs = FindMotifs(profile, 2, 0);
  ASSERT_EQ(motifs.size(), 2u);
  EXPECT_EQ(motifs[0], 3u);
  EXPECT_EQ(motifs[1], 1u);
}

TEST(FindDiscordsTest, PicksLargestFirst) {
  const std::vector<double> profile = {5.0, 1.0, 4.0, 0.5, 3.0, 9.0};
  const auto discords = FindDiscords(profile, 2, 0);
  ASSERT_EQ(discords.size(), 2u);
  EXPECT_EQ(discords[0], 5u);
  EXPECT_EQ(discords[1], 0u);
}

TEST(FindMotifsTest, ExclusionZoneSeparatesSelections) {
  // Values 0.1, 0.2, 0.3 adjacent: with exclusion 2, only one of them can
  // be selected; next pick must be >= 3 away.
  const std::vector<double> profile = {0.1, 0.2, 0.3, 5.0, 5.0, 0.4, 5.0};
  const auto motifs = FindMotifs(profile, 3, 2);
  ASSERT_GE(motifs.size(), 2u);
  EXPECT_EQ(motifs[0], 0u);
  EXPECT_EQ(motifs[1], 5u);
  for (size_t i = 0; i < motifs.size(); ++i) {
    for (size_t j = i + 1; j < motifs.size(); ++j) {
      const size_t gap = motifs[i] > motifs[j] ? motifs[i] - motifs[j]
                                               : motifs[j] - motifs[i];
      EXPECT_GT(gap, 2u);
    }
  }
}

TEST(FindMotifsTest, RequestMoreThanAvailable) {
  const std::vector<double> profile = {1.0, 2.0};
  const auto motifs = FindMotifs(profile, 10, 0);
  EXPECT_EQ(motifs.size(), 2u);
}

TEST(FindMotifsTest, SkipsNonFiniteEntries) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> profile = {inf, 2.0, inf, 1.0};
  const auto motifs = FindMotifs(profile, 4, 0);
  ASSERT_EQ(motifs.size(), 2u);
  EXPECT_EQ(motifs[0], 3u);
  EXPECT_EQ(motifs[1], 1u);
}

TEST(FindDiscordsTest, SkipsNonFiniteEntries) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> profile = {inf, 2.0, 5.0};
  const auto discords = FindDiscords(profile, 2, 0);
  ASSERT_EQ(discords.size(), 2u);
  EXPECT_EQ(discords[0], 2u);
}

TEST(FindMotifsTest, EmptyProfile) {
  EXPECT_TRUE(FindMotifs(std::vector<double>{}, 3, 1).empty());
}

TEST(FindMotifsTest, LargeExclusionLimitsCount) {
  const std::vector<double> profile = {1.0, 2.0, 3.0, 4.0, 5.0};
  // Exclusion spanning the whole profile: only one selection possible.
  EXPECT_EQ(FindMotifs(profile, 5, 10).size(), 1u);
}

TEST(FindMotifsTest, StableTieBreaking) {
  const std::vector<double> profile = {1.0, 1.0, 1.0};
  const auto motifs = FindMotifs(profile, 3, 0);
  EXPECT_EQ(motifs, (std::vector<size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace ips
