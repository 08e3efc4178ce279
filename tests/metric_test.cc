// Per-metric reference parity for the metric-policy layer (core/metric.h).
//
// Every registered metric is checked three ways:
//   1. registry invariants: id <-> name round trips, unknown names rejected;
//   2. DistanceEngine's MinForPairs against a brute-force loop over the
//      metric's own pairwise reference, at thread counts {1, 2, 8};
//   3. MatrixProfileEngine joins against a brute-force nested loop over the
//      same pairwise reference, at thread counts {1, 2, 8} with the chunk
//      floor forced to 1 so multi-chunk merge paths actually run.
// The engine paths go through FFT/QT recurrences, so the parity bound is
// 1e-9 (absolute) rather than bitwise; bitwise identity ACROSS thread
// counts is asserted separately, since determinism never rounds.

#include "core/metric.h"

#include <cmath>
#include <cstdint>

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "core/distance_engine.h"
#include "core/rng.h"
#include "data/generator.h"
#include "matrix_profile/matrix_profile.h"
#include "matrix_profile/mp_engine.h"

namespace ips {
namespace {

constexpr double kTol = 1e-9;

Dataset SyntheticData(const char* name, size_t train_size, size_t length) {
  GeneratorSpec spec;
  spec.name = name;
  spec.num_classes = 2;
  spec.train_size = train_size;
  spec.test_size = 2;
  spec.length = length;
  return GenerateDataset(spec).train;
}

const std::vector<MetricId>& AllMetrics() {
  static const std::vector<MetricId> all = [] {
    std::vector<MetricId> v;
    for (size_t m = 0; m < kMetricCount; ++m) {
      v.push_back(static_cast<MetricId>(m));
    }
    return v;
  }();
  return all;
}

std::vector<double> RandomSeries(Rng& rng, size_t n) {
  std::vector<double> x(n);
  for (double& v : x) v = rng.Gaussian(0.0, 1.0);
  return x;
}

// Brute force: slide `query` over `series` evaluating the metric's own
// pairwise reference at every offset.
std::vector<double> BruteProfile(std::span<const double> query,
                                 std::span<const double> series,
                                 MetricId metric) {
  const MetricPolicy& policy = GetMetric(metric);
  const size_t m = query.size();
  std::vector<double> out(series.size() - m + 1);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = policy.pairwise(query, series.subspan(i, m));
  }
  return out;
}

double BruteMin(std::span<const double> a, std::span<const double> b,
                MetricId metric) {
  const std::span<const double> q = a.size() <= b.size() ? a : b;
  const std::span<const double> s = a.size() <= b.size() ? b : a;
  const std::vector<double> profile = BruteProfile(q, s, metric);
  double best = profile[0];
  for (double v : profile) best = std::min(best, v);
  return best;
}

// ------------------------------------------------------------------ registry

TEST(MetricRegistryTest, NamesRoundTripThroughLookup) {
  for (const MetricId id : AllMetrics()) {
    const MetricPolicy& policy = GetMetric(id);
    EXPECT_EQ(policy.id, id);
    const MetricPolicy* found = FindMetricByName(MetricName(id));
    ASSERT_NE(found, nullptr) << MetricName(id);
    EXPECT_EQ(found->id, id);
    EXPECT_EQ(found, &policy);
  }
}

TEST(MetricRegistryTest, UnknownNamesReturnNull) {
  EXPECT_EQ(FindMetricByName(""), nullptr);
  EXPECT_EQ(FindMetricByName("euclid"), nullptr);
  EXPECT_EQ(FindMetricByName("znorm_euclidean "), nullptr);
  EXPECT_EQ(FindMetricByName("manhattan"), nullptr);
}

TEST(MetricRegistryTest, DefaultIsZNormEuclidean) {
  EXPECT_EQ(MetricId::kZNormEuclidean, static_cast<MetricId>(0));
  EXPECT_STREQ(MetricName(MetricId::kZNormEuclidean), "znorm_euclidean");
}

// --------------------------------------------------------- pairwise anchors

// Hand-computed values on tiny vectors pin each metric's definition: a
// regression here means the metric itself changed, not just a kernel.
TEST(MetricPairwiseTest, HandComputedAnchors) {
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b = {2.0, 4.0, 6.0, 8.0};

  // Raw (Def. 4): mean squared difference = (1+4+9+16)/4.
  EXPECT_NEAR(GetMetric(MetricId::kRawSquaredEuclidean).pairwise(a, b), 7.5,
              kTol);
  // Plain L2: sqrt(30).
  EXPECT_NEAR(GetMetric(MetricId::kEuclidean).pairwise(a, b),
              std::sqrt(30.0), kTol);
  // b = 2a: same shape after z-normalisation and same direction, so both
  // shape metrics see zero distance.
  EXPECT_NEAR(GetMetric(MetricId::kZNormEuclidean).pairwise(a, b), 0.0, kTol);
  EXPECT_NEAR(GetMetric(MetricId::kCosine).pairwise(a, b), 0.0, kTol);

  // Orthogonal vectors: cosine distance exactly 1.
  const std::vector<double> e1 = {1.0, 0.0};
  const std::vector<double> e2 = {0.0, 1.0};
  EXPECT_NEAR(GetMetric(MetricId::kCosine).pairwise(e1, e2), 1.0, kTol);

  // Every shipped metric is symmetric.
  Rng rng(3);
  const std::vector<double> x = RandomSeries(rng, 17);
  const std::vector<double> y = RandomSeries(rng, 17);
  for (const MetricId id : AllMetrics()) {
    const MetricPolicy& policy = GetMetric(id);
    EXPECT_EQ(policy.pairwise(x, y), policy.pairwise(y, x))
        << MetricName(id);
    EXPECT_NEAR(policy.pairwise(x, x), 0.0, kTol) << MetricName(id);
  }
}

// ------------------------------------------------------- distance functions

TEST(MetricDistanceTest, ProfileMatchesBruteForceEveryMetric) {
  Rng rng(7);
  const std::vector<double> query = RandomSeries(rng, 9);
  const std::vector<double> series = RandomSeries(rng, 120);
  for (const MetricId id : AllMetrics()) {
    const std::vector<double> got =
        DistanceProfileMetric(query, series, id);
    const std::vector<double> want = BruteProfile(query, series, id);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], kTol)
          << MetricName(id) << " offset " << i;
    }
  }
}

TEST(MetricDistanceTest, SubsequenceDistanceIsSymmetric) {
  Rng rng(11);
  const std::vector<double> a = RandomSeries(rng, 40);
  const std::vector<double> b = RandomSeries(rng, 64);
  for (const MetricId id : AllMetrics()) {
    const double ab = SubsequenceDistanceMetric(a, b, id);
    const double ba = SubsequenceDistanceMetric(b, a, id);
    EXPECT_EQ(ab, ba) << MetricName(id);
    EXPECT_NEAR(ab, BruteMin(a, b, id), kTol) << MetricName(id);
  }
}

// --------------------------------------------------------- DistanceEngine

// The query-against-dataset work items of the engine's callers: `query`
// (the last view) against every series of `train`, in both operand orders.
std::vector<IndexPair> QueryPairs(size_t count) {
  std::vector<IndexPair> pairs;
  for (uint32_t i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<uint32_t>(count), i);
    pairs.emplace_back(i, static_cast<uint32_t>(count));
  }
  return pairs;
}

TEST(MetricEngineTest, BatchedApisMatchBruteForceAtEveryThreadCount) {
  const Dataset train = SyntheticData("metric-engine", 7, 72);
  Rng rng(13);
  const std::vector<double> query = RandomSeries(rng, 14);

  std::vector<std::span<const double>> views;
  for (size_t i = 0; i < train.size(); ++i) views.push_back(train[i].view());
  std::vector<IndexPair> pairs;
  for (uint32_t i = 0; i < views.size(); ++i) {
    for (uint32_t j = 0; j < views.size(); ++j) {
      if (i != j) pairs.emplace_back(i, j);
    }
  }
  std::vector<std::span<const double>> with_query = views;
  with_query.push_back(query);
  const std::vector<IndexPair> query_pairs = QueryPairs(train.size());

  for (const MetricId id : AllMetrics()) {
    SCOPED_TRACE(std::string("metric=") + MetricName(id));
    for (const size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      DistanceEngine engine(threads);

      const auto mins = engine.MinForPairs(with_query, query_pairs, id);
      ASSERT_EQ(mins.size(), 2 * train.size());
      for (size_t i = 0; i < train.size(); ++i) {
        const double want = BruteMin(query, train[i].view(), id);
        EXPECT_NEAR(mins[2 * i], want, kTol) << "series " << i;
        EXPECT_NEAR(mins[2 * i + 1], want, kTol) << "series " << i;
      }

      const auto pair_mins = engine.MinForPairs(views, pairs, id);
      ASSERT_EQ(pair_mins.size(), pairs.size());
      for (size_t t = 0; t < pairs.size(); ++t) {
        EXPECT_NEAR(pair_mins[t],
                    BruteMin(views[pairs[t].first], views[pairs[t].second],
                             id),
                    kTol)
            << "pair " << t;
      }
    }
  }
}

TEST(MetricEngineTest, BatchedApisBitwiseIdenticalAcrossThreadCounts) {
  const Dataset train = SyntheticData("metric-engine-threads", 9, 90);
  Rng rng(17);
  const std::vector<double> query = RandomSeries(rng, 11);
  std::vector<std::span<const double>> views;
  for (size_t i = 0; i < train.size(); ++i) views.push_back(train[i].view());
  views.push_back(query);
  const std::vector<IndexPair> pairs = QueryPairs(train.size());
  for (const MetricId id : AllMetrics()) {
    SCOPED_TRACE(std::string("metric=") + MetricName(id));
    DistanceEngine serial(1);
    const auto mins_base = serial.MinForPairs(views, pairs, id);
    for (size_t i = 0; i < train.size(); ++i) {
      EXPECT_EQ(mins_base[2 * i],
                SubsequenceDistanceMetric(query, train[i].view(), id));
    }
    for (const size_t threads : {2u, 8u}) {
      DistanceEngine engine(threads);
      EXPECT_EQ(engine.MinForPairs(views, pairs, id), mins_base)
          << "threads=" << threads;
    }
  }
}

// ----------------------------------------------------- MatrixProfileEngine

TEST(MetricMpEngineTest, SelfJoinMatchesBruteForceAtEveryThreadCount) {
  Rng rng(19);
  const std::vector<double> series = RandomSeries(rng, 150);
  const size_t w = 12;
  const size_t count = series.size() - w + 1;
  const size_t exclusion = DefaultExclusionZone(w);
  const std::span<const double> sv(series);

  for (const MetricId id : AllMetrics()) {
    SCOPED_TRACE(std::string("metric=") + MetricName(id));
    const MetricPolicy& policy = GetMetric(id);

    // O(n^2) nested loop over the pairwise reference.
    std::vector<double> want(count);
    for (size_t i = 0; i < count; ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (size_t j = 0; j < count; ++j) {
        const size_t gap = i > j ? i - j : j - i;
        if (gap <= exclusion) continue;
        best = std::min(best,
                        policy.pairwise(sv.subspan(i, w), sv.subspan(j, w)));
      }
      want[i] = best;
    }

    MatrixProfile base;
    for (const size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      MatrixProfileEngine engine(threads);
      engine.set_min_cells_per_chunk(1);
      const MatrixProfile mp = engine.SelfJoin(sv, w, /*exclusion=*/0, id);
      ASSERT_EQ(mp.size(), count);
      for (size_t i = 0; i < count; ++i) {
        EXPECT_NEAR(mp.values[i], want[i], kTol) << "window " << i;
      }
      if (threads == 1) {
        base = mp;
      } else {
        EXPECT_EQ(mp.values, base.values);
        EXPECT_EQ(mp.indices, base.indices);
      }
    }
  }
}

TEST(MetricMpEngineTest, AbJoinBothMatchesBruteForceAtEveryThreadCount) {
  Rng rng(23);
  const std::vector<double> a = RandomSeries(rng, 110);
  const std::vector<double> b = RandomSeries(rng, 140);
  const size_t w = 10;
  const std::span<const double> av(a), bv(b);
  const size_t la = a.size() - w + 1;
  const size_t lb = b.size() - w + 1;

  for (const MetricId id : AllMetrics()) {
    SCOPED_TRACE(std::string("metric=") + MetricName(id));
    const MetricPolicy& policy = GetMetric(id);

    std::vector<double> want_ab(la,
                                std::numeric_limits<double>::infinity());
    std::vector<double> want_ba(lb,
                                std::numeric_limits<double>::infinity());
    for (size_t i = 0; i < la; ++i) {
      for (size_t j = 0; j < lb; ++j) {
        const double d =
            policy.pairwise(av.subspan(i, w), bv.subspan(j, w));
        want_ab[i] = std::min(want_ab[i], d);
        want_ba[j] = std::min(want_ba[j], d);
      }
    }

    PairJoin base;
    for (const size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      MatrixProfileEngine engine(threads);
      engine.set_min_cells_per_chunk(1);
      const PairJoin pj = engine.AbJoinBoth(av, bv, w, id);
      ASSERT_EQ(pj.a_vs_b.size(), la);
      ASSERT_EQ(pj.b_vs_a.size(), lb);
      for (size_t i = 0; i < la; ++i) {
        EXPECT_NEAR(pj.a_vs_b.values[i], want_ab[i], kTol) << "row " << i;
      }
      for (size_t j = 0; j < lb; ++j) {
        EXPECT_NEAR(pj.b_vs_a.values[j], want_ba[j], kTol) << "col " << j;
      }
      if (threads == 1) {
        base = pj;
      } else {
        EXPECT_EQ(pj.a_vs_b.values, base.a_vs_b.values);
        EXPECT_EQ(pj.b_vs_a.values, base.b_vs_a.values);
      }
    }
  }
}

}  // namespace
}  // namespace ips
