// Bitwise-identity suite for the all-pairs join scheduler
// (docs/memory.md): the minima JoinAllPairs computes over one artifact
// table must reproduce the free serial AbJoinProfile kernel's values
// EXACTLY, in both directions of every pair, at threads {1, 2, 8}, and
// equal AbJoinBoth's values sharded and unsharded -- the scheduler shards
// work and reuses memory, it never changes arithmetic. The join keeps no
// neighbour indices, so there are none to compare. The CI fingerprint
// diffs hold end-to-end discovery to the same bar; this suite pins the
// engine layer directly, including the FFT-seed regime and every
// registered metric.

#include "matrix_profile/mp_engine.h"

#include <cstdint>

#include <bit>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/metric.h"
#include "core/rng.h"
#include "matrix_profile/matrix_profile.h"
#include "matrix_profile/stomp_common.h"
#include "simd_backends.h"

namespace ips {
namespace {

std::vector<double> RandomWalk(Rng& rng, size_t n) {
  std::vector<double> out(n);
  double x = 0.0;
  for (auto& v : out) {
    x += rng.Uniform() - 0.5;
    v = x;
  }
  return out;
}

std::vector<std::vector<double>> MakeSeries(uint64_t seed,
                                            std::vector<size_t> lengths) {
  Rng rng(seed);
  std::vector<std::vector<double>> series;
  for (size_t n : lengths) series.push_back(RandomWalk(rng, n));
  return series;
}

std::vector<std::span<const double>> ViewsOf(
    const std::vector<std::vector<double>>& series) {
  return {series.begin(), series.end()};
}

void ExpectJoinsBitwiseEqual(const std::vector<PairMinima>& expected,
                             const std::vector<PairMinima>& actual,
                             const std::string& config) {
  ASSERT_EQ(expected.size(), actual.size()) << config;
  for (size_t t = 0; t < expected.size(); ++t) {
    ASSERT_EQ(expected[t].a, actual[t].a) << config << " pair " << t;
    ASSERT_EQ(expected[t].b, actual[t].b) << config << " pair " << t;
    const auto check = [&](const std::vector<double>& e,
                           const std::vector<double>& a, const char* side) {
      ASSERT_EQ(e.size(), a.size()) << config;
      for (size_t i = 0; i < e.size(); ++i) {
        // Exact equality: scheduling and memory reuse must not perturb a
        // single bit.
        ASSERT_EQ(std::bit_cast<uint64_t>(e[i]), std::bit_cast<uint64_t>(a[i]))
            << config << " pair " << t << " " << side << " value " << i;
      }
    };
    check(expected[t].a_vs_b, actual[t].a_vs_b, "a_vs_b");
    check(expected[t].b_vs_a, actual[t].b_vs_a, "b_vs_a");
  }
}

// Both directions of every lexicographic pair, each from its own serial
// one-direction join: the free AbJoinProfile kernel for the z-normalised
// default, and for the other metrics (which have no free kernel) the
// single-threaded engine AbJoin, whose row sweep metric_test holds to a
// brute-force loop. Neither collects column minima, so the b side of
// every batch profile is checked against an independent computation.
std::vector<PairMinima> ReferenceJoins(
    const std::vector<std::span<const double>>& views, size_t window,
    MetricId metric) {
  MatrixProfileEngine serial(1);
  const auto one_way = [&](size_t x, size_t y) {
    return metric == MetricId::kZNormEuclidean
               ? AbJoinProfile(views[x], views[y], window).values
               : serial.AbJoin(views[x], views[y], window, metric).values;
  };
  std::vector<PairMinima> joins;
  for (size_t i = 0; i < views.size(); ++i) {
    for (size_t j = i + 1; j < views.size(); ++j) {
      PairMinima pm;
      pm.a = i;
      pm.b = j;
      pm.a_vs_b = one_way(i, j);
      pm.b_vs_a = one_way(j, i);
      joins.push_back(std::move(pm));
    }
  }
  return joins;
}

// The same, from AbJoinBoth (one sweep, both directions, indices kept) of
// `engine`.
std::vector<PairMinima> AbJoinBothValues(
    MatrixProfileEngine& engine,
    const std::vector<std::span<const double>>& views, size_t window,
    MetricId metric) {
  std::vector<PairMinima> joins;
  for (size_t i = 0; i < views.size(); ++i) {
    for (size_t j = i + 1; j < views.size(); ++j) {
      PairJoin both = engine.AbJoinBoth(views[i], views[j], window, metric);
      PairMinima pm;
      pm.a = i;
      pm.b = j;
      pm.a_vs_b = std::move(both.a_vs_b.values);
      pm.b_vs_a = std::move(both.b_vs_a.values);
      joins.push_back(std::move(pm));
    }
  }
  return joins;
}

void RunConfigMatrix(const std::vector<std::span<const double>>& views,
                     size_t window, MetricId metric) {
  const std::vector<PairMinima> expected =
      ReferenceJoins(views, window, metric);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    MatrixProfileEngine engine(threads);
    const std::vector<PairMinima> actual =
        engine.JoinAllPairs(engine.BuildTable(views, window, metric));
    const std::string config = "threads=" + std::to_string(threads) +
                               " metric=" + MetricName(metric);
    ExpectJoinsBitwiseEqual(expected, actual, config);
  }
}

TEST(JoinSchedulerTest, ConfigMatrixHoldsForEveryRegisteredMetric) {
  const auto series = MakeSeries(13, {60, 72, 55, 66});
  const auto views = ViewsOf(series);
  for (size_t m = 0; m < kMetricCount; ++m) {
    RunConfigMatrix(views, /*window=*/9, static_cast<MetricId>(m));
  }
}

TEST(JoinSchedulerTest, ConfigMatrixHoldsInTheFftSeedRegime) {
  // Sizes past the FFT cost model's crossover (window >= kFftCutoff AND
  // window * len > 14 * padded * log2(padded)): BuildTable serves the QT
  // seed rows from forward FFTs (the fft_series/fft_query artifacts), the
  // one arithmetic path the short-series cases above never touch.
  ASSERT_TRUE(StompSeedUsesFft(512, 1040));
  const auto series = MakeSeries(17, {1024, 1040});
  RunConfigMatrix(ViewsOf(series), /*window=*/512,
                  MetricId::kZNormEuclidean);
}

TEST(JoinSchedulerTest, RepeatBatchesIntoSameVectorMatch) {
  const auto series = MakeSeries(23, {70, 85, 64, 90});
  const auto views = ViewsOf(series);
  const std::vector<PairMinima> expected =
      ReferenceJoins(views, 10, MetricId::kZNormEuclidean);

  MatrixProfileEngine engine(2);
  const ArtifactTable table = engine.BuildTable(views, 10);
  EXPECT_EQ(table.window, 10u);
  EXPECT_GT(table.entry_count(), 0u);
  std::vector<PairMinima> joins;
  for (int rep = 0; rep < 3; ++rep) {
    // Capacity reuse across repeats (the serving-loop form) and sweeping
    // one table again must not change a bit.
    engine.JoinAllPairsInto(table, joins);
    ExpectJoinsBitwiseEqual(expected, joins,
                            "rep " + std::to_string(rep));
  }
  EXPECT_EQ(engine.counters().table_builds, 1u);
}

// JoinAllPairs' minima equal AbJoinBoth's values for every metric on every
// backend, at 1 and 4 threads, unsharded (the fused row sweep) and sharded
// (the values-only diagonal walk and plain-minimum merge). A two-series
// table at 4 threads with one cell per chunk splits its one pair four ways;
// the four-series table at 1 thread runs every pair unsharded. Flat
// stretches put flat rows and columns in every metric's cells.
TEST(JoinSchedulerTest, MinimaEqualAbJoinBothShardedAndUnsharded) {
  auto series = MakeSeries(29, {58, 71, 64, 49});
  for (size_t k = 20; k < 34; ++k) series[1][k] = 0.0;
  for (size_t k = 5; k < 19; ++k) series[2][k] = 1.5;
  const auto views = ViewsOf(series);
  const std::vector<std::span<const double>> two = {views[1], views[2]};
  ForEachSimdBackend([&] {
    for (size_t m = 0; m < kMetricCount; ++m) {
      const MetricId metric = static_cast<MetricId>(m);
      for (size_t threads : {size_t{1}, size_t{4}}) {
        for (bool sharded : {false, true}) {
          for (const auto* batch : {&views, &two}) {
            MatrixProfileEngine engine(threads);
            if (sharded) engine.set_min_cells_per_chunk(1);
            const std::string config =
                std::string("metric=") + MetricName(metric) +
                " threads=" + std::to_string(threads) +
                (sharded ? " sharded" : "") +
                " series=" + std::to_string(batch->size());
            ExpectJoinsBitwiseEqual(
                AbJoinBothValues(engine, *batch, 12, metric),
                engine.JoinAllPairs(engine.BuildTable(*batch, 12, metric)),
                config);
          }
        }
      }
    }
  });
}

}  // namespace
}  // namespace ips
