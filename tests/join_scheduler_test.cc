// Bitwise-identity suite for the all-pairs join scheduler
// (docs/memory.md): JoinAllPairs over one artifact table must reproduce the
// free serial AbJoinProfile kernel EXACTLY, in both directions of every
// pair, at threads {1, 2, 8} -- the scheduler shards work and reuses
// memory, it never changes arithmetic. The CI fingerprint diffs hold
// end-to-end discovery to the same bar; this suite pins the engine layer
// directly, including the FFT-seed regime and every registered metric.

#include "matrix_profile/mp_engine.h"

#include <cstdint>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/metric.h"
#include "core/rng.h"
#include "matrix_profile/matrix_profile.h"
#include "matrix_profile/stomp_common.h"

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

void ExpectJoinsBitwiseEqual(const std::vector<PairJoin>& expected,
                             const std::vector<PairJoin>& actual,
                             const std::string& config) {
  ASSERT_EQ(expected.size(), actual.size()) << config;
  for (size_t t = 0; t < expected.size(); ++t) {
    ASSERT_EQ(expected[t].a, actual[t].a) << config << " pair " << t;
    ASSERT_EQ(expected[t].b, actual[t].b) << config << " pair " << t;
    const auto check = [&](const MatrixProfile& e, const MatrixProfile& a,
                           const char* side) {
      ASSERT_EQ(e.values.size(), a.values.size()) << config;
      for (size_t i = 0; i < e.values.size(); ++i) {
        // Exact equality: scheduling and memory reuse must not perturb a
        // single bit. EXPECT_EQ on doubles is deliberate.
        ASSERT_EQ(e.values[i], a.values[i])
            << config << " pair " << t << " " << side << " value " << i;
        ASSERT_EQ(e.indices[i], a.indices[i])
            << config << " pair " << t << " " << side << " index " << i;
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
std::vector<PairJoin> ReferenceJoins(
    const std::vector<std::span<const double>>& views, size_t window,
    MetricId metric) {
  MatrixProfileEngine serial(1);
  const auto one_way = [&](size_t x, size_t y) {
    return metric == MetricId::kZNormEuclidean
               ? AbJoinProfile(views[x], views[y], window)
               : serial.AbJoin(views[x], views[y], window, metric);
  };
  std::vector<PairJoin> joins;
  for (size_t i = 0; i < views.size(); ++i) {
    for (size_t j = i + 1; j < views.size(); ++j) {
      PairJoin pj;
      pj.a = i;
      pj.b = j;
      pj.a_vs_b = one_way(i, j);
      pj.b_vs_a = one_way(j, i);
      joins.push_back(std::move(pj));
    }
  }
  return joins;
}

void RunConfigMatrix(const std::vector<std::span<const double>>& views,
                     size_t window, MetricId metric) {
  const std::vector<PairJoin> expected =
      ReferenceJoins(views, window, metric);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    MatrixProfileEngine engine(threads);
    const std::vector<PairJoin> actual =
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
  const std::vector<PairJoin> expected =
      ReferenceJoins(views, 10, MetricId::kZNormEuclidean);

  MatrixProfileEngine engine(2);
  const ArtifactTable table = engine.BuildTable(views, 10);
  EXPECT_EQ(table.window, 10u);
  EXPECT_GT(table.entry_count(), 0u);
  std::vector<PairJoin> joins;
  for (int rep = 0; rep < 3; ++rep) {
    // Capacity reuse across repeats (the serving-loop form) and sweeping
    // one table again must not change a bit.
    engine.JoinAllPairsInto(table, joins);
    ExpectJoinsBitwiseEqual(expected, joins,
                            "rep " + std::to_string(rep));
  }
  EXPECT_EQ(engine.counters().table_builds, 1u);
}

}  // namespace
}  // namespace ips
