#include "core/distance_engine.h"

#include <cmath>

#include <atomic>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "core/rng.h"
#include "data/generator.h"
#include "transform/shapelet_transform.h"

namespace ips {
namespace {

std::vector<double> RandomSeries(Rng& rng, size_t n) {
  std::vector<double> s(n);
  for (double& v : s) v = rng.Uniform(-2.0, 2.0);
  return s;
}

Dataset SyntheticData(const char* name, size_t train_size, size_t length) {
  GeneratorSpec spec;
  spec.name = name;
  spec.num_classes = 2;
  spec.train_size = train_size;
  spec.test_size = 2;
  spec.length = length;
  return GenerateDataset(spec).train;
}

// ---------------------------------------------------------------- single pair

TEST(DistanceEngineTest, SubsequenceMinMatchesKernelBitwise) {
  Rng rng(7);
  DistanceEngine engine(1);
  for (const auto& [m, n] : std::vector<std::pair<size_t, size_t>>{
           {1, 1}, {5, 5}, {8, 31}, {31, 8}, {63, 200}, {64, 64}}) {
    const std::vector<double> a = RandomSeries(rng, m);
    const std::vector<double> b = RandomSeries(rng, n);
    const double expected = SubsequenceDistance(a, b);
    EXPECT_EQ(engine.SubsequenceMin(a, b), expected) << m << "x" << n;
    // Cached second evaluation must agree exactly with the first.
    EXPECT_EQ(engine.SubsequenceMin(a, b, /*cache_b=*/true), expected);
    EXPECT_EQ(engine.SubsequenceMin(a, b, /*cache_b=*/true), expected);
  }
}

TEST(DistanceEngineTest, SubsequenceMinFftPathMatchesKernelBitwise) {
  Rng rng(11);
  // Long query over a long series forces the FFT sliding-product path
  // (m >= kFftCutoff and the cost model prefers n log n).
  const std::vector<double> query = RandomSeries(rng, 512);
  const std::vector<double> series = RandomSeries(rng, 4096);
  const double expected = SubsequenceDistance(query, series);

  DistanceEngine engine(1);
  EXPECT_EQ(engine.SubsequenceMin(query, series), expected);
  // With series-side FFT/prefix caching: first call fills, second call hits.
  EXPECT_EQ(engine.SubsequenceMin(query, series, /*cache_b=*/true), expected);
  EXPECT_EQ(engine.SubsequenceMin(query, series, /*cache_b=*/true), expected);
  EXPECT_GT(engine.counters().stats_cache_hits, 0u);
}

TEST(DistanceEngineTest, SubsequenceMinZNormMatchesKernelBitwise) {
  Rng rng(13);
  DistanceEngine engine(1);
  for (const auto& [m, n] : std::vector<std::pair<size_t, size_t>>{
           {4, 24}, {16, 16}, {24, 4}, {80, 640}}) {
    const std::vector<double> a = RandomSeries(rng, m);
    const std::vector<double> b = RandomSeries(rng, n);
    const double expected = SubsequenceDistanceZNorm(a, b);
    EXPECT_EQ(engine.SubsequenceMinZNorm(a, b), expected) << m << "x" << n;
    EXPECT_EQ(engine.SubsequenceMinZNorm(a, b, /*cache_b=*/true), expected);
    EXPECT_EQ(engine.SubsequenceMinZNorm(a, b, /*cache_b=*/true), expected);
  }
}

TEST(DistanceEngineTest, ZNormHandlesFlatWindows) {
  DistanceEngine engine(1);
  const std::vector<double> flat(8, 3.0);
  const std::vector<double> mixed{0, 0, 0, 0, 0, 0, 0, 0, 1, 5, -2, 4,
                                  1, 2, 3, 4};
  EXPECT_EQ(engine.SubsequenceMinZNorm(flat, mixed),
            SubsequenceDistanceZNorm(flat, mixed));
  EXPECT_EQ(engine.SubsequenceMinZNorm(mixed, flat),
            SubsequenceDistanceZNorm(mixed, flat));
  EXPECT_EQ(engine.SubsequenceMinZNorm(flat, flat),
            SubsequenceDistanceZNorm(flat, flat));
}

// -------------------------------------------------------------------- batched

TEST(DistanceEngineTest, ProfileAgainstSeriesMatchesKernelBitwise) {
  Rng rng(17);
  DistanceEngine engine(1);
  for (const size_t m : {3u, 70u}) {
    const std::vector<double> query = RandomSeries(rng, m);
    const std::vector<double> series = RandomSeries(rng, 300);
    EXPECT_EQ(engine.ProfileAgainstSeries(query, series),
              DistanceProfileRaw(query, series));
  }
}

TEST(DistanceEngineTest, ProfileAgainstDatasetMatchesPerSeriesProfiles) {
  const Dataset train = SyntheticData("engine-profile", 8, 96);
  Rng rng(19);
  const std::vector<double> query = RandomSeries(rng, 24);
  DistanceEngine engine(2);
  const auto profiles = engine.ProfileAgainstDataset(query, train);
  ASSERT_EQ(profiles.size(), train.size());
  for (size_t i = 0; i < train.size(); ++i) {
    EXPECT_EQ(profiles[i], DistanceProfileRaw(query, train[i].view())) << i;
  }
}

TEST(DistanceEngineTest, MinAgainstDatasetMatchesSerialLoop) {
  const Dataset train = SyntheticData("engine-min", 9, 80);
  Rng rng(23);
  const std::vector<double> query = RandomSeries(rng, 120);
  DistanceEngine engine(2);
  const std::vector<double> raw =
      engine.MinAgainstDataset(query, train, MetricId::kRawSquaredEuclidean);
  const std::vector<double> zn =
      engine.MinAgainstDataset(query, train, MetricId::kZNormEuclidean);
  ASSERT_EQ(raw.size(), train.size());
  for (size_t i = 0; i < train.size(); ++i) {
    EXPECT_EQ(raw[i], SubsequenceDistance(query, train[i].view())) << i;
    EXPECT_EQ(zn[i], SubsequenceDistanceZNorm(query, train[i].view())) << i;
  }
}

TEST(DistanceEngineTest, PairwiseMatrixMatchesNestedLoops) {
  const Dataset train = SyntheticData("engine-pairwise", 6, 72);
  std::vector<Subsequence> cands;
  for (size_t i = 0; i < train.size(); ++i) {
    cands.push_back(ExtractSubsequence(train[i], i, 20 + (i % 3)));
  }
  const size_t n = cands.size();

  for (const size_t threads : {1u, 2u, 8u}) {
    DistanceEngine engine(threads);
    const std::vector<double> sym = engine.PairwiseSubsequenceMin(cands);
    const std::vector<double> naive =
        engine.PairwiseSubsequenceMin(cands, /*symmetric=*/false);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        const double expected =
            i == j ? 0.0
                   : SubsequenceDistance(cands[i].view(), cands[j].view());
        EXPECT_EQ(sym[i * n + j], expected) << i << "," << j;
        EXPECT_EQ(naive[i * n + j], expected) << i << "," << j;
      }
    }
  }
}

TEST(DistanceEngineTest, TransformBatchMatchesTransformSeriesBitwise) {
  const Dataset train = SyntheticData("engine-transform", 10, 64);
  std::vector<Subsequence> shapelets;
  for (size_t i = 0; i < 4; ++i) {
    shapelets.push_back(ExtractSubsequence(train[i], i, 12));
  }
  for (const MetricId metric :
       {MetricId::kRawSquaredEuclidean, MetricId::kZNormEuclidean,
        MetricId::kEuclidean, MetricId::kCosine}) {
    DistanceEngine engine(2);
    const auto rows = engine.TransformBatch(train, shapelets, metric);
    ASSERT_EQ(rows.size(), train.size());
    for (size_t i = 0; i < train.size(); ++i) {
      EXPECT_EQ(rows[i], TransformSeries(train[i], shapelets, metric)) << i;
    }
  }
}

TEST(DistanceEngineTest, BatchedResultsIdenticalAcrossThreadCounts) {
  const Dataset train = SyntheticData("engine-threads", 12, 100);
  std::vector<Subsequence> cands;
  for (size_t i = 0; i < train.size(); ++i) {
    cands.push_back(ExtractSubsequence(train[i], 2 * i, 16 + (i % 5)));
  }
  DistanceEngine serial(1);
  const auto pair_base = serial.PairwiseSubsequenceMin(cands);
  const auto rows_base =
      serial.TransformBatch(train, cands, MetricId::kZNormEuclidean);
  for (const size_t threads : {2u, 8u}) {
    DistanceEngine engine(threads);
    EXPECT_EQ(engine.PairwiseSubsequenceMin(cands), pair_base);
    EXPECT_EQ(engine.TransformBatch(train, cands, MetricId::kZNormEuclidean),
              rows_base);
  }
}

// ------------------------------------------------------------ instrumentation

TEST(DistanceEngineTest, CountersTrackProfilesAndCacheTraffic) {
  Rng rng(29);
  const std::vector<double> a = RandomSeries(rng, 16);
  const std::vector<double> b = RandomSeries(rng, 128);
  DistanceEngine engine(1);
  EXPECT_EQ(engine.counters().profiles_computed, 0u);

  engine.SubsequenceMin(a, b, /*cache_b=*/true);
  const EngineCounters first = engine.counters();
  EXPECT_EQ(first.profiles_computed, 1u);
  EXPECT_GT(first.stats_cache_misses, 0u);
  EXPECT_EQ(first.stats_cache_hits, 0u);

  engine.SubsequenceMin(a, b, /*cache_b=*/true);
  const EngineCounters second = engine.counters();
  EXPECT_EQ(second.profiles_computed, 2u);
  EXPECT_EQ(second.stats_cache_misses, first.stats_cache_misses);
  EXPECT_GT(second.stats_cache_hits, 0u);

  // ClearCaches forces recomputation; ResetCounters zeroes the telemetry.
  engine.ClearCaches();
  engine.ResetCounters();
  engine.SubsequenceMin(a, b, /*cache_b=*/true);
  const EngineCounters third = engine.counters();
  EXPECT_EQ(third.profiles_computed, 1u);
  EXPECT_GT(third.stats_cache_misses, 0u);
  EXPECT_EQ(third.stats_cache_hits, 0u);
}

// The transform builds each series' artefacts per row and never caches
// them: the only cache entries a TransformBatch makes are shapelet-side,
// so the miss count (one per entry inserted) is the same for 3 series as
// for 24, and a second batch over new series adds none. Shapelet lengths
// straddle the FFT cutoff so the series-side transforms are covered too.
TEST(DistanceEngineTest, TransformBatchCachesNoSeriesArtefacts) {
  const Dataset many = SyntheticData("engine-nocache", 24, 512);
  Dataset few;
  for (size_t i = 0; i < 3; ++i) few.Add(many[i]);
  std::vector<Subsequence> shapelets;
  for (size_t len : {8, 21, 64, 300}) {
    shapelets.push_back(ExtractSubsequence(many[len % 5], len % 7, len));
  }
  for (const MetricId metric :
       {MetricId::kRawSquaredEuclidean, MetricId::kZNormEuclidean,
        MetricId::kEuclidean, MetricId::kCosine}) {
    // One thread: two workers racing on the same shapelet would both
    // count a miss, and the count would no longer be deterministic.
    DistanceEngine small(1);
    DistanceEngine large(1);
    small.TransformBatch(few, shapelets, metric);
    large.TransformBatch(many, shapelets, metric);
    const size_t misses = small.counters().stats_cache_misses;
    EXPECT_GT(misses, 0u) << MetricName(metric);  // shapelet artefacts
    EXPECT_EQ(large.counters().stats_cache_misses, misses)
        << MetricName(metric);
    large.TransformBatch(few, shapelets, metric);
    EXPECT_EQ(large.counters().stats_cache_misses, misses)
        << MetricName(metric);
  }
}

// ------------------------------------------------------------ threaded stress

// Several threads hammer one shared engine with batched APIs while others
// run the raw kernels on the same data; every thread must observe results
// bitwise identical to the serial baselines. Run under
// -fsanitize=thread in CI (the IPS_SANITIZE build) to catch data races.
TEST(DistanceEngineStressTest, ConcurrentBatchesMatchSerialBitwise) {
  const Dataset train = SyntheticData("engine-stress", 10, 128);
  std::vector<Subsequence> cands;
  for (size_t i = 0; i < train.size(); ++i) {
    cands.push_back(ExtractSubsequence(train[i], i, 24));
  }

  DistanceEngine baseline(1);
  const auto pair_base = baseline.PairwiseSubsequenceMin(cands);
  const auto rows_base =
      baseline.TransformBatch(train, cands, MetricId::kRawSquaredEuclidean);
  Rng rng(31);
  const std::vector<double> query = RandomSeries(rng, 32);
  const auto profile_base = baseline.ProfileAgainstDataset(query, train);

  DistanceEngine shared(2);
  std::atomic<int> mismatches{0};
  auto check = [&](bool ok) {
    if (!ok) mismatches.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int iter = 0; iter < 4; ++iter) {
        check(shared.PairwiseSubsequenceMin(cands) == pair_base);
        check(shared.TransformBatch(train, cands, MetricId::kRawSquaredEuclidean) ==
              rows_base);
        check(shared.ProfileAgainstDataset(query, train) == profile_base);
      }
    });
  }
  // Raw-kernel threads sharing the same underlying buffers.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int iter = 0; iter < 4; ++iter) {
        for (size_t i = 0; i < cands.size(); ++i) {
          check(SubsequenceDistance(query, cands[i].view()) ==
                shared.SubsequenceMin(query, cands[i].view()));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace ips
