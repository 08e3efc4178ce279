#include "core/distance_engine.h"

#include <cmath>

#include <algorithm>
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

constexpr MetricId kRaw = MetricId::kRawSquaredEuclidean;
constexpr MetricId kZNorm = MetricId::kZNormEuclidean;

Dataset SyntheticData(const char* name, size_t train_size, size_t length) {
  GeneratorSpec spec;
  spec.name = name;
  spec.num_classes = 2;
  spec.train_size = train_size;
  spec.test_size = 2;
  spec.length = length;
  return GenerateDataset(spec).train;
}

std::vector<std::span<const double>> Views(
    const std::vector<Subsequence>& cands) {
  std::vector<std::span<const double>> views;
  for (const Subsequence& c : cands) views.push_back(c.view());
  return views;
}

// Full n x n matrix (row-major) of pairwise distances through MinForPairs:
// `symmetric` computes each unordered pair once and mirrors it, otherwise
// both orders run. The diagonal is exactly 0, as SubsequenceDistance(x, x).
std::vector<double> PairwiseMatrix(
    DistanceEngine& engine, const std::vector<std::span<const double>>& views,
    bool symmetric) {
  const size_t n = views.size();
  std::vector<IndexPair> pairs;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = symmetric ? i + 1 : 0; j < n; ++j) {
      if (i != j) pairs.emplace_back(i, j);
    }
  }
  const std::vector<double> dists = engine.MinForPairs(views, pairs);
  std::vector<double> matrix(n * n, 0.0);
  for (size_t t = 0; t < pairs.size(); ++t) {
    const auto [i, j] = pairs[t];
    matrix[static_cast<size_t>(i) * n + j] = dists[t];
    if (symmetric) matrix[static_cast<size_t>(j) * n + i] = dists[t];
  }
  return matrix;
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
    EXPECT_EQ(engine.SubsequenceMinMetric(a, b, kRaw), expected)
        << m << "x" << n;
    // A second evaluation on the warm scratch agrees exactly.
    EXPECT_EQ(engine.SubsequenceMinMetric(a, b, kRaw), expected);
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
  EXPECT_EQ(engine.SubsequenceMinMetric(query, series, kRaw), expected);
  EXPECT_EQ(engine.SubsequenceMinMetric(series, query, kRaw), expected);
  // MinForPairs takes the query's reversed FFT from its table, once for
  // both orders.
  const std::vector<std::span<const double>> views = {query, series};
  for (const MetricId metric : {kRaw, kZNorm}) {
    EXPECT_EQ(engine.MinForPairs(views, {{0, 1}, {1, 0}}, metric),
              std::vector<double>(
                  2, SubsequenceDistanceMetric(query, series, metric)))
        << MetricName(metric);
  }
}

TEST(DistanceEngineTest, SubsequenceMinZNormMatchesKernelBitwise) {
  Rng rng(13);
  DistanceEngine engine(1);
  for (const auto& [m, n] : std::vector<std::pair<size_t, size_t>>{
           {4, 24}, {16, 16}, {24, 4}, {80, 640}}) {
    const std::vector<double> a = RandomSeries(rng, m);
    const std::vector<double> b = RandomSeries(rng, n);
    const double expected = SubsequenceDistanceZNorm(a, b);
    EXPECT_EQ(engine.SubsequenceMinMetric(a, b, kZNorm), expected)
        << m << "x" << n;
    EXPECT_EQ(engine.SubsequenceMinMetric(a, b, kZNorm), expected);
  }
}

TEST(DistanceEngineTest, ZNormHandlesFlatWindows) {
  DistanceEngine engine(1);
  const std::vector<double> flat(8, 3.0);
  const std::vector<double> mixed{0, 0, 0, 0, 0, 0, 0, 0, 1, 5, -2, 4,
                                  1, 2, 3, 4};
  EXPECT_EQ(engine.SubsequenceMinMetric(flat, mixed, kZNorm),
            SubsequenceDistanceZNorm(flat, mixed));
  EXPECT_EQ(engine.SubsequenceMinMetric(mixed, flat, kZNorm),
            SubsequenceDistanceZNorm(mixed, flat));
  EXPECT_EQ(engine.SubsequenceMinMetric(flat, flat, kZNorm),
            SubsequenceDistanceZNorm(flat, flat));
}

// -------------------------------------------------------------------- batched

TEST(DistanceEngineTest, PairwiseMatrixMatchesNestedLoops) {
  const Dataset train = SyntheticData("engine-pairwise", 6, 72);
  std::vector<Subsequence> cands;
  for (size_t i = 0; i < train.size(); ++i) {
    cands.push_back(ExtractSubsequence(train[i], i, 20 + (i % 3)));
  }
  const std::vector<std::span<const double>> views = Views(cands);
  const size_t n = cands.size();

  for (const size_t threads : {1u, 2u, 8u}) {
    DistanceEngine engine(threads);
    const std::vector<double> sym = PairwiseMatrix(engine, views, true);
    const std::vector<double> naive = PairwiseMatrix(engine, views, false);
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

TEST(DistanceEngineTest, BatchedResultsIdenticalAcrossThreadCounts) {
  const Dataset train = SyntheticData("engine-threads", 12, 100);
  std::vector<Subsequence> cands;
  for (size_t i = 0; i < train.size(); ++i) {
    cands.push_back(ExtractSubsequence(train[i], 2 * i, 16 + (i % 5)));
  }
  const std::vector<std::span<const double>> views = Views(cands);
  DistanceEngine serial(1);
  const auto pair_base = PairwiseMatrix(serial, views, true);
  const auto rows_base =
      ShapeletTransform(train, cands, kZNorm, 1, &serial).features;
  for (const size_t threads : {2u, 8u}) {
    DistanceEngine engine(threads);
    EXPECT_EQ(PairwiseMatrix(engine, views, true), pair_base);
    EXPECT_EQ(ShapeletTransform(train, cands, kZNorm, 1, &engine).features,
              rows_base);
  }
}

// The engine keeps no artefact between calls, so a buffer freed after one
// MinForPairs and handed back by malloc -- same address, views of the same
// lengths, other values -- must be read afresh by the next call. (An
// engine that keyed artefacts by address and length served the old
// values' prefix sums and z-normalised queries here.) The views share one
// buffer too large for malloc's small-size caches, so the call's own
// short-lived allocations do not take its place.
TEST(DistanceEngineTest, MinForPairsOverRefilledBuffersMatchesKernel) {
  constexpr size_t kBuffer = 4096;
  constexpr size_t kStarts[5] = {0, 30, 60, 110, 160};
  std::vector<IndexPair> pairs;
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t j = 0; j < 4; ++j) {
      if (i != j) pairs.emplace_back(i, j);
    }
  }
  for (const MetricId metric : {kRaw, kZNorm}) {
    SCOPED_TRACE(MetricName(metric));
    DistanceEngine engine(1);
    Rng rng(41);
    std::vector<double> buf;
    auto refill = [&] {
      buf.resize(kBuffer);
      for (double& v : buf) v = rng.Uniform(-2.0, 2.0);
      std::vector<std::span<const double>> views;
      for (size_t i = 0; i < 4; ++i) {
        views.emplace_back(buf.data() + kStarts[i],
                           kStarts[i + 1] - kStarts[i]);
      }
      return views;
    };
    engine.MinForPairs(refill(), pairs, metric);
    const double* before = buf.data();
    std::vector<double>().swap(buf);
    const std::vector<std::span<const double>> views = refill();
    if (buf.data() != before) GTEST_SKIP() << "malloc did not reuse the buffer";

    const std::vector<double> got = engine.MinForPairs(views, pairs, metric);
    for (size_t t = 0; t < pairs.size(); ++t) {
      EXPECT_EQ(got[t],
                SubsequenceDistanceMetric(views[pairs[t].first],
                                          views[pairs[t].second], metric))
          << "pair " << pairs[t].first << "," << pairs[t].second;
    }
  }
}

// ------------------------------------------------------------ instrumentation

TEST(DistanceEngineTest, CountersTrackProfiles) {
  Rng rng(29);
  const std::vector<double> a = RandomSeries(rng, 16);
  const std::vector<double> b = RandomSeries(rng, 128);
  DistanceEngine engine(1);
  EXPECT_EQ(engine.counters().profiles_computed, 0u);

  engine.SubsequenceMinMetric(a, b, kRaw);
  EXPECT_EQ(engine.counters().profiles_computed, 1u);
  engine.MinForPairs({a, b}, {{0, 1}, {1, 0}, {0, 0}});
  EXPECT_EQ(engine.counters().profiles_computed, 4u);

  // ResetCounters zeroes the telemetry.
  engine.ResetCounters();
  EXPECT_EQ(engine.counters().profiles_computed, 0u);
  engine.SubsequenceMinMetric(a, b, kRaw);
  EXPECT_EQ(engine.counters().profiles_computed, 1u);
}

// ------------------------------------------------------------ threaded stress

// Several threads hammer one shared engine with batched calls while others
// run single pairs and the raw kernels on the same data; every thread must
// observe results bitwise identical to the serial baselines. Run under
// -fsanitize=thread in CI (the IPS_SANITIZE build) to catch data races.
TEST(DistanceEngineStressTest, ConcurrentBatchesMatchSerialBitwise) {
  const Dataset train = SyntheticData("engine-stress", 10, 128);
  std::vector<Subsequence> cands;
  for (size_t i = 0; i < train.size(); ++i) {
    cands.push_back(ExtractSubsequence(train[i], i, 24));
  }
  const std::vector<std::span<const double>> views = Views(cands);

  DistanceEngine baseline(1);
  const auto pair_base = PairwiseMatrix(baseline, views, true);
  const auto rows_base =
      ShapeletTransform(train, cands, kRaw, 1, &baseline).features;
  Rng rng(31);
  const std::vector<double> query = RandomSeries(rng, 32);

  DistanceEngine shared(2);
  std::atomic<int> mismatches{0};
  auto check = [&](bool ok) {
    if (!ok) mismatches.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int iter = 0; iter < 4; ++iter) {
        check(PairwiseMatrix(shared, views, true) == pair_base);
        check(ShapeletTransform(train, cands, kRaw, 1, &shared).features ==
              rows_base);
      }
    });
  }
  // Single-pair threads sharing the same underlying buffers.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int iter = 0; iter < 4; ++iter) {
        for (size_t i = 0; i < cands.size(); ++i) {
          check(SubsequenceDistance(query, cands[i].view()) ==
                shared.SubsequenceMinMetric(query, cands[i].view(), kRaw));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace ips
