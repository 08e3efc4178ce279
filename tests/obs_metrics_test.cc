// The metrics registry: identity of named metrics, histogram bucketing,
// snapshot/delta windowing, and exactness of concurrent increments (the
// `concurrency` label puts this binary under the sanitizer sweeps).

#include "obs/metrics.h"

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"

namespace ips::obs {
namespace {

TEST(MetricsRegistryTest, SameNameYieldsSameCounter) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  Counter& a = reg.GetCounter("obs_metrics_test.identity");
  Counter& b = reg.GetCounter("obs_metrics_test.identity");
  EXPECT_EQ(&a, &b);
  Counter& other = reg.GetCounter("obs_metrics_test.identity2");
  EXPECT_NE(&a, &other);
}

TEST(MetricsRegistryTest, CounterAddsAndReads) {
  Counter& c = MetricsRegistry::Instance().GetCounter("obs_metrics_test.add");
  const uint64_t start = c.Value();
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), start + 42);
}

TEST(MetricsRegistryTest, DeltaIsolatesAWindow) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  Counter& inside = reg.GetCounter("obs_metrics_test.inside");
  Counter& outside = reg.GetCounter("obs_metrics_test.outside");
  outside.Add(5);
  const MetricsSnapshot before = reg.Snapshot();
  inside.Add(3);
  const MetricsSnapshot delta = reg.DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("obs_metrics_test.inside"), 3u);
  // Untouched metrics are dropped from the delta entirely.
  EXPECT_EQ(delta.counters.count("obs_metrics_test.outside"), 0u);
  EXPECT_EQ(delta.CounterValue("obs_metrics_test.outside"), 0u);
  EXPECT_EQ(delta.CounterValue("obs_metrics_test.never_registered"), 0u);
}

TEST(HistogramTest, BucketBoundsArePowersOfTwo) {
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::BucketLowerBound(2), 2u);
  EXPECT_EQ(Histogram::BucketLowerBound(3), 4u);
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  // Huge samples clamp into the final open-ended bucket.
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), Histogram::kBuckets - 1);
}

TEST(HistogramTest, ObserveUpdatesCountSumBuckets) {
  Histogram& h =
      MetricsRegistry::Instance().GetHistogram("obs_metrics_test.hist");
  const uint64_t count0 = h.Count();
  const uint64_t sum0 = h.Sum();
  const uint64_t b2_before = h.BucketCount(2);
  h.Observe(2);
  h.Observe(100);
  h.Observe(3);
  EXPECT_EQ(h.Count(), count0 + 3);
  EXPECT_EQ(h.Sum(), sum0 + 105);
  EXPECT_EQ(h.BucketCount(2), b2_before + 2);
  EXPECT_EQ(h.Max(), 100u);
}

TEST(MetricsRegistryTest, HistogramDeltaSubtractsPerBucket) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  Histogram& h = reg.GetHistogram("obs_metrics_test.hist_delta");
  h.Observe(1);
  const MetricsSnapshot before = reg.Snapshot();
  h.Observe(4);
  h.Observe(5);
  const MetricsSnapshot delta = reg.DeltaSince(before);
  const auto it = delta.histograms.find("obs_metrics_test.hist_delta");
  ASSERT_NE(it, delta.histograms.end());
  EXPECT_EQ(it->second.count, 2u);
  EXPECT_EQ(it->second.sum, 9u);
  EXPECT_EQ(it->second.buckets[Histogram::BucketIndex(4)], 2u);
  EXPECT_EQ(it->second.buckets[Histogram::BucketIndex(1)], 0u);
  // A maximum cannot be subtracted: the delta keeps the lifetime value.
  EXPECT_EQ(it->second.max, 5u);
  EXPECT_EQ(HistogramStatsToJson(it->second).Get("max").AsUint64(), 5u);
}

TEST(MetricsExportTest, JsonListsCountersAndSparseBuckets) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  const MetricsSnapshot before = reg.Snapshot();
  reg.GetCounter("obs_metrics_test.json_counter").Add(7);
  reg.GetHistogram("obs_metrics_test.json_hist").Observe(6);
  const MetricsSnapshot delta = reg.DeltaSince(before);
  const JsonValue json = MetricsToJson(delta);
  EXPECT_EQ(
      json.Get("counters").Get("obs_metrics_test.json_counter").AsUint64(),
      7u);
  const JsonValue& hist =
      json.Get("histograms").Get("obs_metrics_test.json_hist");
  EXPECT_EQ(hist.Get("count").AsUint64(), 1u);
  EXPECT_EQ(hist.Get("sum").AsUint64(), 6u);
  // Sparse buckets: exactly one entry, lower bound 4 (bucket of sample 6).
  ASSERT_EQ(hist.Get("buckets").size(), 1u);
  EXPECT_EQ(hist.Get("buckets").At(0).Get("ge").AsUint64(), 4u);
  EXPECT_EQ(hist.Get("buckets").At(0).Get("count").AsUint64(), 1u);
}

// Concurrency: increments from many threads must all land; registration
// races (first GetCounter of a name from several threads) must yield one
// instance. Run under TSan via the `concurrency` ctest label.
TEST(MetricsConcurrencyTest, ConcurrentAddsAreExact) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  Counter& c = reg.GetCounter("obs_metrics_test.concurrent_add");
  Histogram& h = reg.GetHistogram("obs_metrics_test.concurrent_hist");
  const uint64_t start = c.Value();
  const uint64_t hist_start = h.Count();
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kIters; ++i) {
        c.Add();
        h.Observe(static_cast<uint64_t>(i % 16));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), start + uint64_t{kThreads} * kIters);
  EXPECT_EQ(h.Count(), hist_start + uint64_t{kThreads} * kIters);
  EXPECT_EQ(h.Max(), 15u);
}

TEST(MetricsConcurrencyTest, ConcurrentRegistrationYieldsOneInstance) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &seen, t] {
      Counter& c = reg.GetCounter("obs_metrics_test.race_registration");
      c.Add();
      seen[static_cast<size_t>(t)] = &c;
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);
  }
  EXPECT_GE(reg.GetCounter("obs_metrics_test.race_registration").Value(),
            uint64_t{kThreads});
}

TEST(MetricsConcurrencyTest, SnapshotDuringWritesIsSafe) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  Counter& c = reg.GetCounter("obs_metrics_test.snapshot_race");
  std::thread writer([&c] {
    for (int i = 0; i < 20000; ++i) c.Add();
  });
  uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot snap = reg.Snapshot();
    const uint64_t now = snap.CounterValue("obs_metrics_test.snapshot_race");
    EXPECT_GE(now, last);  // monotonic under concurrent writes
    last = now;
  }
  writer.join();
  EXPECT_EQ(c.Value(), 20000u);
}

}  // namespace
}  // namespace ips::obs
