// Process-wide metrics registry: named counters and histograms.
//
// Before this layer every engine kept its own bag of `std::atomic<size_t>`
// members and every consumer (IpsRunStats, exp_* binaries) hand-copied them
// field by field. The registry gives all of them one home: a metric is
// registered once by name, incremented with relaxed atomics from any
// thread, and read back as a point-in-time snapshot. Run-level accounting
// is a delta of two snapshots -- the pattern IpsRunStats::FromRegistry and
// the benchmark binaries use -- so monotonic process-wide totals serve
// any number of overlapping observers.
//
// Hot-path cost is one relaxed fetch_add per event; registration (the only
// mutex) happens once per name, so callers bind `Counter&` references up
// front (a function-local static in the incrementing TU is the idiom, see
// util/thread_pool.cc).
//
// Naming convention: dot-separated "<subsystem>.<event>" --
// "pool.tasks_run", "engine.stats_cache_hits", "mp.qt_sweeps",
// "ips.motifs_generated". docs/observability.md lists every metric the
// library emits and how to add one.

#ifndef IPS_OBS_METRICS_H_
#define IPS_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace ips::obs {

/// Monotonic event counter. Obtained from (and owned by) the registry;
/// the reference stays valid for the process lifetime.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  std::atomic<uint64_t> value_{0};
};

/// Power-of-two bucketed histogram over non-negative integer samples
/// (batch sizes, region item counts). Bucket b holds samples in
/// [BucketLowerBound(b), BucketLowerBound(b + 1)): 0, 1, 2-3, 4-7, ...
/// with the last bucket open-ended, plus the largest sample seen.
/// Observe() is lock-free (relaxed fetch_adds, and a compare-exchange only
/// when a sample raises the maximum); a snapshot taken during concurrent
/// writes may be mid-update by one sample, which run-delta consumers
/// tolerate by construction.
class Histogram {
 public:
  static constexpr size_t kBuckets = 32;

  void Observe(uint64_t value) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    uint64_t max = max_.load(std::memory_order_relaxed);
    while (value > max &&
           !max_.compare_exchange_weak(max, value, std::memory_order_relaxed)) {
    }
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t Max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  /// Smallest sample value that lands in bucket `b`.
  static uint64_t BucketLowerBound(size_t b) {
    return b == 0 ? 0 : uint64_t{1} << (b - 1);
  }

  /// 0 -> 0, 1 -> 1, 2-3 -> 2, 4-7 -> 3, ... clamped to the last bucket.
  static size_t BucketIndex(uint64_t value) {
    size_t bits = 0;
    for (uint64_t v = value; v != 0; v >>= 1) ++bits;
    return bits < kBuckets ? bits : kBuckets - 1;
  }

 private:
  friend class MetricsRegistry;
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  /// Largest sample ever observed. A maximum cannot be subtracted, so a
  /// Delta keeps the later snapshot's: an upper bound on the window's
  /// largest sample, exact whenever the window raised it.
  uint64_t max = 0;
  std::array<uint64_t, Histogram::kBuckets> buckets{};

  /// Estimate of the value at quantile `q` in [0, 1] (0.5 = median,
  /// 0.99 = p99), interpolated linearly within the power-of-two bucket the
  /// rank falls in -- accurate to the bucket width, the resolution the
  /// serving layer's p50/p99 latency export needs without storing raw
  /// samples. 0 on an empty snapshot. `q` is clamped to [0, 1].
  double ValueAtQuantile(double q) const;
};

/// Point-in-time copy of every registered metric. Ordered maps keep every
/// rendering (JSON, tables) deterministic.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Counter value by name; 0 when the metric has not been registered.
  uint64_t CounterValue(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

class MetricsRegistry {
 public:
  /// The process-wide registry (leaky singleton: metric references must
  /// outlive atexit-ordered users such as the thread pool's shutdown).
  static MetricsRegistry& Instance();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter registered under `name`, creating it on first
  /// use. The same name always yields the same instance.
  Counter& GetCounter(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  /// Per-metric `after - before`. Metrics absent from `before` count from
  /// zero; zero-delta entries are dropped so run reports only mention what
  /// the run touched.
  static MetricsSnapshot Delta(const MetricsSnapshot& before,
                               const MetricsSnapshot& after);

  /// Delta(before, Snapshot()).
  MetricsSnapshot DeltaSince(const MetricsSnapshot& before) const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace ips::obs

#endif  // IPS_OBS_METRICS_H_
