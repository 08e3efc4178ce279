#include "obs/metrics.h"

namespace ips::obs {

double HistogramSnapshot::ValueAtQuantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the requested quantile among `count` samples, 1-based; walk
  // the buckets until the cumulative count reaches it.
  const double rank = q * static_cast<double>(count - 1) + 1.0;
  uint64_t cumulative = 0;
  for (size_t b = 0; b < Histogram::kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) < rank) continue;
    const double lower = static_cast<double>(Histogram::BucketLowerBound(b));
    // The open-ended last bucket has no width to interpolate across.
    if (b + 1 == Histogram::kBuckets) return lower;
    const double upper =
        static_cast<double>(Histogram::BucketLowerBound(b + 1));
    const double frac = (rank - before) / static_cast<double>(buckets[b]);
    return lower + (upper - lower) * frac;
  }
  return static_cast<double>(
      Histogram::BucketLowerBound(Histogram::kBuckets - 1));
}

MetricsRegistry& MetricsRegistry::Instance() {
  // Leaky: worker threads and atexit hooks may increment counters during
  // process teardown, after static destructors would have run.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::unique_ptr<Counter>(new Counter());
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::unique_ptr<Histogram>(new Histogram());
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace(name, counter->Value());
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.count = histogram->Count();
    h.sum = histogram->Sum();
    h.max = histogram->Max();
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      h.buckets[b] = histogram->BucketCount(b);
    }
    snapshot.histograms.emplace(name, h);
  }
  return snapshot;
}

MetricsSnapshot MetricsRegistry::Delta(const MetricsSnapshot& before,
                                       const MetricsSnapshot& after) {
  MetricsSnapshot delta;
  for (const auto& [name, value] : after.counters) {
    const uint64_t prior = before.CounterValue(name);
    if (value > prior) delta.counters.emplace(name, value - prior);
  }
  for (const auto& [name, h] : after.histograms) {
    HistogramSnapshot d = h;
    if (const auto it = before.histograms.find(name);
        it != before.histograms.end()) {
      d.count -= it->second.count;
      d.sum -= it->second.sum;
      for (size_t b = 0; b < Histogram::kBuckets; ++b) {
        d.buckets[b] -= it->second.buckets[b];
      }
    }
    if (d.count != 0) delta.histograms.emplace(name, d);
  }
  return delta;
}

MetricsSnapshot MetricsRegistry::DeltaSince(
    const MetricsSnapshot& before) const {
  return Delta(before, Snapshot());
}

}  // namespace ips::obs
