#include "transform/shapelet_bank.h"

#include <cmath>
#include <cstdio>

#include <algorithm>

#include "core/distance.h"
#include "core/fft.h"
#include "util/check.h"
#include "util/parallel.h"

namespace ips {

namespace {

// The scratch every transform row runs on and lands in: one per thread,
// so a serving thread or pool worker keeps its buffers warm across calls,
// and a lone series allocates nothing once its thread has seen its length.
struct RowScratch {
  DistanceWorkspace ws;
  std::vector<double> row;
};

RowScratch& Local() {
  static thread_local RowScratch scratch;
  return scratch;
}

// Runs fn(i) for i in [0, count) on up to `num_threads` threads (0 =
// auto), inline when one suffices.
template <typename Fn>
void ForRows(size_t count, size_t num_threads, Fn&& fn) {
  const size_t workers = std::min(ResolveNumThreads(num_threads), count);
  if (workers <= 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  ParallelFor(count, workers, fn);
}

// The min tail of a shapelet under `metric`, given its z-normalised
// flatness and its sum of squares: a flat z-normalised or cosine query has
// its own.
simd::MinTail TailOf(MetricId metric, bool zn_flat, double qq) {
  using simd::MinTail;
  if (metric == MetricId::kZNormEuclidean) {
    return zn_flat ? MinTail::kZNormFlat : MinTail::kZNorm;
  }
  if (metric == MetricId::kCosine) {
    return std::sqrt(qq) < kFlatStdEpsilon ? MinTail::kCosineFlat
                                            : MinTail::kCosine;
  }
  return metric == MetricId::kEuclidean ? MinTail::kL2 : MinTail::kRaw;
}

}  // namespace

void CheckFiniteSeries(std::span<const double> values, size_t series) {
  for (size_t k = 0; k < values.size(); ++k) {
    if (std::isfinite(values[k])) continue;
    char message[80];
    std::snprintf(message, sizeof(message),
                  "series %zu: non-finite value at position %zu", series, k);
    IPS_CHECK_MSG(std::isfinite(values[k]), message);
  }
}

ShapeletBank::ShapeletBank(const std::vector<Subsequence>& shapelets,
                           MetricId metric, const DatasetView& train)
    : metric_(metric), entries_(shapelets.size()) {
  // Artefacts, with the reversed FFT for the training length (that of the
  // first series) when it puts the shapelet in the FFT regime.
  const size_t n = train.empty() ? 0 : train.At(0).view().size();
  size_t groups = 0;
  for (size_t s = 0; s < shapelets.size(); ++s) {
    Entry& e = entries_[s];
    e.values = shapelets[s].values;
    PrefixSquaresInto(e.values, e.prefix);
    if (metric_ == MetricId::kZNormEuclidean) e.zn = MakeZnQuery(e.values);
    const size_t m = e.values.size();
    if (m < n && UsesFftDots(m, n)) {
      ForwardFftInto(metric_ == MetricId::kZNormEuclidean ? e.zn.values
                                                          : e.values,
                     NextPowerOfTwo(n + m), /*reversed=*/true, e.fft);
    }
    e.tail = TailOf(metric_, e.zn.flat, e.prefix.back());
    e.group = groups;
    for (size_t t = 0; t < s; ++t) {
      if (entries_[t].values.size() == m && entries_[t].tail == e.tail) {
        e.group = entries_[t].group;
        break;
      }
    }
    if (e.group == groups) ++groups;
  }
  order_.reserve(entries_.size());
  for (size_t g = 0; g < groups; ++g) {
    for (size_t s = 0; s < entries_.size(); ++s) {
      if (entries_[s].group == g) order_.push_back(s);
    }
  }
}

double ShapeletBank::Distance(const Entry& e, DistanceWorkspace& ws) const {
  const std::span<const double> series = ws.series.series();
  if (e.values.size() >= series.size()) {
    // The series is the query operand here (min alignment takes the first
    // operand as the query on a tie), so the shapelet's artefacts do not
    // apply: the serial kernel answers.
    return SubsequenceDistanceMetric(series, e.values, metric_);
  }
  return MinOfQuery({e.values, e.prefix, &e.zn, e.fft}, ws.series, metric_,
                    ws);
}

void ShapeletBank::GroupDistances(std::span<const size_t> group,
                                  DistanceWorkspace& ws,
                                  std::span<double> row) const {
  constexpr size_t G = simd::kGroupSize;
  const std::span<const double> series = ws.series.series();
  const Entry& first = entries_[group[0]];
  const size_t m = first.values.size();
  const size_t n = series.size();
  size_t k = 0;
  if (m < n && !UsesFftDots(m, n) && group.size() >= G) {
    const bool zn = metric_ == MetricId::kZNormEuclidean;
    const double* stds = zn ? ws.series.Stats(m).stds.data() : nullptr;
    const double* sqp = zn ? nullptr : ws.series.Prefix().data();
    const double* q[G];
    double qq[G];
    double out[G];
    for (; k + G <= group.size(); k += G) {
      for (size_t g = 0; g < G; ++g) {
        const Entry& e = entries_[group[k + g]];
        q[g] = zn ? e.zn.values.data() : e.values.data();
        qq[g] = e.prefix.back();
      }
      simd::SlidingMinGroup(first.tail, q, qq, m, series.data(), n, stds, sqp,
                            out);
      for (size_t g = 0; g < G; ++g) row[group[k + g]] = out[g];
    }
  }
  for (; k < group.size(); ++k) {
    row[group[k]] = Distance(entries_[group[k]], ws);
  }
}

void ShapeletBank::Transform(const DatasetView& data, size_t num_threads,
                             const RowFn& fn) const {
  data.ForEachChunk([&](size_t first, std::span<const SeriesView> chunk) {
    ForRows(chunk.size(), num_threads, [&](size_t k) {
      CheckFiniteSeries(chunk[k].view(), first + k);
      fn(first + k, TransformOne(chunk[k].view()));
    });
  });
}

std::span<const double> ShapeletBank::TransformOne(
    std::span<const double> series) const {
  DistanceWorkspace& ws = Local().ws;
  std::vector<double>& row = Local().row;
  row.resize(entries_.size());
  ws.series.Reset(series);
  for (size_t begin = 0, end = 0; begin < order_.size(); begin = end) {
    const size_t group = entries_[order_[begin]].group;
    while (end < order_.size() && entries_[order_[end]].group == group) ++end;
    GroupDistances({order_.data() + begin, end - begin}, ws, row);
  }
  ws.series.Reset({});
  // One registry add per row, whichever way each query was answered.
  CountProfiles(metric_, entries_.size());
  return row;
}

}  // namespace ips
