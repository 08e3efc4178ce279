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
  for (size_t s = 0; s < entries_.size(); ++s) {
    row[s] = Distance(entries_[s], ws);
  }
  ws.series.Reset({});
  // One registry add per row, whichever way each query was answered.
  CountProfiles(metric_, entries_.size());
  return row;
}

}  // namespace ips
