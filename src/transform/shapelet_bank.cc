#include "transform/shapelet_bank.h"

#include <algorithm>

#include "core/distance.h"
#include "core/fft.h"
#include "core/simd.h"
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

ShapeletBank ShapeletBank::FitTransform(
    const std::vector<Subsequence>& shapelets, MetricId metric,
    const DatasetView& train, bool early_abandon, size_t num_threads,
    const RowFn& fn) {
  ShapeletBank bank(shapelets, metric, train);
  const std::vector<double> probed =
      early_abandon ? bank.Probe(train, num_threads) : std::vector<double>();
  bank.TransformRows(train, num_threads, probed, fn);
  return bank;
}

std::vector<double> ShapeletBank::Probe(const DatasetView& train,
                                        size_t num_threads) {
  // Copies of the probe series: every shapelet's task reads all of them,
  // and an out-of-core view's series only stay put while their chunk does.
  const size_t rows = std::min(train.size(), kRouteProbeSeries);
  std::vector<std::vector<double>> series(rows);
  for (size_t i = 0; i < rows; ++i) {
    const std::span<const double> v = train.At(i).view();
    series[i].assign(v.begin(), v.end());
  }
  // One task per shapelet: its cascade runs over the rows in order, each
  // seeded with the previous row's argmin, so its outcomes do not depend
  // on the thread count or on how `train` is chunked.
  const size_t count = entries_.size();
  std::vector<double> values(rows * count);
  ForRows(count, num_threads, [&](size_t s) {
    Entry& e = entries_[s];
    DistanceWorkspace& ws = Local().ws;
    size_t seed = simd::kEabNoSeed;
    size_t ran = 0;
    size_t bailed = 0;
    for (size_t i = 0; i < rows; ++i) {
      ws.series.Reset(series[i]);
      MinOutcome outcome;
      values[i * count + s] = Distance(e, /*cascade=*/true, seed, ws, outcome);
      if (outcome.argmin != simd::kEabNoSeed) seed = outcome.argmin;
      bailed += outcome.bailed_out;
      ran += outcome.bailed_out || outcome.argmin != simd::kEabNoSeed;
    }
    ws.series.Reset({});
    e.route = ran > 0 && 2 * bailed <= ran ? Route::kCascade : Route::kDense;
  });
  return values;
}

double ShapeletBank::Distance(const Entry& e, bool cascade, size_t seed,
                              DistanceWorkspace& ws,
                              MinOutcome& outcome) const {
  const std::span<const double> series = ws.series.series();
  if (e.values.size() >= series.size()) {
    // The series is the query operand here (min alignment takes the first
    // operand as the query on a tie), so the shapelet's artefacts do not
    // apply: the serial kernel answers.
    CountProfile(metric_);
    return SubsequenceDistanceMetric(series, e.values, metric_);
  }
  return MinOfQuery({e.values, e.prefix, &e.zn, e.fft}, ws.series, metric_,
                    cascade, seed, ws, outcome);
}

std::span<const double> ShapeletBank::Row(std::span<const double> series,
                                          bool carry) const {
  DistanceWorkspace& ws = Local().ws;
  std::vector<double>& row = Local().row;
  row.resize(entries_.size());
  if (ws.eab_seed_hints.size() != entries_.size()) {
    ws.eab_seed_hints.assign(entries_.size(), simd::kEabNoSeed);
  }
  ws.series.Reset(series);
  for (size_t s = 0; s < entries_.size(); ++s) {
    MinOutcome outcome;
    row[s] = Distance(entries_[s], entries_[s].route == Route::kCascade,
                      carry ? ws.eab_seed_hints[s] : simd::kEabNoSeed, ws,
                      outcome);
    if (carry && outcome.argmin != simd::kEabNoSeed) {
      ws.eab_seed_hints[s] = outcome.argmin;
    }
  }
  ws.series.Reset({});
  return row;
}

void ShapeletBank::Transform(const DatasetView& data, size_t num_threads,
                             const RowFn& fn) const {
  TransformRows(data, num_threads, {}, fn);
}

void ShapeletBank::TransformRows(const DatasetView& data, size_t num_threads,
                                 std::span<const double> known,
                                 const RowFn& fn) const {
  const size_t count = entries_.size();
  const size_t done = count == 0 ? 0 : known.size() / count;
  data.ForEachChunk([&](size_t first, std::span<const SeriesView> chunk) {
    ForRows(chunk.size(), num_threads, [&](size_t k) {
      const size_t i = first + k;
      fn(i, i < done ? known.subspan(i * count, count)
                     : Row(chunk[k].view(), /*carry=*/true));
    });
  });
}

std::span<const double> ShapeletBank::TransformOne(
    std::span<const double> series) const {
  return Row(series, /*carry=*/false);
}

}  // namespace ips
