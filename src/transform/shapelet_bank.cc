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

bool UsesFftDots(size_t m, size_t n) {
  return m >= kFftCutoff && ShouldUseFftSlidingProducts(m, n);
}

}  // namespace

ShapeletBank::ShapeletBank(const std::vector<Subsequence>& shapelets,
                           MetricId metric, const DatasetView& train,
                           bool early_abandon)
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
      e.fft_padded = NextPowerOfTwo(n + m);
      ForwardFftInto(metric_ == MetricId::kZNormEuclidean ? e.zn.values
                                                          : e.values,
                     e.fft_padded, /*reversed=*/true, e.fft);
    }
  }
  if (!early_abandon || !DistanceEngine::kEarlyAbandonCompiledIn) return;

  // The routes, from the rows of the first training series. They run in
  // row order on this thread, each seeded with the previous row's argmin,
  // so the routes do not depend on the thread count or on how `train` is
  // chunked.
  std::vector<ProbeTally> tally(entries_.size());
  Local().ws.eab_seed_hints.assign(entries_.size(), simd::kEabNoSeed);
  for (size_t i = 0; i < std::min(train.size(), kRouteProbeSeries); ++i) {
    Row(train.At(i).view(), /*carry=*/true, tally.data());
  }
  for (size_t s = 0; s < entries_.size(); ++s) {
    const ProbeTally& t = tally[s];
    entries_[s].route = t.ran > 0 && 2 * t.bailed <= t.ran ? Route::kCascade
                                                            : Route::kDense;
  }
}

double ShapeletBank::Min(size_t s, std::span<const double> series,
                         bool cascade, size_t seed, DistanceWorkspace& ws,
                         MinOutcome* outcome) const {
  const Entry& e = entries_[s];
  const size_t m = e.values.size();
  const size_t n = series.size();
  CountProfile(metric_);
  if (m >= n) {
    // The series is the query operand here (min alignment takes the first
    // operand as the query on a tie), so the shapelet's artefacts do not
    // apply. The serial kernel is what the engine reproduces bitwise.
    return SubsequenceDistanceMetric(series, e.values, metric_);
  }
  const MetricPolicy& policy = GetMetric(metric_);
  const bool zn = metric_ == MetricId::kZNormEuclidean;
  const bool fft = UsesFftDots(m, n);
  // As in the engine: the cascade only serves the naive sliding-dots
  // regime, and only metrics whose kernel can win.
  const bool eab = cascade && !fft && policy.min_early_abandon != nullptr &&
                   policy.eab_profitable;
  const size_t count = n - m + 1;
  const RollingStats* stats = zn ? &ws.row.Stats(m) : nullptr;
  const std::vector<double>& slid = zn ? e.zn.values : e.values;

  if (eab) {
    simd::EabArgs ea;
    ea.query = slid.data();
    ea.window = m;
    ea.series = series.data();
    ea.count = count;
    ea.sqp = ws.row.Prefix().data();
    ea.seed = seed;
    if (zn) {
      ea.means = stats->means.data();
      ea.stds = stats->stds.data();
      ea.query_flat = e.zn.flat;
      ea.zq_sum = e.zn.sum;
      ea.zq_sumsq = e.zn.sum_sq;
    } else {
      ea.qq = e.prefix.back();
      ea.qpre = e.prefix.data();
    }
    simd::EabCounters ec;
    const simd::EabResult res = policy.min_early_abandon(ea, ec);
    CountEab(metric_, ec);
    if (!res.bailed_out) {
      if (outcome != nullptr) outcome->argmin = res.argmin;
      return res.min;
    }
    if (outcome != nullptr) outcome->bailed_out = true;
  }

  if (fft) {
    const size_t padded = NextPowerOfTwo(n + m);
    const std::vector<std::complex<double>>* fq =
        e.fft_padded == padded ? &e.fft : nullptr;
    if (fq == nullptr) {
      ForwardFftInto(slid, padded, /*reversed=*/true, ws.fft_qry);
      fq = &ws.fft_qry;
    }
    FftSlidingDotsInto(ws.row.Fft(padded), *fq, m, count, ws);
  } else {
    ws.dots.resize(count);
    simd::SlidingDots(slid.data(), m, series.data(), n, ws.dots.data());
  }
  if (zn) {
    return simd::ZNormMinFromDots(ws.dots.data(), stats->stds.data(), count,
                                  m, e.zn.flat);
  }
  MetricProfileArgs args;
  args.dots = ws.dots.data();
  args.count = count;
  args.window = m;
  args.qq = e.prefix.back();
  args.sqp = ws.row.Prefix().data();
  return policy.kernels.min_from_dots(args);
}

std::span<const double> ShapeletBank::Row(std::span<const double> series,
                                          bool carry,
                                          ProbeTally* probe) const {
  DistanceWorkspace& ws = Local().ws;
  std::vector<double>& row = Local().row;
  row.resize(entries_.size());
  if (ws.eab_seed_hints.size() != entries_.size()) {
    ws.eab_seed_hints.assign(entries_.size(), simd::kEabNoSeed);
  }
  ws.row.Reset(series);
  for (size_t s = 0; s < entries_.size(); ++s) {
    MinOutcome outcome;
    row[s] = Min(s, series,
                 probe != nullptr || entries_[s].route == Route::kCascade,
                 carry ? ws.eab_seed_hints[s] : simd::kEabNoSeed, ws,
                 &outcome);
    if (carry && outcome.argmin != simd::kEabNoSeed) {
      ws.eab_seed_hints[s] = outcome.argmin;
    }
    if (probe != nullptr) {
      probe[s].bailed += outcome.bailed_out;
      probe[s].ran += outcome.bailed_out || outcome.argmin != simd::kEabNoSeed;
    }
  }
  ws.row.Reset({});
  return row;
}

void ShapeletBank::Transform(const DatasetView& data, size_t num_threads,
                             const RowFn& fn) const {
  data.ForEachChunk([&](size_t first, std::span<const SeriesView> chunk) {
    ForRows(chunk.size(), num_threads, [&](size_t k) {
      fn(first + k, Row(chunk[k].view(), /*carry=*/true, nullptr));
    });
  });
}

std::span<const double> ShapeletBank::TransformOne(
    std::span<const double> series) const {
  return Row(series, /*carry=*/false, nullptr);
}

}  // namespace ips
