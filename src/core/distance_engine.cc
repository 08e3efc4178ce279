#include "core/distance_engine.h"

#include <cmath>

#include <algorithm>
#include <limits>
#include <string>

#include "core/distance.h"
#include "core/fft.h"
#include "core/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"

namespace ips {

namespace {

// Scratch for the single-pair entry points; batch calls hand each worker a
// workspace from a per-call pool instead.
DistanceWorkspace& LocalWorkspace() {
  static thread_local DistanceWorkspace ws;
  return ws;
}

// Process-wide mirrors of the per-instance counters. The instance atomics
// keep their per-engine snapshot/reset semantics (tests and micro-benches
// depend on them); run-level consumers (IpsRunStats::FromRegistry, the
// exporters) read these registry totals instead of hand-copying fields.
struct EngineMetrics {
  obs::Counter& profiles_computed;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Histogram& batch_items;
  // Early-abandon cascade totals ("engine.eab.<stage>"), summed over every
  // min query that took the pruned path (docs/pruning.md).
  obs::Counter& eab_candidates;
  obs::Counter& eab_lb_pruned;
  obs::Counter& eab_abandoned;
  obs::Counter& eab_full;
  // Min queries TransformBatch routed past the cascade after a bail-out.
  obs::Counter& eab_backoff_skips;
  // Per-metric slice of profiles_computed ("engine.profiles.<name>"), so a
  // mixed-metric run's obs output attributes work to metrics. The total
  // above is always bumped too, keeping historic dashboards intact.
  obs::Counter* profiles_by_metric[kMetricCount];
  // Per-metric slice of the eab totals ("engine.eab.<stage>.<name>"),
  // indexed [metric][stage] with stages ordered candidates, lb_pruned,
  // abandoned, full.
  obs::Counter* eab_by_metric[kMetricCount][4];
};

EngineMetrics& Metrics() {
  static EngineMetrics* metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
    auto* m =
        new EngineMetrics{registry.GetCounter("engine.profiles_computed"),
                          registry.GetCounter("engine.stats_cache_hits"),
                          registry.GetCounter("engine.stats_cache_misses"),
                          registry.GetHistogram("engine.batch_items"),
                          registry.GetCounter("engine.eab.candidates"),
                          registry.GetCounter("engine.eab.lb_pruned"),
                          registry.GetCounter("engine.eab.abandoned"),
                          registry.GetCounter("engine.eab.full"),
                          registry.GetCounter("engine.eab.backoff_skips"),
                          {},
                          {}};
    static constexpr const char* kEabStages[4] = {"candidates", "lb_pruned",
                                                  "abandoned", "full"};
    for (size_t i = 0; i < kMetricCount; ++i) {
      const char* name = MetricName(static_cast<MetricId>(i));
      m->profiles_by_metric[i] =
          &registry.GetCounter(std::string("engine.profiles.") + name);
      for (size_t s = 0; s < 4; ++s) {
        m->eab_by_metric[i][s] = &registry.GetCounter(
            std::string("engine.eab.") + kEabStages[s] + "." + name);
      }
    }
    return m;
  }();
  return *metrics;
}

}  // namespace

// ------------------------------------------------------ artefact functions

void PrefixSquaresInto(std::span<const double> s, std::vector<double>& out) {
  out.resize(s.size() + 1);
  out[0] = 0.0;
  for (size_t i = 0; i < s.size(); ++i) out[i + 1] = out[i] + s[i] * s[i];
}

void ForwardFftInto(std::span<const double> s, size_t padded, bool reversed,
                    std::vector<std::complex<double>>& out) {
  out.assign(padded, std::complex<double>(0.0, 0.0));
  if (reversed) {
    const size_t m = s.size();
    for (size_t i = 0; i < m; ++i) out[i] = s[m - 1 - i];
  } else {
    for (size_t i = 0; i < s.size(); ++i) out[i] = s[i];
  }
  Fft(out, /*inverse=*/false);
}

ZnQuery MakeZnQuery(std::span<const double> q) {
  ZnQuery zq{ZNormalize(q)};
  zq.flat = std::all_of(zq.values.begin(), zq.values.end(),
                        [](double v) { return v == 0.0; });
  for (double v : zq.values) {
    zq.sum += v;
    zq.sum_sq += v * v;
  }
  return zq;
}

void FftSlidingDotsInto(const std::vector<std::complex<double>>& fs,
                        const std::vector<std::complex<double>>& fq, size_t m,
                        size_t count, DistanceWorkspace& ws) {
  const size_t padded = fs.size();
  ws.fft_prod.resize(padded);
  for (size_t i = 0; i < padded; ++i) ws.fft_prod[i] = fs[i] * fq[i];
  Fft(ws.fft_prod, /*inverse=*/true);
  ws.dots.resize(count);
  for (size_t i = 0; i < count; ++i) {
    ws.dots[i] = ws.fft_prod[m - 1 + i].real();
  }
}

void CountProfile(MetricId metric) {
  EngineMetrics& m = Metrics();
  m.profiles_computed.Add(1);
  m.profiles_by_metric[static_cast<size_t>(metric)]->Add(1);
}

void CountEab(MetricId metric, const simd::EabCounters& c) {
  EngineMetrics& m = Metrics();
  m.eab_candidates.Add(c.candidates);
  m.eab_lb_pruned.Add(c.lb_pruned);
  m.eab_abandoned.Add(c.abandoned);
  m.eab_full.Add(c.full);
  obs::Counter** slice = m.eab_by_metric[static_cast<size_t>(metric)];
  slice[0]->Add(c.candidates);
  slice[1]->Add(c.lb_pruned);
  slice[2]->Add(c.abandoned);
  slice[3]->Add(c.full);
}

// --------------------------------------------------------- series artefacts

void SeriesArtefacts::Reset(std::span<const double> series) {
  series_ = series;
  prefix_.clear();
  stats_.clear();
  ffts_.clear();
}

const std::vector<double>& SeriesArtefacts::Prefix() {
  if (prefix_.empty()) PrefixSquaresInto(series_, prefix_);
  return prefix_;
}

const RollingStats& SeriesArtefacts::Stats(size_t window) {
  for (const auto& [w, stats] : stats_) {
    if (w == window) return stats;
  }
  return stats_.emplace_back(window, ComputeRollingStats(series_, window))
      .second;
}

const std::vector<std::complex<double>>& SeriesArtefacts::Fft(size_t padded) {
  for (const auto& [size, fft] : ffts_) {
    if (size == padded) return fft;
  }
  auto& fresh = ffts_.emplace_back(padded, std::vector<std::complex<double>>())
                    .second;
  ForwardFftInto(series_, padded, /*reversed=*/false, fresh);
  return fresh;
}

// ------------------------------------------------------------------- caches

const std::vector<double>* DistanceEngine::CachedPrefix(
    std::span<const double> s, bool allow) {
  if (!allow) return nullptr;
  const SpanKey key{s.data(), s.size(), 0};
  {
    std::lock_guard<std::mutex> lock(prefix_mu_);
    auto it = prefix_.find(key);
    if (it != prefix_.end()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      Metrics().cache_hits.Add(1);
      return &it->second;
    }
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  Metrics().cache_misses.Add(1);
  std::vector<double> fresh;
  PrefixSquaresInto(s, fresh);
  std::lock_guard<std::mutex> lock(prefix_mu_);
  return &prefix_.try_emplace(key, std::move(fresh)).first->second;
}

const RollingStats* DistanceEngine::CachedStats(std::span<const double> s,
                                                size_t window, bool allow) {
  if (!allow) return nullptr;
  const SpanKey key{s.data(), s.size(), window};
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    auto it = stats_.find(key);
    if (it != stats_.end()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      Metrics().cache_hits.Add(1);
      return &it->second;
    }
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  Metrics().cache_misses.Add(1);
  RollingStats fresh = ComputeRollingStats(s, window);
  std::lock_guard<std::mutex> lock(stats_mu_);
  return &stats_.try_emplace(key, std::move(fresh)).first->second;
}

const std::vector<std::complex<double>>* DistanceEngine::CachedFft(
    std::span<const double> s, size_t padded, bool reversed, bool allow) {
  if (!allow) return nullptr;
  auto& map = reversed ? fft_query_ : fft_series_;
  const SpanKey key{s.data(), s.size(), padded};
  {
    std::lock_guard<std::mutex> lock(fft_mu_);
    auto it = map.find(key);
    if (it != map.end()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      Metrics().cache_hits.Add(1);
      return &it->second;
    }
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  Metrics().cache_misses.Add(1);
  std::vector<std::complex<double>> fresh;
  ForwardFftInto(s, padded, reversed, fresh);
  std::lock_guard<std::mutex> lock(fft_mu_);
  return &map.try_emplace(key, std::move(fresh)).first->second;
}

const ZnQuery* DistanceEngine::CachedZnQuery(
    std::span<const double> q, bool allow) {
  if (!allow) return nullptr;
  const SpanKey key{q.data(), q.size(), 0};
  {
    std::lock_guard<std::mutex> lock(znq_mu_);
    auto it = znq_.find(key);
    if (it != znq_.end()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      Metrics().cache_hits.Add(1);
      return &it->second;
    }
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  Metrics().cache_misses.Add(1);
  ZnQuery fresh = MakeZnQuery(q);
  std::lock_guard<std::mutex> lock(znq_mu_);
  return &znq_.try_emplace(key, std::move(fresh)).first->second;
}

void DistanceEngine::BumpProfiles(MetricId metric) {
  profiles_.fetch_add(1, std::memory_order_relaxed);
  CountProfile(metric);
}

void DistanceEngine::BumpEab(MetricId metric, const simd::EabCounters& c) {
  eab_candidates_.fetch_add(c.candidates, std::memory_order_relaxed);
  eab_lb_pruned_.fetch_add(c.lb_pruned, std::memory_order_relaxed);
  eab_abandoned_.fetch_add(c.abandoned, std::memory_order_relaxed);
  eab_full_.fetch_add(c.full, std::memory_order_relaxed);
  CountEab(metric, c);
}

// ------------------------------------------------------------------ kernels

// Fills ws.dots with the sliding dot products of `query` against `series`,
// replicating the naive/FFT dispatch of core/distance.cc exactly. When a
// side is cacheable its forward FFT is fetched from (or inserted into) the
// engine cache, and `series_art` (non-null only when it holds `series`)
// supplies the series transform of a transform row; the arithmetic is
// identical either way.
void DistanceEngine::SlidingDotsInto(std::span<const double> query,
                                     std::span<const double> series,
                                     bool cache_query, bool cache_series,
                                     SeriesArtefacts* series_art,
                                     DistanceWorkspace& ws) {
  const size_t m = query.size();
  const size_t n = series.size();
  const size_t count = n - m + 1;
  ws.dots.resize(count);

  if (m < kFftCutoff || !ShouldUseFftSlidingProducts(m, n)) {
    simd::SlidingDots(query.data(), m, series.data(), n, ws.dots.data());
    return;
  }

  const size_t padded = NextPowerOfTwo(n + m);
  const std::vector<std::complex<double>>* fs =
      series_art != nullptr
          ? &series_art->Fft(padded)
          : CachedFft(series, padded, /*reversed=*/false, cache_series);
  if (fs == nullptr) {
    ForwardFftInto(series, padded, /*reversed=*/false, ws.fft_sig);
    fs = &ws.fft_sig;
  }
  const std::vector<std::complex<double>>* fq =
      CachedFft(query, padded, /*reversed=*/true, cache_query);
  if (fq == nullptr) {
    ForwardFftInto(query, padded, /*reversed=*/true, ws.fft_qry);
    fq = &ws.fft_qry;
  }

  FftSlidingDotsInto(*fs, *fq, m, count, ws);
}

double DistanceEngine::DotMinImpl(std::span<const double> a,
                                  std::span<const double> b, bool cache_a,
                                  bool cache_b, const MetricPolicy& policy,
                                  DistanceWorkspace& ws, const MinCall& call,
                                  MinOutcome* outcome) {
  const bool a_shorter = a.size() <= b.size();
  const std::span<const double> query = a_shorter ? a : b;
  const std::span<const double> series = a_shorter ? b : a;
  const bool cache_q = a_shorter ? cache_a : cache_b;
  const bool cache_s = a_shorter ? cache_b : cache_a;
  SeriesArtefacts* const art =
      call.series != nullptr && call.series->Holds(series) ? call.series
                                                           : nullptr;
  const size_t m = query.size();
  const size_t n = series.size();
  IPS_CHECK(m >= 1);
  BumpProfiles(policy.id);

  // The early-abandon cascade only serves the naive sliding-dots regime:
  // under FFT dots the dense kernel sees different (FFT-rounded) products,
  // so pruning against exact scalar dots would break bitwise identity.
  // Metrics whose registered kernel cannot win (eab_profitable false, e.g.
  // cosine's prune-nothing Cauchy-Schwarz scan) bail to the dense path up
  // front, before paying any cascade setup.
  const bool eab = call.cascade && early_abandon_ &&
                   policy.min_early_abandon != nullptr &&
                   policy.eab_profitable &&
                   (m < kFftCutoff || !ShouldUseFftSlidingProducts(m, n));

  double qq;
  const double* qpre = nullptr;
  if (const std::vector<double>* p = CachedPrefix(query, cache_q)) {
    qq = p->back();
    qpre = p->data();
  } else if (eab && policy.id == MetricId::kCosine) {
    // Cosine's Cauchy-Schwarz tail bound consumes the full query prefix;
    // PrefixSquaresInto's back() is bitwise equal to the serial qq loop.
    PrefixSquaresInto(query, ws.query_prefix);
    qpre = ws.query_prefix.data();
    qq = ws.query_prefix.back();
  } else {
    qq = 0.0;
    for (double v : query) qq += v * v;
  }

  const std::vector<double>* sq =
      art != nullptr ? &art->Prefix() : CachedPrefix(series, cache_s);
  if (sq == nullptr) {
    PrefixSquaresInto(series, ws.prefix);
    sq = &ws.prefix;
  }

  if (eab) {
    simd::EabArgs ea;
    ea.query = query.data();
    ea.window = m;
    ea.series = series.data();
    ea.count = n - m + 1;
    ea.qq = qq;
    ea.sqp = sq->data();
    ea.qpre = qpre;
    ea.seed = call.seed;
    simd::EabCounters ec;
    const simd::EabResult res = policy.min_early_abandon(ea, ec);
    BumpEab(policy.id, ec);
    if (!res.bailed_out) {
      if (outcome != nullptr) outcome->argmin = res.argmin;
      return res.min;
    }
    // Bailed out: pruning was losing to the vectorised dense kernel.
    // Fall through to the dense path (identical result either way).
    if (outcome != nullptr) outcome->bailed_out = true;
  }

  SlidingDotsInto(query, series, cache_q, cache_s, art, ws);

  MetricProfileArgs args;
  args.dots = ws.dots.data();
  args.count = n - m + 1;
  args.window = m;
  args.qq = qq;
  args.sqp = sq->data();
  return policy.kernels.min_from_dots(args);
}

void DistanceEngine::DotProfileImpl(std::span<const double> query,
                                    std::span<const double> series,
                                    bool cache_query, bool cache_series,
                                    const MetricPolicy& policy,
                                    DistanceWorkspace& ws,
                                    std::vector<double>& out) {
  const size_t m = query.size();
  const size_t n = series.size();
  IPS_CHECK(m >= 1);
  IPS_CHECK(n >= m);
  BumpProfiles(policy.id);

  double qq;
  if (const std::vector<double>* p = CachedPrefix(query, cache_query)) {
    qq = p->back();
  } else {
    qq = 0.0;
    for (double v : query) qq += v * v;
  }
  const std::vector<double>* sq = CachedPrefix(series, cache_series);
  if (sq == nullptr) {
    PrefixSquaresInto(series, ws.prefix);
    sq = &ws.prefix;
  }
  SlidingDotsInto(query, series, cache_query, cache_series, nullptr, ws);

  out.resize(n - m + 1);
  MetricProfileArgs args;
  args.dots = ws.dots.data();
  args.count = out.size();
  args.window = m;
  args.qq = qq;
  args.sqp = sq->data();
  policy.kernels.profile_from_dots(args, out.data());
}

double DistanceEngine::ZNormMinImpl(std::span<const double> a,
                                    std::span<const double> b, bool cache_a,
                                    bool cache_b, DistanceWorkspace& ws,
                                    const MinCall& call, MinOutcome* outcome) {
  const bool a_shorter = a.size() <= b.size();
  const std::span<const double> query = a_shorter ? a : b;
  const std::span<const double> series = a_shorter ? b : a;
  const bool cache_q = a_shorter ? cache_a : cache_b;
  const bool cache_s = a_shorter ? cache_b : cache_a;
  SeriesArtefacts* const art =
      call.series != nullptr && call.series->Holds(series) ? call.series
                                                           : nullptr;
  const size_t m = query.size();
  const size_t n = series.size();
  IPS_CHECK(m >= 1);
  const MetricPolicy& policy = GetMetric(MetricId::kZNormEuclidean);
  BumpProfiles(policy.id);

  const bool eab = call.cascade && early_abandon_ &&
                   policy.min_early_abandon != nullptr &&
                   policy.eab_profitable &&
                   (m < kFftCutoff || !ShouldUseFftSlidingProducts(m, n));

  const RollingStats* stats =
      art != nullptr ? &art->Stats(m) : CachedStats(series, m, cache_s);
  RollingStats local_stats;
  if (stats == nullptr) {
    local_stats = ComputeRollingStats(series, m);
    stats = &local_stats;
  }

  // Z-normalised query: from the cache when the shapelet side is stable,
  // otherwise into scratch (same operations as ZNormalize, so bitwise
  // identical). The value/square sums only feed the early-abandon bound
  // arithmetic, never a returned distance.
  std::span<const double> q;
  bool query_flat;
  double zq_sum = 0.0;
  double zq_sumsq = 0.0;
  if (const ZnQuery* zq = CachedZnQuery(query, cache_q)) {
    q = zq->values;
    query_flat = zq->flat;
    zq_sum = zq->sum;
    zq_sumsq = zq->sum_sq;
  } else {
    ws.znorm_query.assign(query.begin(), query.end());
    ZNormalizeInPlace(ws.znorm_query);
    q = ws.znorm_query;
    query_flat = std::all_of(q.begin(), q.end(),
                             [](double v) { return v == 0.0; });
    if (eab) {
      for (double v : q) {
        zq_sum += v;
        zq_sumsq += v * v;
      }
    }
  }

  if (eab) {
    const std::vector<double>* sq =
        art != nullptr ? &art->Prefix() : CachedPrefix(series, cache_s);
    if (sq == nullptr) {
      PrefixSquaresInto(series, ws.prefix);
      sq = &ws.prefix;
    }
    simd::EabArgs ea;
    ea.query = q.data();
    ea.window = m;
    ea.series = series.data();
    ea.count = n - m + 1;
    ea.sqp = sq->data();
    ea.means = stats->means.data();
    ea.stds = stats->stds.data();
    ea.query_flat = query_flat;
    ea.zq_sum = zq_sum;
    ea.zq_sumsq = zq_sumsq;
    ea.seed = call.seed;
    simd::EabCounters ec;
    const simd::EabResult res = policy.min_early_abandon(ea, ec);
    BumpEab(policy.id, ec);
    if (!res.bailed_out) {
      if (outcome != nullptr) outcome->argmin = res.argmin;
      return res.min;
    }
    if (outcome != nullptr) outcome->bailed_out = true;
  }

  // The FFT of the z-normalised query is only cacheable when the values
  // live in the engine-owned ZnQuery entry (a stable address).
  SlidingDotsInto(q, series, cache_q, cache_s, art, ws);

  return simd::ZNormMinFromDots(ws.dots.data(), stats->stds.data(), n - m + 1,
                                m, query_flat);
}

void DistanceEngine::ZNormProfileImpl(std::span<const double> query,
                                      std::span<const double> series,
                                      bool cache_query, bool cache_series,
                                      DistanceWorkspace& ws,
                                      std::vector<double>& out) {
  const size_t m = query.size();
  const size_t n = series.size();
  IPS_CHECK(m >= 1);
  IPS_CHECK(n >= m);
  BumpProfiles(MetricId::kZNormEuclidean);

  const RollingStats* stats = CachedStats(series, m, cache_series);
  RollingStats local_stats;
  if (stats == nullptr) {
    local_stats = ComputeRollingStats(series, m);
    stats = &local_stats;
  }

  std::span<const double> q;
  bool query_flat;
  if (const ZnQuery* zq = CachedZnQuery(query, cache_query)) {
    q = zq->values;
    query_flat = zq->flat;
  } else {
    ws.znorm_query.assign(query.begin(), query.end());
    ZNormalizeInPlace(ws.znorm_query);
    q = ws.znorm_query;
    query_flat = std::all_of(q.begin(), q.end(),
                             [](double v) { return v == 0.0; });
  }

  SlidingDotsInto(q, series, cache_query, cache_series, nullptr, ws);

  out.resize(n - m + 1);
  simd::ZNormProfileFromDots(ws.dots.data(), stats->stds.data(), out.size(),
                             m, query_flat, out.data());
}

double DistanceEngine::MinImpl(std::span<const double> a,
                               std::span<const double> b, bool cache_a,
                               bool cache_b, MetricId metric,
                               DistanceWorkspace& ws, const MinCall& call,
                               MinOutcome* outcome) {
  if (metric == MetricId::kZNormEuclidean) {
    return ZNormMinImpl(a, b, cache_a, cache_b, ws, call, outcome);
  }
  return DotMinImpl(a, b, cache_a, cache_b, GetMetric(metric), ws, call,
                    outcome);
}

void DistanceEngine::ProfileImpl(std::span<const double> query,
                                 std::span<const double> series,
                                 bool cache_query, bool cache_series,
                                 MetricId metric, DistanceWorkspace& ws,
                                 std::vector<double>& out) {
  if (metric == MetricId::kZNormEuclidean) {
    ZNormProfileImpl(query, series, cache_query, cache_series, ws, out);
    return;
  }
  DotProfileImpl(query, series, cache_query, cache_series, GetMetric(metric),
                 ws, out);
}

// ------------------------------------------------------------- parallelism

template <typename Fn>
void DistanceEngine::ParallelItems(size_t count, Fn&& fn) {
  if (count == 0) return;
  Metrics().batch_items.Observe(count);
  const size_t workers = std::min(num_threads_, std::max<size_t>(count, 1));
  if (workers <= 1) {
    DistanceWorkspace ws;
    for (size_t i = 0; i < count; ++i) fn(i, ws);
    return;
  }
  std::vector<DistanceWorkspace> pool(workers);
  ParallelForWorkers(count, workers,
                     [&](size_t i, size_t w) { fn(i, pool[w]); });
}

// -------------------------------------------------------------- public API

double DistanceEngine::SubsequenceMin(std::span<const double> a,
                                      std::span<const double> b,
                                      bool cache_b) {
  return DotMinImpl(a, b, /*cache_a=*/false, cache_b,
                    GetMetric(MetricId::kRawSquaredEuclidean),
                    LocalWorkspace(), MinCall{}, nullptr);
}

double DistanceEngine::SubsequenceMinZNorm(std::span<const double> a,
                                           std::span<const double> b,
                                           bool cache_b) {
  return ZNormMinImpl(a, b, /*cache_a=*/false, cache_b, LocalWorkspace(),
                      MinCall{}, nullptr);
}

double DistanceEngine::SubsequenceMinMetric(std::span<const double> a,
                                            std::span<const double> b,
                                            MetricId metric, bool cache_b) {
  return MinImpl(a, b, /*cache_a=*/false, cache_b, metric, LocalWorkspace(),
                 MinCall{}, nullptr);
}

std::vector<double> DistanceEngine::ProfileAgainstSeries(
    std::span<const double> query, std::span<const double> series,
    MetricId metric) {
  std::vector<double> out;
  ProfileImpl(query, series, /*cache_query=*/false, /*cache_series=*/false,
              metric, LocalWorkspace(), out);
  return out;
}

std::vector<std::vector<double>> DistanceEngine::ProfileAgainstDataset(
    std::span<const double> query, const DatasetView& data, MetricId metric) {
  IPS_SPAN("dist_profile_batch");
  std::vector<std::vector<double>> out(data.size());
  ParallelItems(data.size(), [&](size_t i, DistanceWorkspace& ws) {
    ProfileImpl(query, data.At(i).view(), /*cache_query=*/false,
                /*cache_series=*/true, metric, ws, out[i]);
  });
  return out;
}

std::vector<double> DistanceEngine::MinAgainstDataset(
    std::span<const double> query, const DatasetView& data, MetricId metric) {
  IPS_SPAN("dist_min_batch");
  std::vector<double> out(data.size());
  ParallelItems(data.size(), [&](size_t i, DistanceWorkspace& ws) {
    out[i] = MinImpl(query, data.At(i).view(), /*cache_a=*/false,
                     /*cache_b=*/true, metric, ws, MinCall{}, nullptr);
  });
  return out;
}

std::vector<double> DistanceEngine::MinForPairs(
    const std::vector<std::span<const double>>& views,
    const std::vector<IndexPair>& pairs, MetricId metric) {
  IPS_SPAN("dist_pair_batch");
  std::vector<double> out(pairs.size());
  ParallelItems(pairs.size(), [&](size_t t, DistanceWorkspace& ws) {
    const auto [qi, si] = pairs[t];
    out[t] = MinImpl(views[qi], views[si], /*cache_a=*/true,
                     /*cache_b=*/true, metric, ws, MinCall{}, nullptr);
  });
  return out;
}

std::vector<double> DistanceEngine::PairwiseSubsequenceMin(
    const std::vector<Subsequence>& candidates, bool symmetric) {
  std::vector<std::span<const double>> views;
  views.reserve(candidates.size());
  for (const Subsequence& c : candidates) views.push_back(c.view());
  return PairwiseSubsequenceMin(views, symmetric);
}

std::vector<double> DistanceEngine::PairwiseSubsequenceMin(
    const std::vector<std::span<const double>>& views, bool symmetric) {
  const size_t n = views.size();
  // dist(x, x) is exactly 0 (offset 0 of the profile evaluates to
  // (qq - 2qq + qq)/m == 0 and every entry is clamped non-negative), so the
  // diagonal is filled without dispatching kernels.
  std::vector<double> matrix(n * n, 0.0);
  std::vector<IndexPair> pairs;
  pairs.reserve(symmetric ? n * (n - 1) / 2 : n * (n - 1));
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = symmetric ? i + 1 : 0; j < n; ++j) {
      if (i == j) continue;
      pairs.push_back({i, j});
    }
  }
  const std::vector<double> dists = MinForPairs(views, pairs);
  for (size_t t = 0; t < pairs.size(); ++t) {
    const auto [i, j] = pairs[t];
    matrix[static_cast<size_t>(i) * n + j] = dists[t];
    if (symmetric) matrix[static_cast<size_t>(j) * n + i] = dists[t];
  }
  return matrix;
}

void DistanceEngine::TransformRowInto(
    std::span<const double> series, const std::vector<Subsequence>& shapelets,
    MetricId metric, DistanceWorkspace& ws, std::vector<double>& row) {
  row.resize(shapelets.size());
  // The series is never cached (it may be a temporary, and a cache entry
  // per transformed series would live as long as the engine): its
  // artefacts are built once into ws.row and shared by every shapelet.
  ws.row.Reset(series);
  for (size_t s = 0; s < shapelets.size(); ++s) {
    MinCall call;
    call.series = &ws.row;
    call.seed = ws.eab_seed_hints[s];
    call.cascade = ws.eab_backoff[s] == 0;
    MinOutcome outcome;
    // Argument order matches TransformSeries: (series, shapelet).
    row[s] = MinImpl(series, shapelets[s].view(), /*cache_a=*/false,
                     /*cache_b=*/true, metric, ws, call, &outcome);
    if (outcome.argmin != simd::kEabNoSeed) {
      ws.eab_seed_hints[s] = outcome.argmin;
    }
    if (outcome.bailed_out) {
      ws.eab_backoff[s] = kEabBackoffSeries;
    } else if (!call.cascade) {
      --ws.eab_backoff[s];
      eab_backoff_skips_.fetch_add(1, std::memory_order_relaxed);
      Metrics().eab_backoff_skips.Add(1);
    }
  }
  ws.row.Reset({});
}

std::vector<std::vector<double>> DistanceEngine::TransformBatch(
    const DatasetView& data, const std::vector<Subsequence>& shapelets,
    MetricId metric) {
  IPS_CHECK(!shapelets.empty());
  IPS_SPAN("dist_transform_batch");
  std::vector<std::vector<double>> rows(data.size());
  // Chunk-granular streaming: one chunk of an out-of-core view is resident
  // at a time (the in-RAM default is a single chunk, i.e. the historic
  // whole-batch loop). Per-series work is independent, so chunking only
  // reorders visits and rows stay bitwise identical.
  data.ForEachChunk([&](size_t first, std::span<const SeriesView> chunk) {
    ParallelItems(chunk.size(), [&](size_t k, DistanceWorkspace& ws) {
      // Per-shapelet state carried from the previous series this worker
      // transformed. Seed hints: similar series tend to match a shapelet
      // in similar places, so the early-abandon path starts near the true
      // minimum. Backoff: data the cascade cannot prune for one series it
      // usually cannot prune for the next either, so after a bail-out the
      // shapelet skips the cascade's setup and failed scans for
      // kEabBackoffSeries series, then probes it again. Both only choose
      // a visit order or a path; rows are bitwise identical whatever they
      // hold.
      if (ws.eab_seed_hints.size() != shapelets.size()) {
        ws.eab_seed_hints.assign(shapelets.size(), simd::kEabNoSeed);
        ws.eab_backoff.assign(shapelets.size(), 0);
      }
      TransformRowInto(chunk[k].view(), shapelets, metric, ws,
                       rows[first + k]);
    });
  });
  return rows;
}

EngineCounters DistanceEngine::counters() const {
  EngineCounters c;
  c.profiles_computed = profiles_.load(std::memory_order_relaxed);
  c.stats_cache_hits = cache_hits_.load(std::memory_order_relaxed);
  c.stats_cache_misses = cache_misses_.load(std::memory_order_relaxed);
  c.eab_candidates = eab_candidates_.load(std::memory_order_relaxed);
  c.eab_lb_pruned = eab_lb_pruned_.load(std::memory_order_relaxed);
  c.eab_abandoned = eab_abandoned_.load(std::memory_order_relaxed);
  c.eab_full = eab_full_.load(std::memory_order_relaxed);
  c.eab_backoff_skips = eab_backoff_skips_.load(std::memory_order_relaxed);
  return c;
}

void DistanceEngine::ResetCounters() {
  profiles_.store(0, std::memory_order_relaxed);
  cache_hits_.store(0, std::memory_order_relaxed);
  cache_misses_.store(0, std::memory_order_relaxed);
  eab_candidates_.store(0, std::memory_order_relaxed);
  eab_lb_pruned_.store(0, std::memory_order_relaxed);
  eab_abandoned_.store(0, std::memory_order_relaxed);
  eab_full_.store(0, std::memory_order_relaxed);
  eab_backoff_skips_.store(0, std::memory_order_relaxed);
}

void DistanceEngine::ClearCaches() {
  {
    std::lock_guard<std::mutex> lock(prefix_mu_);
    prefix_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(fft_mu_);
    fft_series_.clear();
    fft_query_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(znq_mu_);
    znq_.clear();
  }
}

}  // namespace ips
