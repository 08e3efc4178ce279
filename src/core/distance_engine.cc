#include "core/distance_engine.h"

#include <algorithm>
#include <string>

#include "core/distance.h"
#include "core/fft.h"
#include "core/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace ips {

namespace {

// The calling thread's scratch: every min query the engine runs, single
// pair or batch item, works in it, so warm threads allocate nothing.
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
  obs::Histogram& batch_items;
  // Per-metric slice of profiles_computed ("engine.profiles.<name>"), so a
  // mixed-metric run's obs output attributes work to metrics. The total
  // above is always bumped too, keeping historic dashboards intact.
  obs::Counter* profiles_by_metric[kMetricCount];
};

EngineMetrics& Metrics() {
  static EngineMetrics* metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
    auto* m =
        new EngineMetrics{registry.GetCounter("engine.profiles_computed"),
                          registry.GetHistogram("engine.batch_items"),
                          {}};
    for (size_t i = 0; i < kMetricCount; ++i) {
      const char* name = MetricName(static_cast<MetricId>(i));
      m->profiles_by_metric[i] =
          &registry.GetCounter(std::string("engine.profiles.") + name);
    }
    return m;
  }();
  return *metrics;
}

// The FFT regime's sliding dot products: ws.dots[i] (count of them) from
// the series' forward transform `fs` and the query's reversed one `fq`,
// both of the same padded size, for a query of length m.
void FftSlidingDotsInto(const std::vector<std::complex<double>>& fs,
                        std::span<const std::complex<double>> fq, size_t m,
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

// Whether pair p's first operand is its query: the shorter operand, the
// first on a tie, as in the serial kernel.
bool QueryFirst(const std::vector<std::span<const double>>& views,
                const IndexPair& p) {
  return views[p.first].size() <= views[p.second].size();
}

// The artefact table of one MinForPairs call, indexed like its views and
// read lock-free by every pair, plus its work items.
struct PairTable {
  struct Entry {
    std::vector<double> prefix;  // its query side and series side alike
    ZnQuery zn;                  // z-norm only
    // Reversed FFTs of the slid values, at every padded size a pair of the
    // call slides this view at as an FFT-regime query.
    std::vector<std::pair<size_t, std::vector<std::complex<double>>>> ffts;
  };
  std::vector<Entry> entries;
  // One work item per series-side view v: the pairs order[first[v]] ..
  // order[first[v + 1] - 1], in call order.
  std::vector<size_t> first;
  std::vector<size_t> order;
};

PairTable BuildPairTable(const std::vector<std::span<const double>>& views,
                         const std::vector<IndexPair>& pairs, MetricId metric,
                         size_t num_threads) {
  const size_t num_views = views.size();
  PairTable table;
  table.entries.resize(num_views);
  table.first.assign(num_views + 1, 0);
  for (const IndexPair& p : pairs) {
    const auto [q, s] = QueryFirst(views, p) ? p : IndexPair{p.second, p.first};
    ++table.first[s + 1];
    const size_t m = views[q].size();
    const size_t n = views[s].size();
    if (!UsesFftDots(m, n)) continue;
    auto& ffts = table.entries[q].ffts;
    const size_t padded = NextPowerOfTwo(n + m);
    if (std::none_of(ffts.begin(), ffts.end(),
                     [&](const auto& f) { return f.first == padded; })) {
      ffts.emplace_back(padded, std::vector<std::complex<double>>());
    }
  }
  for (size_t v = 0; v < num_views; ++v) table.first[v + 1] += table.first[v];
  table.order.resize(pairs.size());
  std::vector<size_t> next(table.first.begin(), table.first.end() - 1);
  for (size_t t = 0; t < pairs.size(); ++t) {
    const IndexPair& p = pairs[t];
    table.order[next[QueryFirst(views, p) ? p.second : p.first]++] = t;
  }

  // The artefacts, in one parallel pass.
  const bool zn = metric == MetricId::kZNormEuclidean;
  ParallelFor(num_views, num_threads, [&](size_t v) {
    PairTable::Entry& e = table.entries[v];
    PrefixSquaresInto(views[v], e.prefix);
    if (zn) e.zn = MakeZnQuery(views[v]);
    for (auto& [padded, fft] : e.ffts) {
      ForwardFftInto(zn ? std::span<const double>(e.zn.values) : views[v],
                     padded, /*reversed=*/true, fft);
    }
  });
  return table;
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
  return zq;
}

bool UsesFftDots(size_t m, size_t n) {
  return m >= kFftCutoff && ShouldUseFftSlidingProducts(m, n);
}

void CountProfile(MetricId metric) {
  EngineMetrics& m = Metrics();
  m.profiles_computed.Add(1);
  m.profiles_by_metric[static_cast<size_t>(metric)]->Add(1);
}

// --------------------------------------------------------- series artefacts

void SeriesArtefacts::Reset(std::span<const double> series,
                            std::span<const double> prefix) {
  series_ = series;
  prefix_ = prefix;
  stats_.clear();
  ffts_.clear();
}

std::span<const double> SeriesArtefacts::Prefix() {
  if (prefix_.empty()) {
    PrefixSquaresInto(series_, own_prefix_);
    prefix_ = own_prefix_;
  }
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

// ------------------------------------------------------------ the min query

double MinOfQuery(const QueryArtefacts& query, SeriesArtefacts& series,
                  MetricId metric, DistanceWorkspace& ws) {
  const std::span<const double> s = series.series();
  const size_t m = query.values.size();
  const size_t n = s.size();
  IPS_CHECK(m >= 1 && m <= n);
  CountProfile(metric);
  const bool zn = metric == MetricId::kZNormEuclidean;
  const size_t count = n - m + 1;
  const std::span<const double> slid = zn ? query.zn->values : query.values;

  if (UsesFftDots(m, n)) {
    const size_t padded = NextPowerOfTwo(n + m);
    std::span<const std::complex<double>> fq = query.fft;
    if (fq.size() != padded) {
      ForwardFftInto(slid, padded, /*reversed=*/true, ws.fft_qry);
      fq = ws.fft_qry;
    }
    FftSlidingDotsInto(series.Fft(padded), fq, m, count, ws);
  } else {
    ws.dots.resize(count);
    simd::SlidingDots(slid.data(), m, s.data(), n, ws.dots.data());
  }
  if (zn) {
    return simd::ZNormMinFromDots(ws.dots.data(),
                                  series.Stats(m).stds.data(), count, m,
                                  query.zn->flat);
  }
  MetricProfileArgs args;
  args.dots = ws.dots.data();
  args.count = count;
  args.window = m;
  args.qq = query.prefix.back();
  args.sqp = series.Prefix().data();
  return GetMetric(metric).kernels.min_from_dots(args);
}

// -------------------------------------------------------------- public API

double DistanceEngine::SubsequenceMinMetric(std::span<const double> a,
                                            std::span<const double> b,
                                            MetricId metric) {
  DistanceWorkspace& ws = LocalWorkspace();
  // The shorter operand is the query (the first on a tie), as in the
  // serial kernel.
  const bool a_query = a.size() <= b.size();
  const std::span<const double> q = a_query ? a : b;
  PrefixSquaresInto(q, ws.query_prefix);
  if (metric == MetricId::kZNormEuclidean) ws.query_zn = MakeZnQuery(q);
  ws.series.Reset(a_query ? b : a);
  const double d =
      MinOfQuery({q, ws.query_prefix, &ws.query_zn, {}}, ws.series, metric, ws);
  ws.series.Reset({});
  profiles_.fetch_add(1, std::memory_order_relaxed);
  return d;
}

std::vector<double> DistanceEngine::MinForPairs(
    const std::vector<std::span<const double>>& views,
    const std::vector<IndexPair>& pairs, MetricId metric) {
  IPS_SPAN("dist_pair_batch");
  std::vector<double> out(pairs.size());
  if (pairs.empty()) return out;
  Metrics().batch_items.Observe(pairs.size());
  const PairTable table = BuildPairTable(views, pairs, metric, num_threads_);

  ParallelFor(views.size(), num_threads_, [&](size_t v) {
    const size_t begin = table.first[v];
    const size_t end = table.first[v + 1];
    if (begin == end) return;
    DistanceWorkspace& ws = LocalWorkspace();
    ws.series.Reset(views[v], table.entries[v].prefix);
    for (size_t k = begin; k < end; ++k) {
      const size_t t = table.order[k];
      const uint32_t q =
          QueryFirst(views, pairs[t]) ? pairs[t].first : pairs[t].second;
      const PairTable::Entry& e = table.entries[q];
      QueryArtefacts query{views[q], e.prefix, &e.zn, {}};
      const size_t padded = NextPowerOfTwo(views[v].size() + views[q].size());
      for (const auto& [size, fft] : e.ffts) {
        if (size == padded) query.fft = fft;
      }
      out[t] = MinOfQuery(query, ws.series, metric, ws);
    }
    ws.series.Reset({});
    profiles_.fetch_add(end - begin, std::memory_order_relaxed);
  });
  return out;
}

void DistanceEngine::set_early_abandon(bool /*on*/) {}

// ------------------------------------------------------- instrumentation

EngineCounters DistanceEngine::counters() const {
  EngineCounters c;
  c.profiles_computed = profiles_.load(std::memory_order_relaxed);
  return c;
}

void DistanceEngine::ResetCounters() {
  profiles_.store(0, std::memory_order_relaxed);
}

}  // namespace ips
