#include "core/distance_engine.h"

#include <algorithm>
#include <string>

#include "core/distance.h"
#include "core/fft.h"
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
  // Early-abandon cascade totals ("engine.eab.<stage>"), summed over every
  // min query that took the pruned path (docs/pruning.md).
  obs::Counter& eab_candidates;
  obs::Counter& eab_lb_pruned;
  obs::Counter& eab_abandoned;
  obs::Counter& eab_full;
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
                          registry.GetHistogram("engine.batch_items"),
                          registry.GetCounter("engine.eab.candidates"),
                          registry.GetCounter("engine.eab.lb_pruned"),
                          registry.GetCounter("engine.eab.abandoned"),
                          registry.GetCounter("engine.eab.full"),
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

void AddEab(simd::EabCounters& into, const simd::EabCounters& c) {
  into.candidates += c.candidates;
  into.lb_pruned += c.lb_pruned;
  into.abandoned += c.abandoned;
  into.full += c.full;
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
  for (double v : zq.values) {
    zq.sum += v;
    zq.sum_sq += v * v;
  }
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
                  MetricId metric, bool cascade, size_t seed,
                  DistanceWorkspace& ws, MinOutcome& outcome) {
  const std::span<const double> s = series.series();
  const size_t m = query.values.size();
  const size_t n = s.size();
  IPS_CHECK(m >= 1 && m <= n);
  CountProfile(metric);
  const MetricPolicy& policy = GetMetric(metric);
  const bool zn = metric == MetricId::kZNormEuclidean;
  const bool fft = UsesFftDots(m, n);
  // The early-abandon cascade only serves the naive sliding-dots regime:
  // under FFT dots the dense kernel sees different (FFT-rounded) products,
  // so pruning against exact scalar dots would break bitwise identity.
  // Metrics whose registered kernel cannot win (eab_profitable false, e.g.
  // cosine's prune-nothing Cauchy-Schwarz scan) take the dense path up
  // front, before paying any cascade setup.
  const bool eab = cascade && !fft && policy.min_early_abandon != nullptr &&
                   policy.eab_profitable;
  const size_t count = n - m + 1;
  const RollingStats* stats = zn ? &series.Stats(m) : nullptr;
  const std::span<const double> slid = zn ? query.zn->values : query.values;

  if (eab) {
    simd::EabArgs ea;
    ea.query = slid.data();
    ea.window = m;
    ea.series = s.data();
    ea.count = count;
    ea.sqp = series.Prefix().data();
    ea.seed = seed;
    if (zn) {
      ea.means = stats->means.data();
      ea.stds = stats->stds.data();
      ea.query_flat = query.zn->flat;
      ea.zq_sum = query.zn->sum;
      ea.zq_sumsq = query.zn->sum_sq;
    } else {
      ea.qq = query.prefix.back();
      ea.qpre = query.prefix.data();
    }
    const simd::EabResult res = policy.min_early_abandon(ea, outcome.eab);
    CountEab(metric, outcome.eab);
    if (!res.bailed_out) {
      outcome.argmin = res.argmin;
      return res.min;
    }
    // Bailed out: pruning was losing to the vectorised dense kernel. Fall
    // through to the dense path (identical result either way).
    outcome.bailed_out = true;
  }

  if (fft) {
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
    return simd::ZNormMinFromDots(ws.dots.data(), stats->stds.data(), count,
                                  m, query.zn->flat);
  }
  MetricProfileArgs args;
  args.dots = ws.dots.data();
  args.count = count;
  args.window = m;
  args.qq = query.prefix.back();
  args.sqp = series.Prefix().data();
  return policy.kernels.min_from_dots(args);
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
  MinOutcome outcome;
  const double d = MinOfQuery({q, ws.query_prefix, &ws.query_zn, {}},
                              ws.series, metric, early_abandon_,
                              simd::kEabNoSeed, ws, outcome);
  ws.series.Reset({});
  Count(1, outcome.eab);
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
    simd::EabCounters eab;
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
      MinOutcome outcome;
      out[t] = MinOfQuery(query, ws.series, metric, early_abandon_,
                          simd::kEabNoSeed, ws, outcome);
      AddEab(eab, outcome.eab);
    }
    ws.series.Reset({});
    Count(end - begin, eab);
  });
  return out;
}

// ------------------------------------------------------- instrumentation

void DistanceEngine::Count(size_t profiles, const simd::EabCounters& eab) {
  profiles_.fetch_add(profiles, std::memory_order_relaxed);
  eab_candidates_.fetch_add(eab.candidates, std::memory_order_relaxed);
  eab_lb_pruned_.fetch_add(eab.lb_pruned, std::memory_order_relaxed);
  eab_abandoned_.fetch_add(eab.abandoned, std::memory_order_relaxed);
  eab_full_.fetch_add(eab.full, std::memory_order_relaxed);
}

EngineCounters DistanceEngine::counters() const {
  EngineCounters c;
  c.profiles_computed = profiles_.load(std::memory_order_relaxed);
  c.eab_candidates = eab_candidates_.load(std::memory_order_relaxed);
  c.eab_lb_pruned = eab_lb_pruned_.load(std::memory_order_relaxed);
  c.eab_abandoned = eab_abandoned_.load(std::memory_order_relaxed);
  c.eab_full = eab_full_.load(std::memory_order_relaxed);
  return c;
}

void DistanceEngine::ResetCounters() {
  profiles_.store(0, std::memory_order_relaxed);
  eab_candidates_.store(0, std::memory_order_relaxed);
  eab_lb_pruned_.store(0, std::memory_order_relaxed);
  eab_abandoned_.store(0, std::memory_order_relaxed);
  eab_full_.store(0, std::memory_order_relaxed);
}

}  // namespace ips
