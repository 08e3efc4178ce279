#include "matrix_profile/mp_engine.h"

#include <cmath>

#include <algorithm>
#include <limits>
#include <string>

#include "core/fft.h"
#include "core/simd.h"
#include "matrix_profile/stomp_common.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/scratch_arena.h"

namespace ips {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Process-wide mirrors of the per-instance counters (same split as
// core/distance_engine.cc: instance atomics keep per-engine snapshot/reset
// semantics, the registry carries the run-level totals consumers read).
struct MpMetrics {
  obs::Counter& joins_computed;
  obs::Counter& qt_sweeps;
  obs::Counter& joins_halved;
  // Artifact-table accounting: tables built and entries materialised per
  // build.
  obs::Counter& artifact_builds;
  obs::Counter& artifact_entries;
  // Per-metric slice of qt_sweeps ("mp.qt_sweeps.<name>"); the total above
  // is always bumped too, keeping historic consumers intact.
  obs::Counter* sweeps_by_metric[kMetricCount];
};

MpMetrics& Metrics() {
  static MpMetrics* metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
    auto* m = new MpMetrics{registry.GetCounter("mp.joins_computed"),
                            registry.GetCounter("mp.qt_sweeps"),
                            registry.GetCounter("mp.joins_halved"),
                            registry.GetCounter("engine.artifact_table.builds"),
                            registry.GetCounter(
                                "engine.artifact_table.entries"),
                            {}};
    for (size_t i = 0; i < kMetricCount; ++i) {
      m->sweeps_by_metric[i] = &registry.GetCounter(
          std::string("mp.qt_sweeps.") + MetricName(static_cast<MetricId>(i)));
    }
    return m;
  }();
  return *metrics;
}

void BumpSweeps(size_t n, MetricId metric) {
  MpMetrics& m = Metrics();
  m.qt_sweeps.Add(n);
  m.sweeps_by_metric[static_cast<size_t>(metric)]->Add(n);
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

// The serial kernels' strict-< running minimum over candidates in
// increasing-index order selects the smallest value and, among bitwise-equal
// values, the smallest index. This update rule computes the same selection
// from candidates arriving in ANY order, which is what makes diagonal
// sweeps and chunk merges bitwise identical to the row-order kernels. For
// the rooted metrics the values are squares, so two squares with one root
// go to the smaller square, as in every other join.
inline void UpdateMin(double d, size_t neighbor, double& val, size_t& idx) {
  if (d < val || (d == val && neighbor < idx)) {
    val = d;
    idx = neighbor;
  }
}

// Rounds an element count of an 8-byte type up to a whole number of cache
// lines, so consecutive carves out of one arena span never false-share.
inline size_t RoundUpLane(size_t count) {
  constexpr size_t kLane = ScratchArena::kAlign / sizeof(double);
  return (count + kLane - 1) & ~(kLane - 1);
}

}  // namespace

size_t ArtifactTable::entry_count() const {
  size_t entries = stats.size() + energies.size() + norms.size();
  for (const auto& f : fft_series) entries += f.empty() ? 0 : 1;
  for (const auto& f : fft_query) entries += f.empty() ? 0 : 1;
  for (const auto& s : seeds) entries += s.empty() ? 0 : 1;
  return entries;
}

// ----------------------------------------------------------------- table

MatrixProfileEngine::SweepContext MatrixProfileEngine::ContextOf(
    const ArtifactTable& table, size_t i, size_t j) {
  const MetricPolicy& policy = GetMetric(table.metric);
  const size_t n = table.views.size();
  SweepContext cx;
  cx.a = table.views[i];
  cx.b = table.views[j];
  cx.window = table.window;
  cx.la = cx.a.size() - table.window + 1;
  cx.lb = cx.b.size() - table.window + 1;
  cx.metric = table.metric;
  if (policy.needs_rolling_stats) {
    cx.stats_a = &table.stats[i];
    cx.stats_b = &table.stats[j];
  }
  if (policy.needs_window_energy) {
    cx.energy_a = &table.energies[i];
    cx.energy_b = &table.energies[j];
  }
  if (policy.needs_window_norms) {
    cx.norm_a = &table.norms[i];
    cx.norm_b = &table.norms[j];
  }
  cx.row0 = &table.seeds[i * n + j];
  cx.col0 = &table.seeds[j * n + i];
  return cx;
}

ArtifactTable MatrixProfileEngine::BuildTable(
    const std::vector<std::span<const double>>& views, size_t window,
    MetricId metric) {
  IPS_CHECK(window >= 2);
  for (const auto& v : views) IPS_CHECK(v.size() >= window);
  IPS_SPAN("mp_artifact_table");

  ArtifactTable table;
  table.window = window;
  table.metric = metric;
  table.views = views;
  const size_t n = views.size();
  const MetricPolicy& policy = GetMetric(metric);
  if (policy.needs_rolling_stats) table.stats.resize(n);
  if (policy.needs_window_energy) table.energies.resize(n);
  if (policy.needs_window_norms) table.norms.resize(n);

  // Distinct padded sizes among FFT-regime seed targets (usually none:
  // short windows use the naive seed kernel).
  for (const auto& v : views) {
    if (StompSeedUsesFft(window, v.size())) {
      table.padded_sizes.push_back(NextPowerOfTwo(v.size() + window));
    }
  }
  std::sort(table.padded_sizes.begin(), table.padded_sizes.end());
  table.padded_sizes.erase(
      std::unique(table.padded_sizes.begin(), table.padded_sizes.end()),
      table.padded_sizes.end());
  const size_t n_sizes = table.padded_sizes.size();
  table.fft_series.resize(n_sizes == 0 ? 0 : n);
  table.fft_query.resize(n * n_sizes);
  table.seeds.resize(n * n);

  // Pass A, parallel over series: per-window statistics (served by the
  // stats provider when it has them -- bitwise identical to computing),
  // the series-side transform at the series' own padded size, and
  // query-side (reversed first window) transforms at every size in play.
  ParallelFor(n, num_threads_, [&](size_t i) {
    if (policy.needs_rolling_stats &&
        (stats_provider_ == nullptr ||
         !stats_provider_->FillRollingStats(views[i], window,
                                            &table.stats[i]))) {
      table.stats[i] = ComputeRollingStats(views[i], window);
    }
    if (policy.needs_window_energy &&
        (stats_provider_ == nullptr ||
         !stats_provider_->FillWindowEnergies(views[i], window,
                                              &table.energies[i]))) {
      table.energies[i] = ComputeWindowEnergies(views[i], window);
    }
    if (policy.needs_window_norms) {
      // The same sqrt of the same double a per-cell root would take.
      table.norms[i].resize(table.energies[i].size());
      for (size_t k = 0; k < table.norms[i].size(); ++k) {
        table.norms[i][k] = std::sqrt(table.energies[i][k]);
      }
    }
    if (n_sizes != 0) {
      if (StompSeedUsesFft(window, views[i].size())) {
        ForwardFftInto(views[i], NextPowerOfTwo(views[i].size() + window),
                       /*reversed=*/false, table.fft_series[i]);
      }
      const auto query = views[i].subspan(0, window);
      for (size_t k = 0; k < n_sizes; ++k) {
        ForwardFftInto(query, table.padded_sizes[k], /*reversed=*/true,
                       table.fft_query[i * n_sizes + k]);
      }
    }
  });

  // Pass B, parallel over the seeds: every ordered pair (i, j), i != j, or
  // the one diagonal entry of a one-series (self-join) table. Seeds
  // replicate the kernels' InitialDots dispatch exactly -- short windows
  // through the naive kernel, long ones through the FFT kernel over the
  // pass-A transforms -- so they are bitwise equal to
  // SlidingDotProducts[Naive]. The inverse transform's product buffer
  // comes from the worker's arena.
  const size_t seed_count = n == 1 ? 1 : n * (n - 1);
  ParallelFor(seed_count, num_threads_, [&](size_t k) {
    size_t i = 0, j = 0;
    if (n > 1) {
      i = k / (n - 1);
      const size_t r = k % (n - 1);
      j = r < i ? r : r + 1;
    }
    std::vector<double>& out = table.seeds[i * n + j];
    const auto query = views[i].subspan(0, window);
    const std::span<const double> y = views[j];
    if (!StompSeedUsesFft(window, y.size())) {
      out = SlidingDotProductsNaive(query, y);
      return;
    }
    const size_t padded = NextPowerOfTwo(y.size() + window);
    const size_t k_size =
        std::lower_bound(table.padded_sizes.begin(), table.padded_sizes.end(),
                         padded) -
        table.padded_sizes.begin();
    const auto& fs = table.fft_series[j];
    const auto& fq = table.fft_query[i * n_sizes + k_size];
    ScratchArena& arena = ScratchArena::ForCurrentThread();
    const ScratchArena::Scope scope(arena);
    std::span<std::complex<double>> prod =
        arena.Alloc<std::complex<double>>(padded);
    for (size_t p = 0; p < padded; ++p) prod[p] = fs[p] * fq[p];
    Fft(prod, /*inverse=*/true);
    out.resize(y.size() - window + 1);
    for (size_t p = 0; p < out.size(); ++p) {
      out[p] = prod[window - 1 + p].real();
    }
  });

  Metrics().artifact_builds.Add(1);
  Metrics().artifact_entries.Add(table.entry_count());
  table_builds_.fetch_add(1, std::memory_order_relaxed);
  return table;
}

// -------------------------------------------------------------------- sweep

size_t MatrixProfileEngine::DiagCount(const SweepContext& cx) {
  if (cx.self) {
    return cx.la - 1 > cx.exclusion ? cx.la - 1 - cx.exclusion : 0;
  }
  return cx.la + cx.lb - 1;
}

size_t MatrixProfileEngine::DiagCells(const SweepContext& cx, size_t diag) {
  if (cx.self) {
    return cx.la - (cx.exclusion + 1 + diag);
  }
  if (diag >= cx.la - 1) {  // c = diag - (la - 1) >= 0
    const size_t c = diag - (cx.la - 1);
    return std::min(cx.la, cx.lb - c);
  }
  const size_t d = (cx.la - 1) - diag;  // c < 0, starts at row d
  return std::min(cx.lb, cx.la - d);
}

size_t MatrixProfileEngine::ChunkDiagonalsInto(const SweepContext& cx,
                                               size_t chunks,
                                               std::span<size_t> out) const {
  const size_t count = DiagCount(cx);
  size_t total = 0;
  for (size_t k = 0; k < count; ++k) total += DiagCells(cx, k);
  chunks = std::max<size_t>(1, std::min(chunks, count));
  // Sharding only pays off once each chunk amortises a thread spawn (~tens
  // of microseconds), so small sweeps stay single-chunk (and take the
  // row-order fast path). Never affects results, only wall-clock.
  chunks = std::min(chunks, std::max<size_t>(1, total / min_cells_per_chunk_));
  IPS_CHECK(out.size() >= chunks + 1);

  // Greedy cell-balanced boundaries. Chunk boundaries depend only on the
  // chunk count, and even that never affects results -- UpdateMin is
  // visit-order independent.
  size_t written = 0;
  out[written++] = 0;
  const size_t target = (total + chunks - 1) / chunks;
  size_t acc = 0;
  for (size_t k = 0; k < count; ++k) {
    acc += DiagCells(cx, k);
    if (acc >= target && written < chunks) {
      out[written++] = k + 1;
      acc = 0;
    }
  }
  if (out[written - 1] != count) out[written++] = count;
  return written;
}

void MatrixProfileEngine::SweepPartial::Reset(const SweepContext& cx) {
  IPS_CHECK(a_val.size() == cx.la &&
            a_idx.size() == (cx.values_only ? 0 : cx.la));
  std::fill(a_val.begin(), a_val.end(), kInf);
  std::fill(a_idx.begin(), a_idx.end(), kNoNeighbor);
  if (cx.want_b) {
    IPS_CHECK(b_val.size() == cx.lb &&
              b_idx.size() == (cx.values_only ? 0 : cx.lb));
    std::fill(b_val.begin(), b_val.end(), kInf);
    std::fill(b_idx.begin(), b_idx.end(), kNoNeighbor);
  }
}

template <bool kIndex, typename CellFn>
void MatrixProfileEngine::SweepDiagonalsImpl(const SweepContext& cx,
                                             size_t diag_begin,
                                             size_t diag_end, SweepPartial& p,
                                             CellFn cell) {
  const std::span<const double> a = cx.a;
  const std::span<const double> b = cx.self ? cx.a : cx.b;
  const size_t w = cx.window;

  for (size_t k = diag_begin; k < diag_end; ++k) {
    const size_t cells = DiagCells(cx, k);
    size_t i, j;  // first cell of the diagonal
    double qt;
    if (cx.self) {
      i = 0;
      j = cx.exclusion + 1 + k;
      qt = (*cx.row0)[j];
    } else if (k >= cx.la - 1) {
      i = 0;
      j = k - (cx.la - 1);
      qt = (*cx.row0)[j];
    } else {
      i = (cx.la - 1) - k;
      j = 0;
      qt = (*cx.col0)[i];
    }

    for (size_t s = 0;; ++s) {
      const double d = cell(i, j, qt);
      if constexpr (kIndex) {
        UpdateMin(d, j, p.a_val[i], p.a_idx[i]);
        if (cx.self) {
          UpdateMin(d, i, p.a_val[j], p.a_idx[j]);
        } else if (cx.want_b) {
          UpdateMin(d, i, p.b_val[j], p.b_idx[j]);
        }
      } else {
        // Values only (an all-pairs AB sweep): strict-< selects, the fused
        // row's rule.
        if (d < p.a_val[i]) p.a_val[i] = d;
        if (d < p.b_val[j]) p.b_val[j] = d;
      }
      if (s + 1 >= cells) break;
      ++i;
      ++j;
      qt = StompAdvance(qt, a, b, i, j, w);
    }
  }
}

void MatrixProfileEngine::SweepDiagonals(const SweepContext& cx,
                                         size_t diag_begin, size_t diag_end,
                                         SweepPartial& p) {
  const size_t w = cx.window;
  const auto walk = [&](auto cell) {
    if (cx.values_only) {
      SweepDiagonalsImpl<false>(cx, diag_begin, diag_end, p, cell);
    } else {
      SweepDiagonalsImpl<true>(cx, diag_begin, diag_end, p, cell);
    }
  };
  switch (cx.metric) {
    case MetricId::kZNormEuclidean: {
      const double* ma = cx.stats_a->means.data();
      const double* sa = cx.stats_a->stds.data();
      const double* mb = cx.stats_b->means.data();
      const double* sb = cx.stats_b->stds.data();
      walk([=](size_t i, size_t j, double qt) {
        return StompZNormSquared(qt, w, ma[i], sa[i], mb[j], sb[j]);
      });
      return;
    }
    case MetricId::kRawSquaredEuclidean: {
      const double* ea = cx.energy_a->data();
      const double* eb = cx.energy_b->data();
      walk([=](size_t i, size_t j, double qt) {
        return StompRawDistance(qt, w, ea[i], eb[j]);
      });
      return;
    }
    case MetricId::kEuclidean: {
      const double* ea = cx.energy_a->data();
      const double* eb = cx.energy_b->data();
      walk([=](size_t i, size_t j, double qt) {
        return StompL2Squared(qt, ea[i], eb[j]);
      });
      return;
    }
    case MetricId::kCosine: {
      const double* na = cx.norm_a->data();
      const double* nb = cx.norm_b->data();
      walk([=](size_t i, size_t j, double qt) {
        return StompCosineDistance(qt, na[i], nb[j]);
      });
      return;
    }
  }
  IPS_CHECK(false);  // unreachable: all MetricId values handled above
}

void MatrixProfileEngine::RowSweep(const SweepContext& cx, SweepPartial& p) {
  const std::span<const double> a = cx.a;
  const std::span<const double> b = cx.self ? cx.a : cx.b;
  const size_t w = cx.window;
  const MetricKernels& kernels = GetMetric(cx.metric).kernels;
  const double* ma = cx.stats_a ? cx.stats_a->means.data() : nullptr;
  const double* sa = cx.stats_a ? cx.stats_a->stds.data() : nullptr;
  const double* mb = cx.stats_b ? cx.stats_b->means.data() : nullptr;
  const double* sb = cx.stats_b ? cx.stats_b->stds.data() : nullptr;
  const double* ea = cx.energy_a ? cx.energy_a->data() : nullptr;
  const double* eb = cx.energy_b ? cx.energy_b->data() : nullptr;
  const double* nb = cx.norm_b ? cx.norm_b->data() : nullptr;
  // Per-window statistics of the column side from offset `off`, and of one
  // row window -- the policy row kernel reads whichever arrays its metric
  // declared (needs_* flags); the rest stay null / zero.
  const auto row_view = [&](size_t off) {
    MetricRowView v;
    if (mb != nullptr) {
      v.means = mb + off;
      v.stds = sb + off;
    }
    if (eb != nullptr) v.energies = eb + off;
    if (nb != nullptr) v.norms = nb + off;
    return v;
  };
  const auto cell_at = [&](size_t i) {
    MetricCell c;
    if (ma != nullptr) {
      c.mean = ma[i];
      c.std = sa[i];
    }
    if (ea != nullptr) c.energy = ea[i];
    return c;
  };

  // In-place right-to-left row recurrence, exactly as the serial kernels:
  // the QT pass streams over the row (no loop-carried stall, unlike a
  // diagonal walk) and each cell's chained value is identical to the
  // diagonal sweep's, so both paths yield the same profiles bitwise. The
  // one difference from the kernels is that each cell feeds BOTH sides'
  // minima -- the pair-symmetric halving.
  //
  // The QT row comes from the worker's arena (an inner scope, so nested
  // sweeps on the caller thread rewind exactly their own carves).
  ScratchArena& arena = ScratchArena::ForCurrentThread();
  const ScratchArena::Scope scope(arena);
  const size_t qn = cx.row0->size();
  double* const qt = arena.Alloc<double>(qn).data();
  std::copy(cx.row0->begin(), cx.row0->end(), qt);
  const std::vector<double>& col0 = *cx.col0;
  double* const av = p.a_val.data();

  if (cx.values_only) {
    // The all-pairs join keeps minima only, so each row is one fused pass
    // per vector block (core/simd.h StompRowFused*): the QT advance, the
    // metric's cell and the fold into both sides' minima, in registers --
    // no distance row, no neighbour index.
    double* const bv = p.b_val.data();
    for (size_t i = 0; i < cx.la; ++i) {
      simd::QtStep step;
      if (i > 0) step = {true, b.data(), a[i - 1], a[i + w - 1], col0[i]};
      av[i] = kernels.stomp_row_fused(qt, cx.lb, w, step, row_view(0),
                                      cell_at(i), bv);
    }
    return;
  }

  // The index-keeping joins run three vectorised passes per row
  // (core/simd.h): QtRowAdvance performs the in-place update -- every new
  // qt[j] reads only pre-update values, so blocks of lanes are independent
  // outputs -- the policy's stomp_row kernel evaluates the metric's
  // per-cell value into `dist` (the square for row_squared metrics, rooted
  // by the caller once the profile is final), and StompRowMins runs the
  // two-sided min scan: a per-lane select on the column side and lane
  // minima folded by lowest index on the row side.
  //
  // Updates here use plain strict < (not the tie-aware UpdateMin): a full
  // row-order sweep visits cells in the kernels' own order -- for a fixed
  // row target i the candidates j arrive in increasing order, and for a
  // fixed column target j the candidates i do too -- so first-strictly-
  // smaller-wins IS the serial tie rule, and StompRowMins reproduces it
  // bitwise. The tie-aware comparison is only needed when chunk partials
  // merge out of visit order.
  //
  // The distance and column-winner rows come from the arena too. The
  // kernel carries column winners' row numbers as doubles (-1 =
  // untouched), converted to indices once per sweep.
  const size_t cols = cx.self ? cx.la : (cx.want_b ? cx.lb : 0);
  double* const dist = arena.Alloc<double>(RoundUpLane(cx.lb) + cols).data();
  size_t* const ai = p.a_idx.data();
  double* const col_row = dist + RoundUpLane(cx.lb);
  std::fill(col_row, col_row + cols, -1.0);
  const auto take_col_rows = [&](size_t* idx) {
    for (size_t j = 0; j < cols; ++j) {
      if (col_row[j] >= 0.0) idx[j] = static_cast<size_t>(col_row[j]);
    }
  };

  if (cx.self) {
    const size_t l = cx.la;
    for (size_t i = 0; i < l; ++i) {
      if (i > 0) {
        simd::QtRowAdvance(qt, l, a.data(), w, a[i - 1], a[i + w - 1]);
        qt[0] = col0[i];  // QT(i, 0) = QT(0, i) by symmetry
      }
      const size_t start = i + cx.exclusion + 1;
      if (start >= l) continue;
      kernels.stomp_row(qt + start, row_view(start), l - start, w, cell_at(i),
                        dist);
      // Row i's own minimum so far is its column-side one (rows < i).
      const simd::RowMin best = simd::StompRowMins(
          dist, l - start, static_cast<double>(start), static_cast<double>(i),
          {av[i], col_row[i]}, av + start, col_row + start);
      av[i] = best.value;
      col_row[i] = best.index;
    }
    take_col_rows(ai);
    return;
  }

  double* const bv = p.b_val.data();
  for (size_t i = 0; i < cx.la; ++i) {
    if (i > 0) {
      simd::QtRowAdvance(qt, cx.lb, b.data(), w, a[i - 1], a[i + w - 1]);
      qt[0] = col0[i];
    }
    kernels.stomp_row(qt, row_view(0), cx.lb, w, cell_at(i), dist);
    if (cx.want_b) {
      const simd::RowMin best =
          simd::StompRowMins(dist, cx.lb, 0.0, static_cast<double>(i),
                             {kInf, -1.0}, bv, col_row);
      av[i] = best.value;
      ai[i] = best.index < 0.0 ? kNoNeighbor
                               : static_cast<size_t>(best.index);
    } else {
      double best = kInf;
      size_t best_j = kNoNeighbor;
      for (size_t j = 0; j < cx.lb; ++j) {
        const double d = dist[j];
        if (d < best) {
          best = d;
          best_j = j;
        }
      }
      av[i] = best;
      ai[i] = best_j;
    }
  }
  if (cx.want_b) take_col_rows(p.b_idx.data());
}

void MatrixProfileEngine::MergePartial(const SweepContext& cx,
                                       const SweepPartial& p,
                                       std::span<double> a_val,
                                       std::span<size_t> a_idx,
                                       std::span<double> b_val,
                                       std::span<size_t> b_idx) {
  if (cx.values_only) {
    // A plain minimum: a selection, so the merge order cannot matter.
    for (size_t i = 0; i < cx.la; ++i) {
      if (p.a_val[i] < a_val[i]) a_val[i] = p.a_val[i];
    }
    for (size_t j = 0; j < cx.lb; ++j) {
      if (p.b_val[j] < b_val[j]) b_val[j] = p.b_val[j];
    }
    return;
  }
  for (size_t i = 0; i < cx.la; ++i) {
    UpdateMin(p.a_val[i], p.a_idx[i], a_val[i], a_idx[i]);
  }
  if (cx.want_b && !b_val.empty()) {
    for (size_t j = 0; j < cx.lb; ++j) {
      UpdateMin(p.b_val[j], p.b_idx[j], b_val[j], b_idx[j]);
    }
  }
}

void MatrixProfileEngine::RunSweep(const SweepContext& cx, size_t chunks,
                                   MatrixProfile& a_out, MatrixProfile* b_out) {
  a_out.values.assign(cx.la, kInf);
  a_out.indices.assign(cx.la, kNoNeighbor);
  if (b_out != nullptr) {
    b_out->values.assign(cx.lb, kInf);
    b_out->indices.assign(cx.lb, kNoNeighbor);
  }
  if (DiagCount(cx) == 0) return;

  // Chunk boundaries and the per-chunk partials' backing storage: flat
  // carves out of the caller's arena, sliced at cache-line strides so
  // concurrent chunk writers never false-share.
  ScratchArena& arena = ScratchArena::ForCurrentThread();
  const ScratchArena::Scope scope(arena);
  const std::span<size_t> bounds =
      arena.Alloc<size_t>(std::max<size_t>(chunks, 1) + 1);
  const size_t parts = ChunkDiagonalsInto(cx, chunks, bounds) - 1;
  const size_t va = RoundUpLane(cx.la);
  const size_t vb = cx.want_b ? RoundUpLane(cx.lb) : 0;
  const size_t stride = va + vb;
  std::span<double> vals = arena.Alloc<double>(parts * stride);
  std::span<size_t> idxs = arena.Alloc<size_t>(parts * stride);
  std::span<SweepPartial> partials = arena.Alloc<SweepPartial>(parts);
  for (size_t c = 0; c < parts; ++c) {
    SweepPartial& p = *new (&partials[c]) SweepPartial();
    p.a_val = vals.subspan(c * stride, cx.la);
    p.a_idx = idxs.subspan(c * stride, cx.la);
    if (cx.want_b) {
      p.b_val = vals.subspan(c * stride + va, cx.lb);
      p.b_idx = idxs.subspan(c * stride + va, cx.lb);
    }
  }

  if (parts == 1) {
    partials[0].Reset(cx);
    RowSweep(cx, partials[0]);
  } else {
    ParallelFor(parts, parts, [&](size_t c) {
      partials[c].Reset(cx);
      SweepDiagonals(cx, bounds[c], bounds[c + 1], partials[c]);
    });
  }
  std::span<double> b_val;
  std::span<size_t> b_idx;
  if (b_out != nullptr) {
    b_val = b_out->values;
    b_idx = b_out->indices;
  }
  for (size_t c = 0; c < parts; ++c) {
    MergePartial(cx, partials[c], a_out.values, a_out.indices, b_val, b_idx);
  }
  if (GetMetric(cx.metric).row_squared) {
    StompRootProfile(a_out.values);
    if (b_out != nullptr) StompRootProfile(b_out->values);
  }
}

// -------------------------------------------------------------- public API

MatrixProfile MatrixProfileEngine::SelfJoin(std::span<const double> series,
                                            size_t window, size_t exclusion,
                                            MetricId metric) {
  IPS_CHECK(window >= 2);
  IPS_CHECK(series.size() > window);
  if (exclusion == 0) exclusion = DefaultExclusionZone(window);
  IPS_SPAN("mp_self_join");
  sweeps_.fetch_add(1, std::memory_order_relaxed);
  joins_.fetch_add(1, std::memory_order_relaxed);
  BumpSweeps(1, metric);
  Metrics().joins_computed.Add(1);

  // A one-series table: its diagonal seed is QT(0, j), and by symmetry
  // QT(i, 0) too, so it serves as both the row-0 and the column-0 seed.
  const ArtifactTable table = BuildTable({series}, window, metric);
  SweepContext cx = ContextOf(table, 0, 0);
  cx.self = true;
  cx.exclusion = exclusion;
  cx.want_b = false;
  MatrixProfile mp;
  RunSweep(cx, num_threads_, mp, nullptr);
  return mp;
}

MatrixProfile MatrixProfileEngine::AbJoin(std::span<const double> a,
                                          std::span<const double> b,
                                          size_t window, MetricId metric) {
  IPS_CHECK(window >= 2);
  IPS_CHECK(a.size() >= window);
  IPS_CHECK(b.size() >= window);
  IPS_SPAN("mp_ab_join");
  sweeps_.fetch_add(1, std::memory_order_relaxed);
  joins_.fetch_add(1, std::memory_order_relaxed);
  BumpSweeps(1, metric);
  Metrics().joins_computed.Add(1);

  const ArtifactTable table = BuildTable({a, b}, window, metric);
  SweepContext cx = ContextOf(table, 0, 1);
  cx.want_b = false;
  MatrixProfile mp;
  RunSweep(cx, num_threads_, mp, nullptr);
  return mp;
}

PairJoin MatrixProfileEngine::AbJoinBoth(std::span<const double> a,
                                         std::span<const double> b,
                                         size_t window, MetricId metric) {
  IPS_CHECK(window >= 2);
  IPS_CHECK(a.size() >= window);
  IPS_CHECK(b.size() >= window);
  IPS_SPAN("mp_ab_join");
  sweeps_.fetch_add(1, std::memory_order_relaxed);
  joins_.fetch_add(2, std::memory_order_relaxed);
  halved_.fetch_add(1, std::memory_order_relaxed);
  BumpSweeps(1, metric);
  Metrics().joins_computed.Add(2);
  Metrics().joins_halved.Add(1);

  const ArtifactTable table = BuildTable({a, b}, window, metric);
  const SweepContext cx = ContextOf(table, 0, 1);
  PairJoin join;
  join.a = 0;
  join.b = 1;
  RunSweep(cx, num_threads_, join.a_vs_b, &join.b_vs_a);
  return join;
}

std::vector<PairMinima> MatrixProfileEngine::JoinAllPairs(
    const ArtifactTable& table) {
  std::vector<PairMinima> joins;
  JoinAllPairsInto(table, joins);
  return joins;
}

void MatrixProfileEngine::JoinAllPairsInto(const ArtifactTable& table,
                                           std::vector<PairMinima>& joins) {
  const size_t n = table.views.size();
  const size_t pair_count = n < 2 ? 0 : n * (n - 1) / 2;
  joins.resize(pair_count);
  if (pair_count == 0) return;
  {
    size_t t = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j, ++t) {
        joins[t].a = i;
        joins[t].b = j;
      }
    }
  }
  IPS_SPAN("mp_join_all_pairs");
  sweeps_.fetch_add(pair_count, std::memory_order_relaxed);
  joins_.fetch_add(2 * pair_count, std::memory_order_relaxed);
  halved_.fetch_add(pair_count, std::memory_order_relaxed);
  BumpSweeps(pair_count, table.metric);
  Metrics().joins_computed.Add(2 * pair_count);
  Metrics().joins_halved.Add(pair_count);

  // All per-call setup -- contexts, chunk bounds, work items and
  // partial-minima storage -- is carved from the caller's arena under one
  // scope: the steady-state call performs no heap allocation at all.
  ScratchArena& arena = ScratchArena::ForCurrentThread();
  const ScratchArena::Scope scope(arena);

  // Phase 1, parallel over pairs: contexts from the table (values only),
  // per-pair chunk boundaries and output minima (assign reuses capacity on
  // repeat batches). With more threads than pairs, each pair's diagonals
  // are split so every worker stays busy.
  const size_t chunks_per_pair =
      pair_count >= num_threads_
          ? 1
          : (num_threads_ + pair_count - 1) / pair_count;
  const size_t bstride = chunks_per_pair + 1;
  std::span<SweepContext> contexts = arena.Alloc<SweepContext>(pair_count);
  std::span<size_t> bounds = arena.Alloc<size_t>(pair_count * bstride);
  std::span<size_t> parts = arena.Alloc<size_t>(pair_count);
  ParallelFor(pair_count, num_threads_, [&](size_t t) {
    SweepContext& cx = *new (&contexts[t])
        SweepContext(ContextOf(table, joins[t].a, joins[t].b));
    cx.values_only = true;
    parts[t] = ChunkDiagonalsInto(cx, chunks_per_pair,
                                  bounds.subspan(t * bstride, bstride)) -
               1;
    joins[t].a_vs_b.assign(cx.la, kInf);
    joins[t].b_vs_a.assign(cx.lb, kInf);
  });

  // Phase 2 layout: (pair, chunk) work items in lexicographic pair order,
  // each with a cache-line-strided slice of one flat partial-minima carve.
  struct WorkItem {
    size_t pair;
    size_t chunk;
  };
  size_t item_count = 0;
  size_t value_count = 0;
  for (size_t t = 0; t < pair_count; ++t) {
    item_count += parts[t];
    value_count +=
        parts[t] * (RoundUpLane(contexts[t].la) + RoundUpLane(contexts[t].lb));
  }
  std::span<WorkItem> items = arena.Alloc<WorkItem>(item_count);
  std::span<SweepPartial> partials = arena.Alloc<SweepPartial>(item_count);
  std::span<double> vals = arena.Alloc<double>(value_count);
  {
    size_t pos = 0;
    size_t off = 0;
    for (size_t t = 0; t < pair_count; ++t) {
      const size_t va = RoundUpLane(contexts[t].la);
      const size_t vb = RoundUpLane(contexts[t].lb);
      for (size_t c = 0; c < parts[t]; ++c, ++pos, off += va + vb) {
        new (&items[pos]) WorkItem{t, c};
        SweepPartial& p = *new (&partials[pos]) SweepPartial();
        p.a_val = vals.subspan(off, contexts[t].la);
        p.b_val = vals.subspan(off + va, contexts[t].lb);
      }
    }
  }

  // Phase 2, parallel over (pair, chunk) items with private partials.
  ParallelFor(item_count, num_threads_, [&](size_t w) {
    const WorkItem& it = items[w];
    const SweepContext& cx = contexts[it.pair];
    partials[w].Reset(cx);
    if (parts[it.pair] == 1) {
      // Unsharded pair: the fused row-order fast path (bitwise the
      // diagonal walk's minima -- same seeds, same chained QT values).
      RowSweep(cx, partials[w]);
    } else {
      SweepDiagonals(cx, bounds[it.pair * bstride + it.chunk],
                     bounds[it.pair * bstride + it.chunk + 1], partials[w]);
    }
  });

  // Phase 3, serial merge in deterministic item order. Each pair's chunks
  // merge into that pair's own minima by a plain minimum. The merged
  // minima of a row_squared metric are squares; each entry is rooted once,
  // after the last merge.
  for (size_t w = 0; w < item_count; ++w) {
    PairMinima& join = joins[items[w].pair];
    MergePartial(contexts[items[w].pair], partials[w], join.a_vs_b, {},
                 join.b_vs_a, {});
  }
  if (GetMetric(table.metric).row_squared) {
    for (PairMinima& join : joins) {
      StompRootProfile(join.a_vs_b);
      StompRootProfile(join.b_vs_a);
    }
  }
}

// ------------------------------------------------------- instrumentation

MpEngineCounters MatrixProfileEngine::counters() const {
  MpEngineCounters c;
  c.joins_computed = joins_.load(std::memory_order_relaxed);
  c.qt_sweeps = sweeps_.load(std::memory_order_relaxed);
  c.joins_halved = halved_.load(std::memory_order_relaxed);
  c.table_builds = table_builds_.load(std::memory_order_relaxed);
  return c;
}

void MatrixProfileEngine::ResetCounters() {
  joins_.store(0, std::memory_order_relaxed);
  sweeps_.store(0, std::memory_order_relaxed);
  halved_.store(0, std::memory_order_relaxed);
  table_builds_.store(0, std::memory_order_relaxed);
}

}  // namespace ips
