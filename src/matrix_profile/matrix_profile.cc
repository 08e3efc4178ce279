#include "matrix_profile/matrix_profile.h"

#include <algorithm>
#include <limits>

#include "core/fft.h"
#include "core/znorm.h"
#include "matrix_profile/stomp_common.h"
#include "util/check.h"
#include "util/parallel.h"

namespace ips {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> InitialDots(std::span<const double> query,
                                std::span<const double> series) {
  if (StompSeedUsesFft(query.size(), series.size())) {
    return SlidingDotProducts(query, series);
  }
  return SlidingDotProductsNaive(query, series);
}

}  // namespace

size_t DefaultExclusionZone(size_t window) { return (window + 1) / 2; }

MatrixProfile SelfJoinProfile(std::span<const double> series, size_t window,
                              size_t exclusion) {
  IPS_CHECK(window >= 2);
  IPS_CHECK(series.size() > window);
  if (exclusion == 0) exclusion = DefaultExclusionZone(window);

  const size_t n = series.size();
  const size_t l = n - window + 1;
  const RollingStats stats = ComputeRollingStats(series, window);

  MatrixProfile mp;
  mp.values.assign(l, kInf);
  mp.indices.assign(l, kNoNeighbor);

  // Row 0: dot products of window 0 against every window.
  std::vector<double> qt =
      InitialDots(series.subspan(0, window), series);

  auto update = [&](size_t i, size_t j, double qt_ij) {
    const size_t gap = i > j ? i - j : j - i;
    if (gap <= exclusion) return;
    const double d = StompZNormSquared(qt_ij, window, stats.means[i],
                                       stats.stds[i], stats.means[j],
                                       stats.stds[j]);
    if (d < mp.values[i]) {
      mp.values[i] = d;
      mp.indices[i] = j;
    }
    if (d < mp.values[j]) {
      mp.values[j] = d;
      mp.indices[j] = i;
    }
  };

  for (size_t j = 0; j < l; ++j) update(0, j, qt[j]);

  for (size_t i = 1; i < l; ++i) {
    // STOMP recurrence, in-place right-to-left. Only j > i is consumed
    // (update() fills both directions), and advancing row i's cell j reads
    // row i-1's cell j-1 >= i, so the strict upper triangle chains through
    // itself: the lower triangle -- and the column-0 reseed that used to
    // need a copy of the seed row -- is dead work.
    for (size_t j = l - 1; j > i; --j) {
      qt[j] = StompAdvance(qt[j - 1], series, series, i, j, window);
    }
    for (size_t j = i + 1; j < l; ++j) update(i, j, qt[j]);
  }
  StompRootProfile(mp.values);
  return mp;
}

MatrixProfile SelfJoinProfileParallel(std::span<const double> series,
                                      size_t window, size_t num_threads,
                                      size_t exclusion) {
  IPS_CHECK(window >= 2);
  IPS_CHECK(series.size() > window);
  num_threads = ResolveNumThreads(num_threads);
  if (num_threads <= 1) return SelfJoinProfile(series, window, exclusion);
  if (exclusion == 0) exclusion = DefaultExclusionZone(window);

  const size_t n = series.size();
  const size_t l = n - window + 1;
  const RollingStats stats = ComputeRollingStats(series, window);

  MatrixProfile mp;
  mp.values.assign(l, kInf);
  mp.indices.assign(l, kNoNeighbor);

  // Column-0 products, shared by every chunk: QT(i, 0) = QT(0, i), so the
  // seed row doubles as the recurrence's left edge (as in the serial
  // kernel) instead of an O(window) scalar dot per row.
  const std::vector<double> qt_first =
      InitialDots(series.subspan(0, window), series);

  const size_t chunks = std::min(num_threads, l);
  const size_t chunk_size = (l + chunks - 1) / chunks;

  ParallelFor(chunks, num_threads, [&](size_t c) {
    const size_t row_begin = c * chunk_size;
    const size_t row_end = std::min(l, row_begin + chunk_size);
    if (row_begin >= row_end) return;

    // Seed the chunk's recurrence with one sliding-products computation.
    std::vector<double> qt =
        InitialDots(series.subspan(row_begin, window), series);

    for (size_t i = row_begin; i < row_end; ++i) {
      if (i > row_begin) {
        for (size_t j = l - 1; j >= 1; --j) {
          qt[j] = StompAdvance(qt[j - 1], series, series, i, j, window);
        }
        qt[0] = qt_first[i];
      }
      for (size_t j = 0; j < l; ++j) {
        const size_t gap = i > j ? i - j : j - i;
        if (gap <= exclusion) continue;
        const double d =
            StompZNormSquared(qt[j], window, stats.means[i], stats.stds[i],
                              stats.means[j], stats.stds[j]);
        if (d < mp.values[i]) {
          mp.values[i] = d;
          mp.indices[i] = j;
        }
      }
    }
  });
  StompRootProfile(mp.values);
  return mp;
}

MatrixProfile AbJoinProfile(std::span<const double> a,
                            std::span<const double> b, size_t window) {
  IPS_CHECK(window >= 2);
  IPS_CHECK(a.size() >= window);
  IPS_CHECK(b.size() >= window);

  const size_t la = a.size() - window + 1;
  const size_t lb = b.size() - window + 1;
  const RollingStats stats_a = ComputeRollingStats(a, window);
  const RollingStats stats_b = ComputeRollingStats(b, window);

  MatrixProfile mp;
  mp.values.assign(la, kInf);
  mp.indices.assign(la, kNoNeighbor);

  // qt[j] = dot(a-window(i), b-window(j)); row 0 via sliding products, then
  // the STOMP recurrence over i.
  std::vector<double> qt = InitialDots(a.subspan(0, window), b);
  // Column 0 products for the recurrence seed: dot(b-window(0), a-window(i)).
  const std::vector<double> qt_col0 = InitialDots(b.subspan(0, window), a);

  for (size_t i = 0; i < la; ++i) {
    if (i > 0) {
      for (size_t j = lb - 1; j >= 1; --j) {
        qt[j] = StompAdvance(qt[j - 1], a, b, i, j, window);
      }
      qt[0] = qt_col0[i];
    }
    for (size_t j = 0; j < lb; ++j) {
      const double d =
          StompZNormSquared(qt[j], window, stats_a.means[i], stats_a.stds[i],
                            stats_b.means[j], stats_b.stds[j]);
      if (d < mp.values[i]) {
        mp.values[i] = d;
        mp.indices[i] = j;
      }
    }
  }
  StompRootProfile(mp.values);
  return mp;
}

std::vector<double> ProfileDiff(const MatrixProfile& pa,
                                const MatrixProfile& pb) {
  IPS_CHECK(pa.size() == pb.size());
  std::vector<double> out(pa.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    out[i] = std::abs(pa.values[i] - pb.values[i]);
  }
  return out;
}

}  // namespace ips
