// The shapelet side of a fitted model's transform, derived once.
//
// A fitted classifier embeds every series it predicts against the same
// shapelets (paper Def. 7), so everything that depends only on a shapelet
// is derived when the model is fitted and never again -- the way the
// matrix-profile line of work computes normalisation statistics once per
// series instead of once per query. Per shapelet the bank holds:
//
//  * the raw values and their prefix sums of squares;
//  * under z-norm, the z-normalised values with the flat flag and sums;
//  * the reversed FFT of the slid values when the training length puts
//    the shapelet in the FFT regime (another length computes its FFT per
//    call, with the same function);
//  * a cascade route: whether the early-abandon cascade (docs/pruning.md)
//    or the dense kernel serves its min queries.
//
// The route is decided at construction, during the fit, from the
// MinOutcomes of the first kRouteProbeSeries training rows: each shapelet
// runs the cascade over them in row order, each row seeded with the
// previous row's argmin, and a shapelet on which the cascade bailed out on
// more than half of them is routed dense. Shapelets probe in parallel, but
// each one's outcomes are a pure function of the series and that
// shapelet, so the route is the same at every thread count. Every
// transform through the bank, the training set's included, follows the
// route; FitTransform hands out the probe's rows instead of computing
// them again.
//
// Identity: the artefacts come from the engine's artefact functions and
// every min query runs MinOfQuery, the engine's one min function
// (core/distance_engine.h), so every row is bitwise equal to
// TransformSeries. A route only picks the cascade or the dense path, which
// agree bitwise.
//
// Thread-safety: immutable once constructed. Transform and TransformOne
// read it with no lock from any number of threads; rows run on per-thread
// scratch, so no call allocates workspaces.

#ifndef IPS_TRANSFORM_SHAPELET_BANK_H_
#define IPS_TRANSFORM_SHAPELET_BANK_H_

#include <complex>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/distance_engine.h"
#include "core/metric.h"
#include "core/time_series.h"

namespace ips {

class ShapeletBank {
 public:
  enum class Route : uint8_t { kCascade, kDense };

  /// Training series whose outcomes decide the routes.
  static constexpr size_t kRouteProbeSeries = 16;

  /// An empty bank: every row it transforms is empty.
  ShapeletBank() = default;

  /// Calls fn(i, row) once per series of `data`, with row[s] the distance
  /// of data[i] to shapelet s, on up to `num_threads` threads (0 = auto).
  /// `row` is valid until fn returns. Streams chunk-granularly
  /// (ForEachChunk) and parallelises over the series of each chunk, so an
  /// out-of-core view's resident set stays one chunk; rows are bitwise
  /// identical for any chunking and thread count.
  using RowFn = std::function<void(size_t, std::span<const double>)>;
  void Transform(const DatasetView& data, size_t num_threads,
                 const RowFn& fn) const;

  /// Builds the bank for `shapelets` under `metric` -- the FFTs for the
  /// length of train's first series, the routes from its first
  /// kRouteProbeSeries series, probed on up to `num_threads` threads (one
  /// shapelet per task) -- and transforms `train` through it as
  /// Transform(train, num_threads, fn) would, handing fn the probe's rows
  /// rather than computing them twice. `early_abandon` false routes every
  /// shapelet dense and probes no cascade.
  static ShapeletBank FitTransform(const std::vector<Subsequence>& shapelets,
                                   MetricId metric, const DatasetView& train,
                                   bool early_abandon, size_t num_threads,
                                   const RowFn& fn);

  /// One transform row, computed on the calling thread into its scratch:
  /// valid until the thread's next transform through any bank.
  std::span<const double> TransformOne(std::span<const double> series) const;

  size_t size() const { return entries_.size(); }
  Route route(size_t s) const { return entries_[s].route; }

 private:
  struct Entry {
    std::vector<double> values;  ///< the raw shapelet
    std::vector<double> prefix;  ///< prefix sums of squares of `values`
    ZnQuery zn;                  ///< z-normalised values (z-norm only)
    /// Reversed FFT of the slid values (zn.values under z-norm, values
    /// otherwise) at the training length's padded size; empty when that
    /// length is not in the FFT regime.
    std::vector<std::complex<double>> fft;
    Route route = Route::kDense;
  };

  /// The artefacts of `shapelets`, every route dense.
  ShapeletBank(const std::vector<Subsequence>& shapelets, MetricId metric,
               const DatasetView& train);
  /// Decides the routes from train's first kRouteProbeSeries series and
  /// returns those series' rows, row-major.
  std::vector<double> Probe(const DatasetView& train, size_t num_threads);
  /// The distance between `series` (ws.series holds it) and shapelet `e`,
  /// operand order (series, shapelet) as TransformSeries.
  double Distance(const Entry& e, bool cascade, size_t seed,
                  DistanceWorkspace& ws, MinOutcome& outcome) const;
  /// One row, computed in this thread's scratch and valid until its next
  /// row. `carry` seeds the cascade with the scratch's last argmin per
  /// shapelet and updates it.
  std::span<const double> Row(std::span<const double> series,
                              bool carry) const;
  /// Transform, with the first known.size() / size() rows taken from
  /// `known` (row-major) instead of computed.
  void TransformRows(const DatasetView& data, size_t num_threads,
                     std::span<const double> known, const RowFn& fn) const;

  MetricId metric_ = MetricId::kZNormEuclidean;
  std::vector<Entry> entries_;
};

}  // namespace ips

#endif  // IPS_TRANSFORM_SHAPELET_BANK_H_
