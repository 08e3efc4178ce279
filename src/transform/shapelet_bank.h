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
// MinOutcomes of the first kRouteProbeSeries training rows: they run the
// cascade on every shapelet, in row order on one thread, each seeded with
// the previous row's argmin, and a shapelet on which the cascade bailed
// out on more than half of them is routed dense. Those outcomes are a pure
// function of the series and the shapelets, so the route is the same at
// every thread count. Every transform through the bank, the training
// set's included, follows the route.
//
// Identity: the artefacts come from the engine's artefact functions
// (core/distance_engine.h) and the min queries run the engine's kernels
// in the engine's order, so every row is bitwise equal to
// TransformSeries and DistanceEngine::TransformBatch. A route only picks
// the cascade or the dense path, which agree bitwise.
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

  /// Builds the bank for `shapelets` under `metric`: the FFTs for the
  /// length of train's first series, the routes from its first
  /// kRouteProbeSeries series.
  /// `early_abandon` false (or a build with -DIPS_DISABLE_EARLY_ABANDON)
  /// routes every shapelet dense and probes no cascade.
  ShapeletBank(const std::vector<Subsequence>& shapelets, MetricId metric,
               const DatasetView& train, bool early_abandon);

  /// Calls fn(i, row) once per series of `data`, with row[s] the distance
  /// of data[i] to shapelet s, on up to `num_threads` threads (0 = auto).
  /// `row` is the calling thread's scratch, valid until fn returns. Streams
  /// chunk-granularly like DistanceEngine::TransformBatch, so an
  /// out-of-core view's resident set stays one chunk.
  using RowFn = std::function<void(size_t, std::span<const double>)>;
  void Transform(const DatasetView& data, size_t num_threads,
                 const RowFn& fn) const;

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
    /// otherwise) at padded size fft_padded; empty (size 0) when the
    /// training length is not in the FFT regime.
    size_t fft_padded = 0;
    std::vector<std::complex<double>> fft;
    Route route = Route::kDense;
  };

  /// The min-alignment distance between `series` and shapelet s, operand
  /// order (series, shapelet) as TransformSeries. `cascade` false takes
  /// the dense path; ws.row must hold `series`.
  double Min(size_t s, std::span<const double> series, bool cascade,
             size_t seed, DistanceWorkspace& ws, MinOutcome* outcome) const;
  /// Cascade runs and bail-outs of one shapelet over the probe rows.
  struct ProbeTally {
    size_t ran = 0;
    size_t bailed = 0;
  };
  /// One row, computed in this thread's scratch and valid until its next
  /// row. `probe` non-null runs the cascade on every shapelet and counts
  /// each outcome there; otherwise each route decides. `carry` seeds the
  /// cascade with the scratch's last argmin per shapelet and updates it.
  std::span<const double> Row(std::span<const double> series, bool carry,
                              ProbeTally* probe) const;

  MetricId metric_ = MetricId::kZNormEuclidean;
  std::vector<Entry> entries_;
};

}  // namespace ips

#endif  // IPS_TRANSFORM_SHAPELET_BANK_H_
