// The shapelet side of a fitted model's transform, derived once.
//
// A fitted classifier embeds every series it predicts against the same
// shapelets (paper Def. 7), so everything that depends only on a shapelet
// is derived when the model is fitted and never again -- the way the
// matrix-profile line of work computes normalisation statistics once per
// series instead of once per query. Per shapelet the bank holds:
//
//  * the raw values and their prefix sums of squares;
//  * under z-norm, the z-normalised values with the flat flag;
//  * the reversed FFT of the slid values when the training length puts
//    the shapelet in the FFT regime (another length computes its FFT per
//    call, with the same function).
//
// The bank also groups its shapelets by length (and by min tail: a flat
// z-normalised or cosine query has its own) when it is built. A row
// answers each group simd::kGroupSize shapelets at a time with
// simd::SlidingMinGroup, one pass over the series whose every load serves
// all of them, and writes each minimum at its shapelet's place in bank
// order.
//
// Identity: the artefacts come from the engine's artefact functions. A
// grouped query is bitwise what MinOfQuery, the engine's one min function
// (core/distance_engine.h), gives for it: the same dot-product chains and
// the same cells, minimised by exact selection. The queries MinOfQuery
// still answers are a group's leftovers (fewer than kGroupSize), every
// query of a length in the FFT regime for the series (UsesFftDots), whose
// dot products round differently, and a shapelet at least as long as the
// series, which takes the serial kernel. So every row is bitwise equal to
// TransformSeries.
//
// Thread-safety: immutable once constructed. Transform and TransformOne
// read it with no lock from any number of threads; rows run on per-thread
// scratch, so no call allocates workspaces.

#ifndef IPS_TRANSFORM_SHAPELET_BANK_H_
#define IPS_TRANSFORM_SHAPELET_BANK_H_

#include <complex>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/distance_engine.h"
#include "core/metric.h"
#include "core/simd.h"
#include "core/time_series.h"

namespace ips {

/// Aborts when `values` holds a NaN or an infinity, naming `series` (its
/// index in the caller's input) and the position of the first such value.
/// A distance to a non-finite window is meaningless, and the min queries
/// would silently skip or zero it, so the transform fails closed instead.
void CheckFiniteSeries(std::span<const double> values, size_t series);

class ShapeletBank {
 public:
  /// An empty bank: every row it transforms is empty.
  ShapeletBank() = default;

  /// The artefacts of `shapelets` under `metric`, with the FFTs for the
  /// length of train's first series.
  ShapeletBank(const std::vector<Subsequence>& shapelets, MetricId metric,
               const DatasetView& train);

  /// Calls fn(i, row) once per series of `data`, with row[s] the distance
  /// of data[i] to shapelet s, on up to `num_threads` threads (0 = auto).
  /// `row` is valid until fn returns. Streams chunk-granularly
  /// (ForEachChunk) and parallelises over the series of each chunk, so an
  /// out-of-core view's resident set stays one chunk; rows are bitwise
  /// identical for any chunking and thread count. Aborts on a series that
  /// holds a NaN or an infinity (CheckFiniteSeries).
  using RowFn = std::function<void(size_t, std::span<const double>)>;
  void Transform(const DatasetView& data, size_t num_threads,
                 const RowFn& fn) const;

  /// One transform row, computed on the calling thread into its scratch:
  /// valid until the thread's next transform through any bank. Counts the
  /// row's size() queries in the registry with one add per counter
  /// (CountProfiles).
  std::span<const double> TransformOne(std::span<const double> series) const;

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::vector<double> values;  ///< the raw shapelet
    std::vector<double> prefix;  ///< prefix sums of squares of `values`
    ZnQuery zn;                  ///< z-normalised values (z-norm only)
    /// Reversed FFT of the slid values (zn.values under z-norm, values
    /// otherwise) at the training length's padded size; empty when that
    /// length is not in the FFT regime.
    std::vector<std::complex<double>> fft;
    simd::MinTail tail = simd::MinTail::kZNorm;
    /// The entry's (length, tail) group, numbered in order of first
    /// appearance.
    size_t group = 0;
  };

  /// The distance between `series` (ws.series holds it) and shapelet `e`,
  /// operand order (series, shapelet) as TransformSeries.
  double Distance(const Entry& e, DistanceWorkspace& ws) const;

  /// Writes row[s] for every bank index s in `group`, the members of one
  /// group in bank order, with ws.series holding the series.
  void GroupDistances(std::span<const size_t> group, DistanceWorkspace& ws,
                      std::span<double> row) const;

  MetricId metric_ = MetricId::kZNormEuclidean;
  std::vector<Entry> entries_;
  /// The bank indices group by group, each group's in bank order.
  std::vector<size_t> order_;
};

}  // namespace ips

#endif  // IPS_TRANSFORM_SHAPELET_BANK_H_
