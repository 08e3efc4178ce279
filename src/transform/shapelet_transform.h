// Shapelet transform (paper Def. 7, Lines et al. [26]).
//
// Given a set of discovered shapelets S, a time series T_j is embedded as
// the vector (dist(T_j, S_1), ..., dist(T_j, S_|S|)) -- its distance to each
// shapelet under a registered metric's min-alignment subsequence distance
// (core/metric.h). The default is z-normalised Euclidean, the convention of
// the shapelet-transform literature ([23], [26]); MetricId::
// kRawSquaredEuclidean gives the paper's literal Def. 4 embedding. The
// transformed dataset is then handed to a conventional classifier (the
// paper uses a linear-kernel SVM).

#ifndef IPS_TRANSFORM_SHAPELET_TRANSFORM_H_
#define IPS_TRANSFORM_SHAPELET_TRANSFORM_H_

#include <vector>

#include "core/metric.h"
#include "core/time_series.h"

namespace ips {

class DistanceEngine;

/// A transformed dataset: one row of shapelet distances per series, plus the
/// original labels.
struct TransformedData {
  std::vector<std::vector<double>> features;  // [series][shapelet]
  std::vector<int> labels;

  size_t size() const { return features.size(); }
  size_t dim() const { return features.empty() ? 0 : features.front().size(); }
};

/// Embeds every series of `data` into shapelet-distance space. Requires a
/// non-empty shapelet set; shapelets longer than a series contribute the
/// distance with the roles swapped (the distances are symmetric in
/// min-alignment).
///
/// The work is routed through a DistanceEngine (core/distance_engine.h):
/// rolling statistics, prefix sums and FFTs are computed once per
/// (series, window) and shared across the whole batch, sharded over
/// `num_threads`. Pass `engine` to reuse an existing engine's caches (its
/// thread count then governs); otherwise a call-local engine is used.
/// Results are identical for every thread count and engine.
TransformedData ShapeletTransform(
    const DatasetView& data, const std::vector<Subsequence>& shapelets,
    MetricId distance = MetricId::kZNormEuclidean, size_t num_threads = 1,
    DistanceEngine* engine = nullptr);

/// Transforms a single series (TimeSeries converts implicitly) with the
/// serial min-alignment kernel of core/distance.h, one shapelet at a time:
/// the reference every batched transform reproduces bitwise.
std::vector<double> TransformSeries(
    SeriesView series, const std::vector<Subsequence>& shapelets,
    MetricId distance = MetricId::kZNormEuclidean);

}  // namespace ips

#endif  // IPS_TRANSFORM_SHAPELET_TRANSFORM_H_
