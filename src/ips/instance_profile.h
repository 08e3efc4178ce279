// Instance profile (paper Defs. 8-9).
//
// Where the matrix profile annotates windows of ONE series with their
// nearest neighbour in that same series, the instance profile annotates
// every window of every instance in a sample with its nearest neighbour
// among the windows of the OTHER instances of the sample (Def. 9's m' != m
// restriction). Computing it as pairwise AB-joins keeps the exclusion
// semantics exact and avoids spurious matches across concatenation
// boundaries.

#ifndef IPS_IPS_INSTANCE_PROFILE_H_
#define IPS_IPS_INSTANCE_PROFILE_H_

#include <cstddef>

#include <span>
#include <vector>

#include "core/metric.h"
#include "core/time_series.h"

namespace ips {

class MatrixProfileEngine;

/// The instance profile of a sample of instances for one window length.
/// Entry e annotates the window starting at `offsets[e]` of instance
/// `instances[e]` (an index into the sample) with its nearest-neighbour
/// distance `values[e]` among all windows of the sample's other instances.
struct InstanceProfile {
  std::vector<double> values;
  std::vector<size_t> instances;
  std::vector<size_t> offsets;

  size_t size() const { return values.size(); }
};

/// Computes the instance profile of `sample` at window length `window`.
/// Instances shorter than `window` contribute no windows. A single-instance
/// sample degenerates to its self-join matrix profile (with the default
/// exclusion zone), matching the MP-baseline extreme the paper identifies.
/// Requires at least one instance with length >= window.
///
/// `neighbors` generalises the annotation from the 1-NN distance (the
/// paper's Def. 9, the default) to the k-th smallest of the per-other-
/// instance nearest distances -- the neighbor-profile idea of He et al.
/// (ICDE 2020) that the paper's related work credits for the bagging view.
/// k is clamped to the number of other instances.
///
/// When `engine` is non-null the sample's unordered pairs are joined through
/// it -- one pair-symmetric QT sweep per pair, all reading one artifact
/// table built for the call, diagonals sharded over the engine's threads. A
/// null engine uses a private serial engine. Either way the result is bitwise
/// identical to the historic pairwise-AbJoinProfile construction at every
/// thread count (tests/mp_engine_test.cc).
///
/// `metric` selects the distance the joins annotate with (core/metric.h);
/// the default keeps the matrix profile's z-normalised Euclidean.
InstanceProfile ComputeInstanceProfile(
    std::span<const SeriesView> sample, size_t window, size_t neighbors = 1,
    MatrixProfileEngine* engine = nullptr,
    MetricId metric = MetricId::kZNormEuclidean);

/// Convenience overload for owned samples: each TimeSeries is viewed, not
/// copied.
InstanceProfile ComputeInstanceProfile(
    std::span<const TimeSeries> sample, size_t window, size_t neighbors = 1,
    MatrixProfileEngine* engine = nullptr,
    MetricId metric = MetricId::kZNormEuclidean);

/// Positions of up to `k` of the smallest (motif) profile entries, taken
/// greedily in (value, then entry position) order. Non-finite entries are
/// skipped. Two selections of the same instance must be more than
/// ceil(window / 2) offsets apart; entries of different instances never
/// exclude each other. This is SelectWithExclusion's contract
/// (matrix_profile/motif.h): selection i is the first entry in that order
/// that clashes with none of the i-1 before it.
std::vector<size_t> InstanceProfileMotifs(const InstanceProfile& profile,
                                          size_t k, size_t window);

/// Positions of up to `k` of the largest (discord) entries: (value
/// descending, then entry position) order under the same rule.
std::vector<size_t> InstanceProfileDiscords(const InstanceProfile& profile,
                                            size_t k, size_t window);

}  // namespace ips

#endif  // IPS_IPS_INSTANCE_PROFILE_H_
