// Metric policies: pluggable distance functions for the whole stack.
//
// Every layer that evaluates subsequence distances -- the core distance
// profiles, the DistanceEngine batch APIs, the STOMP matrix-profile sweeps
// and the shapelet transform -- dispatches through a MetricPolicy instead of
// baking in one metric. A policy bundles, per metric:
//
//  * the distance-profile tail kernels (profile / min from sliding dot
//    products), in both the build-time dispatched SIMD flavour and the
//    always-scalar reference flavour (core/simd.h's `scalar::` discipline);
//  * the STOMP row kernels: one row of distances from the QT recurrence
//    values plus per-window statistics, consumed by the
//    MatrixProfileEngine's row-order sweep, and the fused all-pairs row
//    that advances QT and folds the same cells straight into minima;
//  * a direct O(window) pairwise reference distance between two
//    equal-length windows -- the brute-force oracle the parity tests
//    compare every engine against;
//  * the artefacts the engines must precompute for it: rolling mean/std
//    windows (z-normalised family) or per-window energies (dot family).
//
// All shipped metrics share the same computational skeleton -- a sliding
// dot product QT between windows, advanced in O(1) along diagonals by the
// metric-independent STOMP recurrence -- following Akbarinia & Theodorakis's
// observation that the MASS/STOMP machinery generalises beyond z-normalised
// Euclidean. Only the O(1) "distance from QT" step differs per metric, so a
// new metric costs three small kernels and a table entry (docs/metrics.md
// walks through the derivations and the registration steps).
//
// Identity contract: kZNormEuclidean is the default everywhere and its
// hooks are thin wrappers around the exact pre-policy kernels, so default
// runs are bitwise identical to the un-refactored code
// (bench/discovery_fingerprint proves it). Every metric's distances are
// bitwise identical across thread counts and symmetric under exchanging the
// sides (the groupings in the kernels only commute single IEEE operations).

#ifndef IPS_CORE_METRIC_H_
#define IPS_CORE_METRIC_H_

#include <cstddef>
#include <cstdint>

#include <span>
#include <string_view>

#include "core/simd.h"

namespace ips {

/// Identifies a distance function. Values are stable across releases: they
/// are recorded (by name) in the v2.1 run artifact.
enum class MetricId : uint8_t {
  /// MASS/STOMP z-normalised Euclidean distance -- each window is
  /// z-normalised before comparison. The default metric of the matrix
  /// profile and of the shapelet-transform literature.
  kZNormEuclidean = 0,
  /// The paper's literal Def. 4: length-normalised squared Euclidean
  /// distance (no window normalisation). Used by utility scoring, pruning
  /// and the DABF regardless of the run metric -- it is part of the IPS
  /// algorithm, not a profile choice.
  kRawSquaredEuclidean = 1,
  /// Non-normalised Euclidean (L2) distance between raw windows, for
  /// domains where amplitude and offset carry signal.
  kEuclidean = 2,
  /// Cosine distance 1 - <a, b> / (||a|| ||b||), a correlation-family
  /// metric sensitive to shape but not to scale.
  kCosine = 3,
};

/// Number of registered metrics (enum values are 0..kMetricCount-1).
inline constexpr size_t kMetricCount = 4;

/// Inputs of the distance-profile tail kernels: everything the engines have
/// on hand after the sliding-dot-products pass. Which fields a metric reads
/// is fixed per metric; unused fields may be zero / null.
struct MetricProfileArgs {
  const double* dots = nullptr;  ///< sliding dot products, `count` values
  size_t count = 0;              ///< number of profile entries (n - m + 1)
  size_t window = 0;             ///< query length m
  double qq = 0.0;               ///< query sum of squares (dot family)
  const double* sqp = nullptr;   ///< series prefix sums of squares, size n+1
  const double* stds = nullptr;  ///< rolling window stds (z-normalised)
  bool query_flat = false;       ///< z-normalised query is all zero
};

/// Per-window statistics of one STOMP side, pre-offset by the caller so
/// index j addresses the j-th window of the row. Which arrays are non-null
/// follows the policy's needs_* flags.
struct MetricRowView {
  const double* means = nullptr;     ///< rolling means (z-normalised)
  const double* stds = nullptr;      ///< rolling stds (z-normalised)
  const double* energies = nullptr;  ///< per-window sums of squares
  const double* norms = nullptr;     ///< roots of the energies (cosine)
};

/// The same statistics for a single window (the sweep's row side).
struct MetricCell {
  double mean = 0.0;
  double std = 0.0;
  double energy = 0.0;
};

/// The kernel hooks of one metric. Two instances exist per policy: the
/// build-time dispatched (SIMD) kernels and the width-1 scalar references,
/// mirroring core/simd.h's dispatched / `scalar::` split so tests can pin
/// them to bitwise agreement in one binary.
struct MetricKernels {
  /// Distance profile from sliding dot products: out[i] = d(query,
  /// series[i..i+m)). `out` must hold args.count values.
  void (*profile_from_dots)(const MetricProfileArgs& args, double* out);
  /// min over profile_from_dots without materialising the profile (exact:
  /// min-selection never rounds).
  double (*min_from_dots)(const MetricProfileArgs& args);
  /// One STOMP row: out[j] = d(window a, window b_j) given the row's QT
  /// values, or its square when the policy's row_squared is set. Used by
  /// the MatrixProfileEngine row sweep; must be bitwise equal to the
  /// per-cell helpers in matrix_profile/stomp_common.h.
  void (*stomp_row)(const double* qt, const MetricRowView& b, size_t count,
                    size_t window, const MetricCell& a, double* out);
  /// One fused all-pairs row, values only (simd::StompRowFused*): advances
  /// `qt` in place per `step`, folds each of stomp_row's cells into
  /// col_val[j] by strict < and returns the smallest cell -- the join's
  /// minima with no distance row and no neighbour index.
  double (*stomp_row_fused)(double* qt, size_t count, size_t window,
                            const simd::QtStep& step, const MetricRowView& b,
                            const MetricCell& a, double* col_val);
};

/// One registered metric: identity, artefact requirements and kernels.
struct MetricPolicy {
  MetricId id = MetricId::kZNormEuclidean;
  /// Stable lower_snake name, recorded in run artifacts and used to label
  /// per-metric obs counters ("mp.qt_sweeps.<name>").
  const char* name = "";
  /// The profile tail consumes a z-normalised copy of the query (and the
  /// engines cache that copy) instead of the raw values.
  bool normalizes_query = false;
  /// Engines must supply rolling mean/std windows (core/znorm.h).
  bool needs_rolling_stats = false;
  /// Engines must supply per-window sums of squares (ComputeWindowEnergies).
  bool needs_window_energy = false;
  /// The STOMP row reads the column side's window norms (MetricRowView::
  /// norms), which the engine roots from the energies once per artefact
  /// table instead of once per cell.
  bool needs_window_norms = false;
  /// The STOMP row writes squared distances. A join then takes every
  /// minimum over squares and roots each profile entry once it is final:
  /// sqrt is correctly rounded and monotone, so the values are bitwise the
  /// minima over roots (stomp_common.h states the neighbour-index rule).
  bool row_squared = false;
  MetricKernels kernels;         ///< build-time dispatched (SIMD) hooks
  MetricKernels scalar_kernels;  ///< width-1 scalar reference hooks
  /// Direct O(window) distance between two equal-length windows, computed
  /// without any dot-product recurrence -- the brute-force reference.
  double (*pairwise)(std::span<const double> a, std::span<const double> b);
};

/// The policy registered for `id`. Aborts on an out-of-range id.
const MetricPolicy& GetMetric(MetricId id);

/// Looks a policy up by its stable name; nullptr when no metric of that
/// name is registered in this build (the serialization layer uses this to
/// reject artifacts recorded under an unknown metric).
const MetricPolicy* FindMetricByName(std::string_view name);

/// Shorthand for GetMetric(id).name.
const char* MetricName(MetricId id);

}  // namespace ips

#endif  // IPS_CORE_METRIC_H_
