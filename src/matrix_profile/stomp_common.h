// Shared STOMP arithmetic used by every matrix-profile join variant.
//
// The serial kernels (matrix_profile.cc), the chunked parallel self-join and
// the batched MatrixProfileEngine (mp_engine.cc) must produce bitwise
// identical profiles, so the arithmetic they share lives here as inline
// helpers: the per-cell distance (or its square) from a raw dot product,
// the final root of a profile of squares, the O(1) QT recurrence step, and
// the naive/FFT dispatch rule for the seed sliding-dot-products. Keeping
// each in exactly one place is what makes the bitwise-identity contract
// auditable -- any divergence would have to be a different call, not a
// diverged copy.
//
// The two rooted metrics (z-normalised and L2) come in two halves: the
// square (StompZNormSquared, StompL2Squared) and the distance, which is
// std::sqrt of the square. Every join scans squares and roots each profile
// entry once, when the profile is finished: IEEE sqrt is correctly rounded
// and monotone non-decreasing and every square is >= +0, so the root of the
// smallest square is bitwise the smallest root (inf and NaN included). The
// one thing scanning squares decides differently is a neighbour index: of
// two different squares with one root, the smaller square wins, where a
// scan over roots kept the earlier index. Every join follows this rule.
//
// The engine's row-order fast path evaluates these per-cell helpers through
// the vectorised row kernels simd::QtRowAdvance / simd::StompRowDistances
// (core/simd.h), whose lanes perform exactly the operation sequences below;
// tests/simd_kernel_test.cc pins the kernels to these inline definitions
// bit for bit.

#ifndef IPS_MATRIX_PROFILE_STOMP_COMMON_H_
#define IPS_MATRIX_PROFILE_STOMP_COMMON_H_

#include <cmath>

#include <algorithm>
#include <span>
#include <vector>

#include "core/distance.h"
#include "core/fft.h"
#include "core/znorm.h"

namespace ips {

/// Squared z-normalised distance between a window of the `a` side (mean
/// mu_a, std sig_a) and a window of the `b` side given their raw dot
/// product `qt`: both flat -> 0, exactly one flat -> m, otherwise
/// max(0, 2m(1 - corr)). Exactly symmetric under (a, b) exchange -- the
/// property the engine's pair-symmetric sweep relies on to serve both join
/// directions from one evaluation: the mixed products are grouped as
/// m * (mu_a * mu_b) and m * (sig_a * sig_b), so swapping the sides only
/// commutes single IEEE multiplications and the result is bitwise
/// unchanged.
inline double StompZNormSquared(double qt, size_t window, double mu_a,
                                double sig_a, double mu_b, double sig_b) {
  const double m = static_cast<double>(window);
  const bool flat_a = sig_a < kFlatStdEpsilon;
  const bool flat_b = sig_b < kFlatStdEpsilon;
  if (flat_a && flat_b) return 0.0;
  if (flat_a || flat_b) return m;
  const double corr = (qt - m * (mu_a * mu_b)) / (m * (sig_a * sig_b));
  return std::max(0.0, 2.0 * m * (1.0 - corr));
}

/// The z-normalised distance: the root of StompZNormSquared.
inline double StompZNormDistance(double qt, size_t window, double mu_a,
                                 double sig_a, double mu_b, double sig_b) {
  return std::sqrt(StompZNormSquared(qt, window, mu_a, sig_a, mu_b, sig_b));
}

/// Roots a finished profile of squares in place, once per entry: each
/// root of a minimum square is bitwise the minimum distance, and +inf
/// (an entry with no neighbour) stays +inf.
inline void StompRootProfile(std::vector<double>& values) {
  for (double& v : values) v = std::sqrt(v);
}

/// Raw (paper Def. 4) distance between two windows given their dot product
/// `qt` and their energies (sums of squares). Symmetric under exchange: the
/// energies are grouped as (ssq_a + ssq_b) before anything else touches
/// them, so swapping the sides only commutes a single IEEE addition.
inline double StompRawDistance(double qt, size_t window, double ssq_a,
                               double ssq_b) {
  const double m = static_cast<double>(window);
  return std::max(0.0, ((ssq_a + ssq_b) - 2.0 * qt) / m);
}

/// Squared non-normalised Euclidean (L2) distance between two windows given
/// their dot product and energies. Symmetric for the same grouping reason.
inline double StompL2Squared(double qt, double ssq_a, double ssq_b) {
  return std::max(0.0, (ssq_a + ssq_b) - 2.0 * qt);
}

/// The L2 distance: the root of StompL2Squared.
inline double StompL2Distance(double qt, double ssq_a, double ssq_b) {
  return std::sqrt(StompL2Squared(qt, ssq_a, ssq_b));
}

/// Cosine distance between two windows given their dot product and their
/// norms (sqrt of the energies). Windows with norm under kFlatStdEpsilon
/// follow the flat conventions: both flat -> 0, exactly one flat -> 1.
/// Symmetric: norm_a * norm_b is a single commuted multiplication.
inline double StompCosineDistance(double qt, double norm_a, double norm_b) {
  const bool flat_a = norm_a < kFlatStdEpsilon;
  const bool flat_b = norm_b < kFlatStdEpsilon;
  if (flat_a && flat_b) return 0.0;
  if (flat_a || flat_b) return 1.0;
  return std::max(0.0, 1.0 - qt / (norm_a * norm_b));
}

/// One step of the STOMP recurrence along a diagonal:
///   QT(i, j) = QT(i-1, j-1) - a[i-1] b[j-1] + a[i+m-1] b[j+m-1].
/// The subtraction is applied before the addition, matching the historic
/// in-place row update -- callers must not reassociate.
inline double StompAdvance(double qt, std::span<const double> a,
                           std::span<const double> b, size_t i, size_t j,
                           size_t window) {
  return qt - a[i - 1] * b[j - 1] + a[i + window - 1] * b[j + window - 1];
}

/// Whether a seed row (sliding dot products of a length-`window` query
/// against a length-`series_len` series) goes through the FFT kernel.
/// Equivalent to the historic InitialDots dispatch: queries under
/// kFftCutoff always go direct, longer ones follow the calibrated
/// cost model of SlidingDotProductsAuto.
inline bool StompSeedUsesFft(size_t window, size_t series_len) {
  return window >= kFftCutoff && ShouldUseFftSlidingProducts(window, series_len);
}

}  // namespace ips

#endif  // IPS_MATRIX_PROFILE_STOMP_COMMON_H_
