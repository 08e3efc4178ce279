// Matrix profile computation (paper Def. 5).
//
// The matrix profile of a series T under window length m annotates every
// window with the z-normalised Euclidean distance to its nearest neighbouring
// window. The self-join excludes trivial matches near the window itself (the
// paper's footnote 1); the AB-join annotates windows of A with their nearest
// neighbour among windows of B and has no exclusion zone.
//
// Both are computed with the STOMP recurrence: the sliding dot products of
// row i are derived from row i-1 in O(1) per entry, giving O(n^2) total work
// and O(n) memory.

#ifndef IPS_MATRIX_PROFILE_MATRIX_PROFILE_H_
#define IPS_MATRIX_PROFILE_MATRIX_PROFILE_H_

#include <cstddef>

#include <span>
#include <vector>

namespace ips {

/// Index value meaning "no neighbour" (profile entry is infinite).
inline constexpr size_t kNoNeighbor = static_cast<size_t>(-1);

/// A matrix profile: per-window nearest-neighbour distance and the index of
/// that neighbour. The neighbour is the window of the smallest squared
/// distance, the earliest one among equal squares; two windows whose
/// squares differ but round to one distance go to the smaller square.
struct MatrixProfile {
  std::vector<double> values;
  std::vector<size_t> indices;

  size_t size() const { return values.size(); }
};

/// Default exclusion-zone half-width for a self-join: ceil(m / 2).
size_t DefaultExclusionZone(size_t window);

/// Self-join matrix profile of `series` with window length `window`.
/// `exclusion` is the trivial-match half-width; windows j with
/// |i - j| <= exclusion are not considered neighbours of window i. Pass 0 to
/// use DefaultExclusionZone(window). Requires series.size() > window.
MatrixProfile SelfJoinProfile(std::span<const double> series, size_t window,
                              size_t exclusion = 0);

/// AB-join: profile[i] is the distance from window i of `a` to its nearest
/// window in `b` (no exclusion zone). Requires both inputs >= window.
MatrixProfile AbJoinProfile(std::span<const double> a,
                            std::span<const double> b, size_t window);

/// Multi-threaded self-join: the row range is chunked, each chunk seeds its
/// own STOMP recurrence with one MASS computation, and per-chunk minima are
/// merged. Bit-identical distances to SelfJoinProfile up to floating-point
/// reassociation of the per-row minimum (values agree to ~1e-9); num_threads
/// == 1 delegates to the sequential kernel, 0 means HardwareThreads().
MatrixProfile SelfJoinProfileParallel(std::span<const double> series,
                                      size_t window, size_t num_threads,
                                      size_t exclusion = 0);

/// Elementwise |pa - pb| of two equal-length profiles -- the diff series of
/// the paper's Fig. 4 that the MP baseline maximises.
std::vector<double> ProfileDiff(const MatrixProfile& pa,
                                const MatrixProfile& pb);

}  // namespace ips

#endif  // IPS_MATRIX_PROFILE_MATRIX_PROFILE_H_
