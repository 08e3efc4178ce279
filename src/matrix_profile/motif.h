// Motif and discord extraction from a (matrix or instance) profile.
//
// Motifs are the windows with the smallest profile values (frequently
// recurring patterns); discords are the windows with the largest (anomalies).
// Selections are separated by an exclusion zone so that the top-k are k
// genuinely distinct locations rather than k offsets of the same pattern.

#ifndef IPS_MATRIX_PROFILE_MOTIF_H_
#define IPS_MATRIX_PROFILE_MOTIF_H_

#include <cstddef>

#include <span>
#include <vector>

#include "matrix_profile/matrix_profile.h"

namespace ips {

class MatrixProfileEngine;

/// Indices of up to `k` profile minima, greedily selected smallest-first with
/// at least `exclusion` separation between any two selections. Non-finite
/// profile entries are skipped.
std::vector<size_t> FindMotifs(std::span<const double> profile, size_t k,
                               size_t exclusion);

/// Indices of up to `k` profile maxima with the same exclusion rule.
std::vector<size_t> FindDiscords(std::span<const double> profile, size_t k,
                                 size_t exclusion);

/// Self-join profile of one series with its top motifs and discords.
struct SeriesMotifs {
  MatrixProfile profile;
  std::vector<size_t> motifs;
  std::vector<size_t> discords;
};

/// Computes the self-join profile of `series` (default exclusion zone) and
/// extracts the top `k_motifs` motifs and `k_discords` discords. The join
/// runs through `engine` when given -- sharded over its threads -- and
/// through a private serial engine otherwise; the result is
/// bitwise identical either way. Requires series.size() > window.
SeriesMotifs ExploreSeries(std::span<const double> series, size_t window,
                           size_t k_motifs, size_t k_discords,
                           MatrixProfileEngine* engine = nullptr);

}  // namespace ips

#endif  // IPS_MATRIX_PROFILE_MOTIF_H_
