// Motif and discord extraction from a (matrix or instance) profile.
//
// Motifs are the windows with the smallest profile values (frequently
// recurring patterns); discords are the windows with the largest (anomalies).
// Selections are separated by an exclusion zone so that the top-k are k
// genuinely distinct locations rather than k offsets of the same pattern.
//
// Selection contract, shared by FindMotifs/FindDiscords and the instance
// profile's InstanceProfileMotifs/InstanceProfileDiscords: non-finite
// entries (NaN, +-inf) are never taken; the i-th selection is the first
// entry in (value, then position) order -- value ascending for motifs,
// descending for discords -- that clashes with none of the i-1 taken before
// it. That is the greedy walk over the profile stably sorted by value, as
// repeated min (or max) scans, with no sort: k selections cost k passes.

#ifndef IPS_MATRIX_PROFILE_MOTIF_H_
#define IPS_MATRIX_PROFILE_MOTIF_H_

#include <cmath>
#include <cstddef>

#include <algorithm>
#include <span>
#include <vector>

#include "matrix_profile/matrix_profile.h"

namespace ips {

class MatrixProfileEngine;

/// Up to `k` entries of `values` taken greedily under the rule `clashes`:
/// each pass takes the first finite entry in (value, then position) order
/// -- value ascending when `smallest_first`, else descending -- for which
/// `clashes(s, e)` is false for every entry `s` taken so far. `clashes(e, e)`
/// must hold, so no entry is taken twice. Returns the taken positions in the
/// order taken; fewer than `k` when every remaining entry clashes.
template <typename Clashes>
std::vector<size_t> SelectWithExclusion(std::span<const double> values,
                                        size_t k, bool smallest_first,
                                        Clashes clashes) {
  // The candidates: finite entries that clash with nothing taken yet, in
  // position order.
  std::vector<size_t> open;
  open.reserve(values.size());
  for (size_t e = 0; e < values.size(); ++e) {
    if (std::isfinite(values[e])) open.push_back(e);
  }
  std::vector<size_t> taken;
  while (taken.size() < k && !open.empty()) {
    // Strict comparison in position order keeps the first of equal values.
    size_t best = open.front();
    for (size_t e : open) {
      if (smallest_first ? values[e] < values[best]
                         : values[e] > values[best]) {
        best = e;
      }
    }
    taken.push_back(best);
    if (taken.size() < k) {
      std::erase_if(open, [&](size_t e) { return clashes(best, e); });
    }
  }
  return taken;
}

/// Indices of up to `k` profile minima, greedily selected smallest-first
/// (ties by position) with a gap of more than `exclusion` between any two
/// selections. Non-finite profile entries are skipped.
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
