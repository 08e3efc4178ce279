#include "matrix_profile/motif.h"

#include "matrix_profile/mp_engine.h"

namespace ips {

namespace {

// Two profile positions clash when they are at most `exclusion` apart.
struct WithinExclusion {
  size_t exclusion;
  bool operator()(size_t s, size_t e) const {
    return (s > e ? s - e : e - s) <= exclusion;
  }
};

}  // namespace

std::vector<size_t> FindMotifs(std::span<const double> profile, size_t k,
                               size_t exclusion) {
  return SelectWithExclusion(profile, k, /*smallest_first=*/true,
                             WithinExclusion{exclusion});
}

std::vector<size_t> FindDiscords(std::span<const double> profile, size_t k,
                                 size_t exclusion) {
  return SelectWithExclusion(profile, k, /*smallest_first=*/false,
                             WithinExclusion{exclusion});
}

SeriesMotifs ExploreSeries(std::span<const double> series, size_t window,
                           size_t k_motifs, size_t k_discords,
                           MatrixProfileEngine* engine) {
  MatrixProfileEngine local_engine(1);
  MatrixProfileEngine& eng = engine != nullptr ? *engine : local_engine;
  const size_t exclusion = DefaultExclusionZone(window);

  SeriesMotifs out;
  out.profile = eng.SelfJoin(series, window);
  out.motifs = FindMotifs(out.profile.values, k_motifs, exclusion);
  out.discords = FindDiscords(out.profile.values, k_discords, exclusion);
  return out;
}

}  // namespace ips
