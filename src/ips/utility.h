// Candidate utility scoring (paper Defs. 11-13, §III-E optimisations).
//
// Each motif candidate of class C receives three utilities:
//   U_intra -- sigmoid of its mean distance to C's other motif candidates
//              (small = representative of its class);
//   U_inter -- sigmoid of its mean distance to the motifs AND discords of
//              the other classes (large = far from them);
//   U_DC    -- sigmoid of its mean Def. 4 distance to C's raw training
//              instances (small = the class's instances contain it).
// The combined score minimised by top-k selection (Algorithm 4 line 6) is
//   u = U_intra - U_inter + U_DC.
//
// Deviation from the paper's formulas, documented in DESIGN.md: the sigmoid
// is applied to the MEAN rather than the SUM of distances. The sum of
// hundreds of non-negative distances saturates the sigmoid to exactly 1.0 in
// double precision, erasing all ranking information; the mean preserves the
// monotone ordering the formulas intend while keeping the utilities in the
// sigmoid's responsive range.
//
// Three computation modes (IpsOptions::utility_mode):
//   kExactNaive  -- every pairwise Def. 4 distance computed on demand, the
//                   symmetric pair twice (the unoptimised baseline of
//                   Fig. 10(b)).
//   kExactWithCr -- computation reuse: the symmetric candidate-candidate
//                   distance matrix is computed once (§III-E2).
//   kDtCr        -- distribution transformation + reuse: distances are
//                   replaced by ranked-bucket coordinate gaps |B_i - B_j|
//                   obtained from the class DABF (Formula 15/16), O(1) per
//                   pair after one O(N) hash per candidate.

#ifndef IPS_IPS_UTILITY_H_
#define IPS_IPS_UTILITY_H_

#include <map>
#include <vector>

#include "dabf/dabf.h"
#include "ips/candidate_gen.h"
#include "ips/config.h"
#include "stats/special.h"

namespace ips {

class DistanceEngine;

/// The three utilities of one candidate, plus the combined score.
struct CandidateScore {
  double intra = 0.0;
  double inter = 0.0;
  double instance = 0.0;

  /// Algorithm 4 line 6; smaller is better.
  double Combined() const { return intra - inter + instance; }
};

/// Scores every motif candidate in `pool` against the training data.
/// Returns, per class, one CandidateScore per motif candidate (same order
/// as pool.motifs.at(label)). `dabf` is required for kDtCr mode and ignored
/// otherwise.
///
/// The exact modes evaluate their Def. 4 distances through a
/// DistanceEngine: pass `engine` to use the pipeline's thread count, or
/// leave it null to use a call-local engine sharded over `num_threads`.
/// Scores are bitwise identical to the serial per-pair loops for every
/// engine/thread configuration.
std::map<int, std::vector<CandidateScore>> ScoreAllCandidates(
    const CandidatePool& pool, const DatasetView& train, UtilityMode mode,
    const Dabf* dabf, DistanceEngine* engine = nullptr,
    size_t num_threads = 1);

}  // namespace ips

#endif  // IPS_IPS_UTILITY_H_
