// Shapelet candidate pruning (Algorithm 3).
//
// A candidate of class C is removed when it is "possibly close to most
// elements" of some other class -- it cannot discriminate C. The DABF
// answers that query in O(N); the naive comparator (kept for the Fig. 10(a)
// ablation) scans all other-class candidates in O(|Phi| * N).

#ifndef IPS_IPS_PRUNING_H_
#define IPS_IPS_PRUNING_H_

#include <cstddef>

#include "dabf/dabf.h"
#include "ips/candidate_gen.h"

namespace ips {

class DistanceEngine;

/// Before/after counts of a pruning pass.
struct PruneStats {
  size_t motifs_before = 0;
  size_t motifs_after = 0;
  size_t discords_before = 0;
  size_t discords_after = 0;

  size_t Pruned() const {
    return (motifs_before - motifs_after) +
           (discords_before - discords_after);
  }
};

/// Algorithm 3: DABF-based pruning, in place. `min_keep_motifs` guards
/// against over-pruning -- when fewer than that many motifs of a class
/// survive, the most atypical pruned motifs (largest |normalised distance|
/// against the other classes) are restored, so top-k selection always has
/// material to work with.
PruneStats PruneWithDabf(CandidatePool& pool, const Dabf& dabf,
                         size_t min_keep_motifs);

/// Naive quadratic pruning: candidate e of class C is removed when, for some
/// other class, at least `majority_fraction` of that class's candidates lie
/// within distance r of e, where r is the median pairwise distance among
/// that class's candidates. Same min-keep guard as the DABF variant.
///
/// All Def. 4 distances run through a DistanceEngine
/// (core/distance_engine.h): pass `engine` to use the pipeline's thread
/// count, or leave it null for a call-local engine sharded over
/// `num_threads`. The pruning decisions are identical to the serial scan
/// for every configuration.
PruneStats PruneNaive(CandidatePool& pool, size_t min_keep_motifs,
                      double majority_fraction = 0.5,
                      DistanceEngine* engine = nullptr,
                      size_t num_threads = 1);

}  // namespace ips

#endif  // IPS_IPS_PRUNING_H_
