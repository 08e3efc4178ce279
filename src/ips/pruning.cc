#include "ips/pruning.h"

#include <cmath>

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>

#include "core/distance_engine.h"
#include "util/check.h"

namespace ips {

namespace {

// Restores the most-discriminative pruned motifs of a class when the
// survivor count falls below `min_keep`. `atypicality[i]` scores pruned
// motif i (higher = more discriminative = restore first).
void RestoreMotifs(std::vector<Subsequence>& kept,
                   std::vector<Subsequence>& pruned,
                   std::vector<double>& atypicality, size_t min_keep) {
  while (kept.size() < min_keep && !pruned.empty()) {
    const size_t best = static_cast<size_t>(
        std::max_element(atypicality.begin(), atypicality.end()) -
        atypicality.begin());
    kept.push_back(std::move(pruned[best]));
    pruned.erase(pruned.begin() + static_cast<ptrdiff_t>(best));
    atypicality.erase(atypicality.begin() + static_cast<ptrdiff_t>(best));
  }
}

}  // namespace

PruneStats PruneWithDabf(CandidatePool& pool, const Dabf& dabf,
                         size_t min_keep_motifs) {
  PruneStats stats;
  stats.motifs_before = pool.TotalMotifs();
  stats.discords_before = pool.TotalDiscords();

  for (auto& [label, motifs] : pool.motifs) {
    std::vector<Subsequence> kept;
    std::vector<Subsequence> pruned;
    std::vector<double> atypicality;
    for (auto& cand : motifs) {
      // Minimum |normalised distance| across the other classes whose bloom
      // bit collides: small means some other class finds the candidate
      // typical (Algorithm 3's disjunction).
      double min_abs_z = std::numeric_limits<double>::infinity();
      bool close = false;
      for (const auto& [other, filter] : dabf.filters()) {
        if (other == label) continue;
        const double z = std::abs(filter.NormalizedDistance(cand.view()));
        min_abs_z = std::min(min_abs_z, z);
        if (filter.PossiblyCloseToMost(cand.view())) close = true;
      }
      if (close) {
        pruned.push_back(std::move(cand));
        atypicality.push_back(min_abs_z);
      } else {
        kept.push_back(std::move(cand));
      }
    }
    RestoreMotifs(kept, pruned, atypicality, min_keep_motifs);
    motifs = std::move(kept);
  }

  for (auto& [label, discords] : pool.discords) {
    std::vector<Subsequence> kept;
    for (auto& cand : discords) {
      if (!dabf.CloseToAnyOtherClass(cand.view(), label)) {
        kept.push_back(std::move(cand));
      }
    }
    discords = std::move(kept);
  }

  stats.motifs_after = pool.TotalMotifs();
  stats.discords_after = pool.TotalDiscords();
  return stats;
}

namespace {

// Median pairwise Def. 4 distance within a candidate set (the naive
// pruner's closeness radius r). The pairwise distances are evaluated
// through the engine (parallel, one artefact table per call) in the same
// upper-triangle order the serial loops produced, so the median is
// identical.
double MedianPairwiseDistance(const std::vector<Subsequence>& pool,
                              DistanceEngine& engine) {
  std::vector<std::span<const double>> views;
  views.reserve(pool.size());
  for (const Subsequence& s : pool) views.push_back(s.view());
  std::vector<IndexPair> pairs;
  for (uint32_t i = 0; i < pool.size(); ++i) {
    for (uint32_t j = i + 1; j < pool.size(); ++j) pairs.push_back({i, j});
  }
  std::vector<double> dists = engine.MinForPairs(views, pairs);
  if (dists.empty()) return 0.0;
  const size_t mid = dists.size() / 2;
  std::nth_element(dists.begin(),
                   dists.begin() + static_cast<ptrdiff_t>(mid), dists.end());
  return dists[mid];
}

// Closeness margins of `cands` against the pool's other classes in its
// CURRENT state (earlier classes may already be pruned -- the sequential
// semantics of the original per-candidate scan). margins[c] >= 0 means
// cands[c] is "close to most" of some other class; -1 otherwise.
std::vector<double> CloseToMostMargins(
    const CandidatePool& pool, const std::vector<Subsequence>& cands,
    int own_label, const std::map<int, double>& radius,
    double majority_fraction, DistanceEngine& engine) {
  std::vector<double> best_margin(
      cands.size(), -std::numeric_limits<double>::infinity());
  for (const auto& [other, motifs] : pool.motifs) {
    if (other == own_label) continue;
    const std::vector<Subsequence> others = pool.AllOfClass(other);
    if (others.empty()) continue;

    // One batched candidate x other-class matrix per class pair.
    std::vector<std::span<const double>> views;
    views.reserve(cands.size() + others.size());
    for (const Subsequence& c : cands) views.push_back(c.view());
    for (const Subsequence& o : others) views.push_back(o.view());
    std::vector<IndexPair> pairs;
    pairs.reserve(cands.size() * others.size());
    for (uint32_t c = 0; c < cands.size(); ++c) {
      for (uint32_t o = 0; o < others.size(); ++o) {
        pairs.push_back({c, static_cast<uint32_t>(cands.size()) + o});
      }
    }
    const std::vector<double> dists = engine.MinForPairs(views, pairs);

    const double r = radius.at(other);
    for (size_t c = 0; c < cands.size(); ++c) {
      size_t close = 0;
      for (size_t o = 0; o < others.size(); ++o) {
        if (dists[c * others.size() + o] <= r) ++close;
      }
      const double frac = static_cast<double>(close) /
                          static_cast<double>(others.size());
      best_margin[c] = std::max(best_margin[c], frac - majority_fraction);
    }
  }
  for (double& m : best_margin) {
    m = m >= 0.0 ? m : -1.0;
  }
  return best_margin;
}

}  // namespace

PruneStats PruneNaive(CandidatePool& pool, size_t min_keep_motifs,
                      double majority_fraction, DistanceEngine* engine,
                      size_t num_threads) {
  DistanceEngine local(num_threads);
  DistanceEngine& eng = engine != nullptr ? *engine : local;

  PruneStats stats;
  stats.motifs_before = pool.TotalMotifs();
  stats.discords_before = pool.TotalDiscords();

  // Closeness radius per class.
  std::map<int, double> radius;
  for (const auto& [label, motifs] : pool.motifs) {
    std::vector<Subsequence> all = pool.AllOfClass(label);
    radius[label] = MedianPairwiseDistance(all, eng);
  }

  for (auto& [label, motifs] : pool.motifs) {
    const std::vector<double> margins = CloseToMostMargins(
        pool, motifs, label, radius, majority_fraction, eng);
    std::vector<Subsequence> kept, pruned;
    std::vector<double> atypicality;
    for (size_t c = 0; c < motifs.size(); ++c) {
      Subsequence& cand = motifs[c];
      const double margin = margins[c];
      if (margin >= 0.0) {
        pruned.push_back(std::move(cand));
        atypicality.push_back(-margin);  // smaller margin = more atypical
      } else {
        kept.push_back(std::move(cand));
      }
    }
    RestoreMotifs(kept, pruned, atypicality, min_keep_motifs);
    motifs = std::move(kept);
  }

  for (auto& [label, discords] : pool.discords) {
    const std::vector<double> margins = CloseToMostMargins(
        pool, discords, label, radius, majority_fraction, eng);
    std::vector<Subsequence> kept;
    for (size_t c = 0; c < discords.size(); ++c) {
      if (margins[c] < 0.0) kept.push_back(std::move(discords[c]));
    }
    discords = std::move(kept);
  }

  stats.motifs_after = pool.TotalMotifs();
  stats.discords_after = pool.TotalDiscords();
  return stats;
}

}  // namespace ips
