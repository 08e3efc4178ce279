#include "ips/utility.h"

#include <cmath>

#include <algorithm>

#include "core/distance_engine.h"
#include "util/check.h"

namespace ips {

namespace {

double MeanOrZero(double sum, size_t count) {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

// ------------------------------------------------------------------ exact

// Exact-mode scorer. All Def. 4 distances are evaluated up front through
// the DistanceEngine (parallel, scratch- and artefact-cached), then
// aggregated serially in the same order as the original per-pair loops, so
// the scores are bitwise identical to them for any thread count. With
// `reuse` each unordered candidate pair is computed once and mirrored (the
// CR optimisation of §III-E2); without it both orders are computed
// independently, preserving the work profile of the deliberate Fig. 10(b)
// baseline.
std::map<int, std::vector<CandidateScore>> ScoreExact(
    const CandidatePool& pool, const DatasetView& train, bool reuse,
    DistanceEngine& engine) {
  // Global candidate index: motifs first per class, then discords.
  struct Ref {
    const Subsequence* sub;
    int label;
    bool motif;
  };
  std::vector<Ref> all;
  std::map<int, std::vector<size_t>> motif_ids;    // per class
  std::map<int, std::vector<size_t>> inter_pool;   // per class: other-class ids

  for (const auto& [label, motifs] : pool.motifs) {
    for (const auto& m : motifs) {
      motif_ids[label].push_back(all.size());
      all.push_back({&m, label, true});
    }
  }
  for (const auto& [label, discords] : pool.discords) {
    for (const auto& d : discords) all.push_back({&d, label, false});
  }
  for (const auto& [label, ids] : motif_ids) {
    auto& inter = inter_pool[label];
    for (size_t i = 0; i < all.size(); ++i) {
      if (all[i].label != label) inter.push_back(i);
    }
  }

  const size_t n = all.size();

  // Views: candidates first, then the raw training instances.
  std::vector<std::span<const double>> views;
  views.reserve(n + train.size());
  for (const Ref& r : all) views.push_back(r.sub->view());
  for (size_t t = 0; t < train.size(); ++t) {
    views.push_back(train.At(t).view());
  }

  // The serial scorer touches an ordered candidate pair (i, j) only when i
  // is a motif and j is either a same-class motif or any other-class
  // candidate (intra / inter utilities).
  auto touched = [&](size_t i, size_t j) {
    return all[i].motif &&
           (all[i].label != all[j].label || all[j].motif);
  };

  std::vector<IndexPair> pairs;
  if (reuse) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (touched(i, j) || touched(j, i)) {
          pairs.push_back({static_cast<uint32_t>(i),
                           static_cast<uint32_t>(j)});
        }
      }
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (i != j && touched(i, j)) {
          pairs.push_back({static_cast<uint32_t>(i),
                           static_cast<uint32_t>(j)});
        }
      }
    }
  }
  const size_t num_cc = pairs.size();

  // Candidate-instance work items, in the aggregation's iteration order.
  for (const auto& [label, ids] : motif_ids) {
    const std::vector<size_t> instance_ids = train.IndicesOfClass(label);
    for (size_t i : ids) {
      for (size_t t : instance_ids) {
        pairs.push_back({static_cast<uint32_t>(i),
                         static_cast<uint32_t>(n + t)});
      }
    }
  }

  const std::vector<double> dists = engine.MinForPairs(views, pairs);

  std::vector<double> cc(n * n, 0.0);
  for (size_t t = 0; t < num_cc; ++t) {
    const auto [i, j] = pairs[t];
    cc[static_cast<size_t>(i) * n + j] = dists[t];
    if (reuse) cc[static_cast<size_t>(j) * n + i] = dists[t];
  }

  // Serial aggregation in the original loop order; `cursor` walks the
  // candidate-instance results, which were queued in this same order.
  size_t cursor = num_cc;
  std::map<int, std::vector<CandidateScore>> scores;
  for (const auto& [label, ids] : motif_ids) {
    const std::vector<size_t>& inter = inter_pool[label];
    const std::vector<size_t> instance_ids = train.IndicesOfClass(label);
    auto& out = scores[label];
    out.resize(ids.size());

    for (size_t a = 0; a < ids.size(); ++a) {
      const size_t i = ids[a];
      CandidateScore cs;

      double intra_sum = 0.0;
      for (size_t b = 0; b < ids.size(); ++b) {
        if (b == a) continue;
        intra_sum += cc[i * n + ids[b]];
      }
      cs.intra = Sigmoid(MeanOrZero(intra_sum, ids.size() - 1));

      double inter_sum = 0.0;
      for (size_t j : inter) inter_sum += cc[i * n + j];
      cs.inter = Sigmoid(MeanOrZero(inter_sum, inter.size()));

      double inst_sum = 0.0;
      for (size_t t = 0; t < instance_ids.size(); ++t) {
        inst_sum += dists[cursor++];
      }
      cs.instance = Sigmoid(MeanOrZero(inst_sum, instance_ids.size()));

      out[a] = cs;
    }
  }
  return scores;
}

// ------------------------------------------------------------------ DT+CR

// DT mode: candidates and instances are mapped once to ranked-bucket
// coordinates of the scoring class's DABF; utilities then aggregate O(1)
// integer gaps. Gaps are normalised by the bucket count so the sigmoid
// stays responsive regardless of table size.
std::map<int, std::vector<CandidateScore>> ScoreDtCr(
    const CandidatePool& pool, const DatasetView& train, const Dabf& dabf) {
  std::map<int, std::vector<CandidateScore>> scores;

  for (const auto& [label, motifs] : pool.motifs) {
    auto& out = scores[label];
    out.resize(motifs.size());
    const ClassDabf* filter = dabf.ForClass(label);
    if (filter == nullptr || motifs.empty()) continue;

    const double denom =
        std::max<double>(1.0, static_cast<double>(filter->NumBuckets() - 1));

    // CR: one hash per object, coordinates cached up front.
    std::vector<double> own(motifs.size());
    for (size_t a = 0; a < motifs.size(); ++a) {
      own[a] = static_cast<double>(filter->BucketCoordinate(motifs[a].view()));
    }
    std::vector<double> inter;
    for (const auto& [other, other_motifs] : pool.motifs) {
      if (other == label) continue;
      for (const auto& c : other_motifs) {
        inter.push_back(
            static_cast<double>(filter->BucketCoordinate(c.view())));
      }
    }
    for (const auto& [other, other_discords] : pool.discords) {
      if (other == label) continue;
      for (const auto& c : other_discords) {
        inter.push_back(
            static_cast<double>(filter->BucketCoordinate(c.view())));
      }
    }
    std::vector<double> instances;
    for (size_t t : train.IndicesOfClass(label)) {
      instances.push_back(
          static_cast<double>(filter->BucketCoordinate(train.At(t).view())));
    }

    for (size_t a = 0; a < motifs.size(); ++a) {
      CandidateScore cs;
      double intra_sum = 0.0;
      for (size_t b = 0; b < own.size(); ++b) {
        if (b == a) continue;
        intra_sum += std::abs(own[a] - own[b]) / denom;
      }
      cs.intra = Sigmoid(MeanOrZero(intra_sum, own.size() - 1));

      double inter_sum = 0.0;
      for (double c : inter) inter_sum += std::abs(own[a] - c) / denom;
      cs.inter = Sigmoid(MeanOrZero(inter_sum, inter.size()));

      double inst_sum = 0.0;
      for (double c : instances) inst_sum += std::abs(own[a] - c) / denom;
      cs.instance = Sigmoid(MeanOrZero(inst_sum, instances.size()));

      out[a] = cs;
    }
  }
  return scores;
}

}  // namespace

std::map<int, std::vector<CandidateScore>> ScoreAllCandidates(
    const CandidatePool& pool, const DatasetView& train, UtilityMode mode,
    const Dabf* dabf, DistanceEngine* engine, size_t num_threads) {
  DistanceEngine local(num_threads);
  DistanceEngine& eng = engine != nullptr ? *engine : local;
  switch (mode) {
    case UtilityMode::kExactNaive:
      return ScoreExact(pool, train, /*reuse=*/false, eng);
    case UtilityMode::kExactWithCr:
      return ScoreExact(pool, train, /*reuse=*/true, eng);
    case UtilityMode::kDtCr:
      IPS_CHECK_MSG(dabf != nullptr, "kDtCr scoring requires a DABF");
      return ScoreDtCr(pool, train, *dabf);
  }
  return {};
}

}  // namespace ips
