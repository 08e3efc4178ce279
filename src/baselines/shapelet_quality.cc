#include "baselines/shapelet_quality.h"

#include <cmath>

#include <algorithm>
#include <span>

#include "core/distance_engine.h"
#include "util/check.h"

namespace ips {

double LabelEntropy(const std::vector<size_t>& counts, size_t total) {
  if (total == 0) return 0.0;
  double h = 0.0;
  for (size_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total);
    h -= p * std::log(p);
  }
  return h;
}

SplitQuality EvaluateSplitQuality(const Subsequence& candidate,
                                  const DatasetView& train,
                                  int num_classes) {
  IPS_CHECK(!train.empty());
  IPS_CHECK(num_classes >= 1);
  const size_t n = train.size();

  // Batched (train[i], candidate) pairs in the serial loop's argument order,
  // so the sorted distances are bitwise identical to it.
  std::vector<std::span<const double>> views;
  views.reserve(n + 1);
  for (size_t i = 0; i < n; ++i) views.push_back(train.At(i).view());
  views.push_back(candidate.view());
  std::vector<IndexPair> pairs(n);
  for (size_t i = 0; i < n; ++i) {
    pairs[i] = {static_cast<uint32_t>(i), static_cast<uint32_t>(n)};
  }
  const std::vector<double> dists = DistanceEngine(1).MinForPairs(views, pairs);

  std::vector<std::pair<double, size_t>> by_distance(n);
  for (size_t i = 0; i < n; ++i) {
    by_distance[i] = {dists[i], i};
  }
  std::sort(by_distance.begin(), by_distance.end());

  std::vector<size_t> total_counts(static_cast<size_t>(num_classes), 0);
  for (size_t i = 0; i < n; ++i) {
    IPS_CHECK(train.At(i).label >= 0 && train.At(i).label < num_classes);
    ++total_counts[static_cast<size_t>(train.At(i).label)];
  }
  const double parent = LabelEntropy(total_counts, n);

  SplitQuality best;
  std::vector<size_t> left(static_cast<size_t>(num_classes), 0);
  size_t best_split = 0;
  for (size_t i = 0; i + 1 < n; ++i) {
    const size_t idx = by_distance[i].second;
    ++left[static_cast<size_t>(train.At(idx).label)];
    if (by_distance[i].first >= by_distance[i + 1].first) continue;
    std::vector<size_t> right(total_counts);
    for (size_t c = 0; c < right.size(); ++c) right[c] -= left[c];
    const size_t nl = i + 1;
    const size_t nr = n - nl;
    const double child =
        (static_cast<double>(nl) * LabelEntropy(left, nl) +
         static_cast<double>(nr) * LabelEntropy(right, nr)) /
        static_cast<double>(n);
    const double gain = parent - child;
    if (gain > best.info_gain) {
      best.info_gain = gain;
      best.threshold =
          0.5 * (by_distance[i].first + by_distance[i + 1].first);
      best_split = nl;
    }
  }

  for (size_t i = 0; i < best_split; ++i) {
    const size_t idx = by_distance[i].second;
    if (train.At(idx).label == candidate.label) best.covered.push_back(idx);
  }
  return best;
}

}  // namespace ips
