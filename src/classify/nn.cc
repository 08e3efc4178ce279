#include "classify/nn.h"

#include <cmath>

#include <limits>

#include "core/distance.h"
#include "core/distance_engine.h"
#include "core/dtw.h"
#include "core/metric.h"
#include "util/check.h"

namespace ips {

OneNnEd::OneNnEd(MetricId metric) : metric_(metric) {}

void OneNnEd::Fit(const DatasetView& train) {
  IPS_CHECK(!train.empty());
  // 1NN retains its training data beyond Fit: the one legitimate deep copy.
  train_ = train.Materialize();
}

int OneNnEd::Predict(SeriesView series) const {
  IPS_CHECK(!train_.empty());
  const bool default_metric = metric_ == MetricId::kRawSquaredEuclidean;
  DistanceEngine engine(1);
  double best = std::numeric_limits<double>::infinity();
  int label = train_[0].label;
  for (size_t i = 0; i < train_.size(); ++i) {
    const TimeSeries& cand = train_[i];
    double d;
    if (cand.length() == series.length()) {
      // The historic default skips the Def. 4 1/m factor: with equal
      // lengths it scales every candidate alike, so the ranking (and the
      // bake-off accuracy) is unchanged and the old behaviour is preserved
      // bitwise. Other metrics use their registered pairwise distance.
      d = default_metric
              ? SquaredEuclidean(series.view(), cand.view())
              : GetMetric(metric_).pairwise(series.view(), cand.view());
    } else {
      d = engine.SubsequenceMinMetric(series.view(), cand.view(), metric_);
    }
    if (d < best) {
      best = d;
      label = cand.label;
    }
  }
  return label;
}

void OneNnDtwCv::Fit(const DatasetView& train) {
  IPS_CHECK(!train.empty());
  std::vector<double> grid = candidates_;
  if (grid.empty()) {
    grid = {0.0, 0.01, 0.02, 0.03, 0.04, 0.05,
            0.06, 0.07, 0.08, 0.09, 0.1, 0.15, 0.2};
  }

  size_t best_correct = 0;
  chosen_ = grid.front();
  for (double fraction : grid) {
    // Leave-one-out 1NN over the training set at this window.
    size_t correct = 0;
    for (size_t i = 0; i < train.size(); ++i) {
      const SeriesView query = train.At(i);
      const int window = static_cast<int>(std::ceil(
          fraction * static_cast<double>(query.length())));
      double best = std::numeric_limits<double>::infinity();
      int label = -1;
      for (size_t j = 0; j < train.size(); ++j) {
        if (j == i) continue;
        const SeriesView cand = train.At(j);
        if (cand.length() == query.length() &&
            LbKeogh(query.view(), cand.view(), window) >= best) {
          continue;
        }
        const double d = DtwDistance(query.view(), cand.view(), window);
        if (d < best) {
          best = d;
          label = cand.label;
        }
      }
      if (label == query.label) ++correct;
    }
    // Strictly-better keeps the smallest (cheapest) window on ties.
    if (correct > best_correct) {
      best_correct = correct;
      chosen_ = fraction;
    }
  }

  inner_ = OneNnDtw(chosen_);
  inner_.Fit(train);
}

int OneNnDtwCv::Predict(SeriesView series) const {
  return inner_.Predict(series);
}

void OneNnDtw::Fit(const DatasetView& train) {
  IPS_CHECK(!train.empty());
  train_ = train.Materialize();
}

int OneNnDtw::Predict(SeriesView series) const {
  IPS_CHECK(!train_.empty());
  int window = -1;
  if (window_fraction_ >= 0.0) {
    window = static_cast<int>(
        std::ceil(window_fraction_ * static_cast<double>(series.length())));
  }

  double best = std::numeric_limits<double>::infinity();
  int label = train_[0].label;
  for (size_t i = 0; i < train_.size(); ++i) {
    const TimeSeries& cand = train_[i];
    // LB_Keogh admissibly skips candidates that cannot beat the incumbent.
    if (window >= 0 && cand.length() == series.length() &&
        LbKeogh(series.view(), cand.view(), window) >= best) {
      continue;
    }
    const double d = DtwDistance(series.view(), cand.view(), window);
    if (d < best) {
      best = d;
      label = cand.label;
    }
  }
  return label;
}

}  // namespace ips
