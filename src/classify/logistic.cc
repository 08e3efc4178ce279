#include "classify/logistic.h"

#include <cmath>

#include <algorithm>

#include "stats/special.h"
#include "util/check.h"

namespace ips {

void LogisticRegression::Fit(const LabeledMatrix& data) {
  IPS_CHECK(!data.x.empty());
  const size_t n = data.size();
  const size_t d = data.dim();
  IPS_CHECK(d >= 1);
  const int num_classes = data.NumClasses();

  // Standardisation statistics.
  feature_means_.assign(d, 0.0);
  feature_stds_.assign(d, 0.0);
  for (const auto& row : data.x) {
    for (size_t j = 0; j < d; ++j) feature_means_[j] += row[j];
  }
  for (double& m : feature_means_) m /= static_cast<double>(n);
  for (const auto& row : data.x) {
    for (size_t j = 0; j < d; ++j) {
      const double diff = row[j] - feature_means_[j];
      feature_stds_[j] += diff * diff;
    }
  }
  for (double& s : feature_stds_) {
    s = std::sqrt(s / static_cast<double>(n));
    if (s < 1e-12) s = 1.0;
  }

  std::vector<std::vector<double>> xs(n, std::vector<double>(d + 1));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      xs[i][j] = (data.x[i][j] - feature_means_[j]) / feature_stds_[j];
    }
    xs[i][d] = 1.0;
  }

  weights_.assign(static_cast<size_t>(num_classes),
                  std::vector<double>(d + 1, 0.0));
  for (int c = 0; c < num_classes; ++c) {
    auto& w = weights_[static_cast<size_t>(c)];
    for (size_t iter = 0; iter < options_.max_iters; ++iter) {
      std::vector<double> grad(d + 1, 0.0);
      for (size_t i = 0; i < n; ++i) {
        double z = 0.0;
        for (size_t j = 0; j <= d; ++j) z += w[j] * xs[i][j];
        const double err =
            Sigmoid(z) - (data.y[i] == c ? 1.0 : 0.0);
        for (size_t j = 0; j <= d; ++j) grad[j] += err * xs[i][j];
      }
      for (size_t j = 0; j <= d; ++j) {
        grad[j] = grad[j] / static_cast<double>(n) +
                  (j < d ? options_.lambda * w[j] : 0.0);
        w[j] -= options_.learning_rate * grad[j];
      }
    }
  }
}

std::vector<double> LogisticRegression::Standardize(
    std::span<const double> features) const {
  IPS_CHECK(features.size() == feature_means_.size());
  std::vector<double> out(features.size() + 1);
  for (size_t j = 0; j < features.size(); ++j) {
    out[j] = (features[j] - feature_means_[j]) / feature_stds_[j];
  }
  out[features.size()] = 1.0;
  return out;
}

int LogisticRegression::Predict(std::span<const double> features) const {
  IPS_CHECK(!weights_.empty());
  const std::vector<double> xs = Standardize(features);
  int best = 0;
  double best_z = -1e300;
  for (int c = 0; c < num_classes(); ++c) {
    const auto& w = weights_[static_cast<size_t>(c)];
    double z = 0.0;
    for (size_t j = 0; j < xs.size(); ++j) z += w[j] * xs[j];
    if (z > best_z) {
      best_z = z;
      best = c;
    }
  }
  return best;
}

}  // namespace ips
