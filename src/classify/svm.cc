#include "classify/svm.h"

#include <cmath>

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/rng.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace ips {

namespace {

obs::Counter& PassesCounter() {
  static obs::Counter& passes =
      obs::MetricsRegistry::Instance().GetCounter("classify.svm.passes");
  return passes;
}

// The standardised training rows with the bias feature appended, stored
// row-major in one block, and each row's squared norm (the diagonal of Q).
// Every one-vs-rest problem reads the same matrix.
struct DesignMatrix {
  size_t rows = 0;
  size_t dim = 0;
  std::vector<double> values;
  std::vector<double> qd;

  const double* row(size_t i) const { return values.data() + i * dim; }
};

double Dot(const std::vector<double>& w, const double* x) {
  double s = 0.0;
  for (size_t j = 0; j < w.size(); ++j) s += w[j] * x[j];
  return s;
}

// Dual coordinate descent with shrinking for the L1-loss (hinge) linear
// SVM (LIBLINEAR's solve_l2r_l1l2_svc):
//   min_w 1/2 ||w||^2 + C sum max(0, 1 - y_i w.x_i)
// over binary labels y in {-1, +1}. Returns w; the bias is the weight of
// the appended constant feature. Adds the passes run to the counter.
std::vector<double> TrainBinary(const DesignMatrix& x,
                                const std::vector<signed char>& y,
                                const SvmOptions& options, uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const size_t n = x.rows;
  const double c = options.c;
  std::vector<double> w(x.dim, 0.0);
  std::vector<double> alpha(n, 0.0);
  std::vector<size_t> index(n);
  std::iota(index.begin(), index.end(), size_t{0});
  Rng rng(seed);

  // Coordinates index[0, active) are visited; the rest are shrunk: their
  // alpha sits at a bound that the last pass's gradient range says it
  // will keep.
  size_t active = n;
  double pg_max_old = kInf;
  double pg_min_old = -kInf;
  size_t pass = 0;
  while (pass < options.max_passes) {
    for (size_t s = 0; s + 1 < active; ++s) {
      std::swap(index[s], index[s + rng.Index(active - s)]);
    }
    double pg_max = -kInf;
    double pg_min = kInf;
    for (size_t s = 0; s < active;) {
      const size_t i = index[s];
      const double* xi = x.row(i);
      const double g = y[i] * Dot(w, xi) - 1.0;

      // Projected gradient; shrink a coordinate held at a bound.
      double pg = 0.0;
      if (alpha[i] == 0.0) {
        if (g > pg_max_old) {
          std::swap(index[s], index[--active]);
          continue;
        }
        if (g < 0.0) pg = g;
      } else if (alpha[i] == c) {
        if (g < pg_min_old) {
          std::swap(index[s], index[--active]);
          continue;
        }
        if (g > 0.0) pg = g;
      } else {
        pg = g;
      }
      pg_max = std::max(pg_max, pg);
      pg_min = std::min(pg_min, pg);

      if (std::abs(pg) > 1e-12) {
        const double old_alpha = alpha[i];
        alpha[i] = std::min(std::max(old_alpha - g / x.qd[i], 0.0), c);
        const double delta = (alpha[i] - old_alpha) * y[i];
        for (size_t j = 0; j < x.dim; ++j) w[j] += delta * xi[j];
      }
      ++s;
    }
    ++pass;

    if (pg_max - pg_min <= options.tolerance) {
      if (active == n) break;
      // Converged on the active set only: check every coordinate again.
      active = n;
      pg_max_old = kInf;
      pg_min_old = -kInf;
      continue;
    }
    pg_max_old = pg_max <= 0.0 ? kInf : pg_max;
    pg_min_old = pg_min >= 0.0 ? -kInf : pg_min;
  }
  PassesCounter().Add(pass);
  return w;
}

}  // namespace

std::span<const double> LinearSvm::StandardizeToScratch(
    std::span<const double> features) const {
  IPS_CHECK(features.size() == feature_means_.size());
  thread_local std::vector<double> row;
  row.resize(features.size() + 1);
  for (size_t j = 0; j < features.size(); ++j) {
    row[j] = (features[j] - feature_means_[j]) / feature_stds_[j];
  }
  row[features.size()] = 1.0;
  return row;
}

void LinearSvm::Fit(const LabeledMatrix& data) {
  IPS_CHECK(!data.x.empty());
  const size_t n = data.size();
  const size_t d = data.dim();
  IPS_CHECK(d >= 1);
  const int num_classes = data.NumClasses();
  IPS_CHECK(num_classes >= 1);

  // Learn the standardisation.
  feature_means_.assign(d, 0.0);
  feature_stds_.assign(d, 0.0);
  for (const auto& row : data.x) {
    IPS_CHECK(row.size() == d);
    for (size_t j = 0; j < d; ++j) feature_means_[j] += row[j];
  }
  for (size_t j = 0; j < d; ++j) feature_means_[j] /= static_cast<double>(n);
  for (const auto& row : data.x) {
    for (size_t j = 0; j < d; ++j) {
      const double diff = row[j] - feature_means_[j];
      feature_stds_[j] += diff * diff;
    }
  }
  for (size_t j = 0; j < d; ++j) {
    feature_stds_[j] = std::sqrt(feature_stds_[j] / static_cast<double>(n));
    if (feature_stds_[j] < 1e-12) feature_stds_[j] = 1.0;
  }

  // Standardised matrix with the bias feature appended, and its row
  // norms. The bias makes every norm at least 1.
  DesignMatrix xs;
  xs.rows = n;
  xs.dim = d + 1;
  xs.values.resize(n * xs.dim);
  xs.qd.resize(n);
  for (size_t i = 0; i < n; ++i) {
    double* row = xs.values.data() + i * xs.dim;
    double norm = 0.0;
    for (size_t j = 0; j < d; ++j) {
      row[j] = (data.x[i][j] - feature_means_[j]) / feature_stds_[j];
      norm += row[j] * row[j];
    }
    row[d] = 1.0;
    xs.qd[i] = norm + 1.0;
  }

  weights_.resize(static_cast<size_t>(num_classes));
  std::vector<signed char> binary(n);
  for (int c = 0; c < num_classes; ++c) {
    for (size_t i = 0; i < n; ++i) binary[i] = data.y[i] == c ? 1 : -1;
    weights_[static_cast<size_t>(c)] = TrainBinary(
        xs, binary, options_, options_.seed + static_cast<uint64_t>(c));
  }
}

double LinearSvm::DecisionValue(std::span<const double> features,
                                int label) const {
  IPS_CHECK(label >= 0 && label < num_classes());
  const std::span<const double> xs = StandardizeToScratch(features);
  const auto& w = weights_[static_cast<size_t>(label)];
  double s = 0.0;
  for (size_t j = 0; j < xs.size(); ++j) s += w[j] * xs[j];
  return s;
}

int LinearSvm::Predict(std::span<const double> features) const {
  IPS_CHECK(!weights_.empty());
  const std::span<const double> xs = StandardizeToScratch(features);
  int best = 0;
  double best_value = -1e300;
  for (int c = 0; c < num_classes(); ++c) {
    const auto& w = weights_[static_cast<size_t>(c)];
    double s = 0.0;
    for (size_t j = 0; j < xs.size(); ++j) s += w[j] * xs[j];
    if (s > best_value) {
      best_value = s;
      best = c;
    }
  }
  return best;
}

}  // namespace ips
