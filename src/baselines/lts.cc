#include "baselines/lts.h"

#include <cmath>

#include <algorithm>
#include <limits>
#include <span>

#include "core/rng.h"
#include "stats/special.h"
#include "util/check.h"

namespace ips {

namespace {

// Per-window mean squared distances between `series` and `shapelet`.
std::vector<double> WindowDistances(std::span<const double> series,
                                    const std::vector<double>& shapelet) {
  const size_t l = shapelet.size();
  IPS_CHECK(series.size() >= l);
  std::vector<double> out(series.size() - l + 1);
  for (size_t j = 0; j < out.size(); ++j) {
    double s = 0.0;
    for (size_t p = 0; p < l; ++p) {
      const double d = series[j + p] - shapelet[p];
      s += d * d;
    }
    out[j] = s / static_cast<double>(l);
  }
  return out;
}

// Soft minimum of `d` with sharpness alpha (< 0), plus the softmax weights
// psi_j used by the gradient: M = sum_j d_j e^{alpha d_j} / sum_j e^{alpha
// d_j}. Shift by min(d) for numerical stability.
double SoftMin(const std::vector<double>& d, double alpha,
               std::vector<double>* psi) {
  const double mn = *std::min_element(d.begin(), d.end());
  double num = 0.0, den = 0.0;
  std::vector<double> e(d.size());
  for (size_t j = 0; j < d.size(); ++j) {
    e[j] = std::exp(alpha * (d[j] - mn));
    num += d[j] * e[j];
    den += e[j];
  }
  const double m = num / den;
  if (psi != nullptr) {
    // dM/dd_j = e_j (1 + alpha (d_j - M)) / den.
    psi->resize(d.size());
    for (size_t j = 0; j < d.size(); ++j) {
      (*psi)[j] = e[j] * (1.0 + alpha * (d[j] - m)) / den;
    }
  }
  return m;
}

// Lightweight k-means over equal-length segments for shapelet
// initialisation (the published scheme).
std::vector<std::vector<double>> KMeansCentroids(
    const std::vector<std::vector<double>>& segments, size_t k, Rng& rng) {
  IPS_CHECK(!segments.empty());
  k = std::min(k, segments.size());
  std::vector<std::vector<double>> centroids;
  for (size_t idx : rng.SampleWithoutReplacement(segments.size(), k)) {
    centroids.push_back(segments[idx]);
  }
  std::vector<size_t> assignment(segments.size(), 0);
  for (int iter = 0; iter < 10; ++iter) {
    // Assign.
    for (size_t i = 0; i < segments.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < centroids.size(); ++c) {
        double d = 0.0;
        for (size_t p = 0; p < segments[i].size(); ++p) {
          const double diff = segments[i][p] - centroids[c][p];
          d += diff * diff;
        }
        if (d < best) {
          best = d;
          assignment[i] = c;
        }
      }
    }
    // Update.
    std::vector<std::vector<double>> sums(
        centroids.size(), std::vector<double>(segments[0].size(), 0.0));
    std::vector<size_t> counts(centroids.size(), 0);
    for (size_t i = 0; i < segments.size(); ++i) {
      for (size_t p = 0; p < segments[i].size(); ++p) {
        sums[assignment[i]][p] += segments[i][p];
      }
      ++counts[assignment[i]];
    }
    for (size_t c = 0; c < centroids.size(); ++c) {
      if (counts[c] == 0) continue;
      for (size_t p = 0; p < centroids[c].size(); ++p) {
        centroids[c][p] = sums[c][p] / static_cast<double>(counts[c]);
      }
    }
  }
  return centroids;
}

}  // namespace

void LtsClassifier::SetInitialShapelets(
    std::vector<std::vector<double>> shapelets) {
  initial_shapelets_ = std::move(shapelets);
}

void LtsClassifier::Fit(const DatasetView& train) {
  IPS_CHECK(!train.empty());
  num_classes_ = train.NumClasses();
  const size_t n = train.size();
  const size_t series_len = train.MinLength();
  Rng rng(options_.seed);

  // ---- Initialise shapelets: injected starting points (ELIS-style
  // select-then-adjust) or k-means centroids of segments per scale.
  shapelets_.clear();
  if (!initial_shapelets_.empty()) {
    for (const auto& s : initial_shapelets_) {
      IPS_CHECK(s.size() >= 4 && s.size() <= series_len);
    }
    shapelets_ = initial_shapelets_;
  }
  const size_t base_len = std::clamp<size_t>(
      static_cast<size_t>(options_.length_ratio *
                          static_cast<double>(series_len)),
      4, series_len);
  const bool kmeans_init = shapelets_.empty();
  for (size_t r = 0; kmeans_init && r < options_.scales; ++r) {
    const size_t len = std::min(series_len, base_len * (r + 1));
    std::vector<std::vector<double>> segments;
    const size_t stride = std::max<size_t>(1, len / 2);
    for (size_t i = 0; i < n; ++i) {
      const SeriesView t = train.At(i);
      for (size_t off = 0; off + len <= t.length(); off += stride) {
        segments.emplace_back(
            t.values.begin() + static_cast<ptrdiff_t>(off),
            t.values.begin() + static_cast<ptrdiff_t>(off + len));
      }
    }
    if (segments.empty()) continue;
    for (auto& centroid :
         KMeansCentroids(segments, options_.shapelets_per_scale, rng)) {
      shapelets_.push_back(std::move(centroid));
    }
  }
  IPS_CHECK_MSG(!shapelets_.empty(), "LTS initialised no shapelets");
  const size_t k = shapelets_.size();

  // ---- Joint gradient descent on (shapelets, logistic weights).
  weights_.assign(static_cast<size_t>(num_classes_),
                  std::vector<double>(k + 1, 0.0));

  std::vector<std::vector<double>> m(n, std::vector<double>(k));
  std::vector<std::vector<std::vector<double>>> psi(
      n, std::vector<std::vector<double>>(k));

  const double eta = options_.learning_rate;
  for (size_t iter = 0; iter < options_.max_iters; ++iter) {
    // Forward: soft-min features and softmax weights.
    for (size_t i = 0; i < n; ++i) {
      for (size_t s = 0; s < k; ++s) {
        const std::vector<double> d =
            WindowDistances(train.At(i).view(), shapelets_[s]);
        m[i][s] = SoftMin(d, options_.alpha, &psi[i][s]);
      }
    }

    // Per-class logistic errors.
    std::vector<std::vector<double>> error(
        static_cast<size_t>(num_classes_), std::vector<double>(n));
    for (int c = 0; c < num_classes_; ++c) {
      auto& w = weights_[static_cast<size_t>(c)];
      for (size_t i = 0; i < n; ++i) {
        double z = w[k];
        for (size_t s = 0; s < k; ++s) z += w[s] * m[i][s];
        const double y = train.At(i).label == c ? 1.0 : 0.0;
        error[static_cast<size_t>(c)][i] = Sigmoid(z) - y;
      }
    }

    // Weight gradients.
    for (int c = 0; c < num_classes_; ++c) {
      auto& w = weights_[static_cast<size_t>(c)];
      const auto& err = error[static_cast<size_t>(c)];
      for (size_t s = 0; s < k; ++s) {
        double g = options_.lambda * w[s];
        for (size_t i = 0; i < n; ++i) g += err[i] * m[i][s];
        w[s] -= eta * g / static_cast<double>(n);
      }
      double g0 = 0.0;
      for (size_t i = 0; i < n; ++i) g0 += err[i];
      w[k] -= eta * g0 / static_cast<double>(n);
    }

    // Shapelet gradients: dL/ds_p = sum_c sum_i err_ci w_cs dM_is/ds_p,
    // dM/ds_p = sum_j psi_j * 2 (s_p - t_{j+p}) / len.
    for (size_t s = 0; s < k; ++s) {
      const size_t len = shapelets_[s].size();
      std::vector<double> grad(len, 0.0);
      for (size_t i = 0; i < n; ++i) {
        const SeriesView ti = train.At(i);
        double coeff = 0.0;
        for (int c = 0; c < num_classes_; ++c) {
          coeff += error[static_cast<size_t>(c)][i] *
                   weights_[static_cast<size_t>(c)][s];
        }
        if (coeff == 0.0) continue;
        const auto& p = psi[i][s];
        for (size_t j = 0; j < p.size(); ++j) {
          if (p[j] == 0.0) continue;
          const double scaled =
              coeff * p[j] * 2.0 / static_cast<double>(len);
          for (size_t q = 0; q < len; ++q) {
            grad[q] += scaled * (shapelets_[s][q] - ti[j + q]);
          }
        }
      }
      for (size_t q = 0; q < len; ++q) {
        shapelets_[s][q] -= eta * grad[q] / static_cast<double>(n);
      }
    }
  }
}

std::vector<double> LtsClassifier::Featurize(SeriesView series) const {
  std::vector<double> out(shapelets_.size());
  for (size_t s = 0; s < shapelets_.size(); ++s) {
    if (series.length() < shapelets_[s].size()) {
      out[s] = 0.0;
      continue;
    }
    const std::vector<double> d =
        WindowDistances(series.view(), shapelets_[s]);
    out[s] = SoftMin(d, options_.alpha, nullptr);
  }
  return out;
}

int LtsClassifier::Predict(SeriesView series) const {
  IPS_CHECK(!shapelets_.empty());
  const std::vector<double> m = Featurize(series);
  int best = 0;
  double best_z = -std::numeric_limits<double>::infinity();
  for (int c = 0; c < num_classes_; ++c) {
    const auto& w = weights_[static_cast<size_t>(c)];
    double z = w[m.size()];
    for (size_t s = 0; s < m.size(); ++s) z += w[s] * m[s];
    if (z > best_z) {
      best_z = z;
      best = c;
    }
  }
  return best;
}

std::vector<Subsequence> LtsClassifier::Shapelets() const {
  std::vector<Subsequence> out;
  for (const auto& values : shapelets_) {
    Subsequence s;
    s.values = values;
    s.label = -1;  // learned, not extracted from a series
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace ips
