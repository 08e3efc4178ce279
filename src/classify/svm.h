// Linear-kernel SVM trained by dual coordinate descent (Hsieh et al., ICML
// 2008 -- LIBLINEAR's L1-loss dual solver), with one-vs-rest reduction for
// multiclass. This is the classification back-end the paper applies to the
// shapelet-transformed data (§III-D "Remarks").
//
// Features are standardised internally (per-dimension mean/variance learned
// at Fit time) so shapelet distances of different scales are weighted
// comparably, and a bias term is learned via feature augmentation. The
// standardised matrix and its row norms are built once per Fit and shared
// by every one-vs-rest problem.
//
// Each pass visits the active coordinates in an order shuffled by the
// problem's own seed. Shrinking is always on: a coordinate whose alpha sits
// at 0 with a gradient above the last pass's largest projected gradient,
// or at C with one below the smallest, leaves the active set. A pass whose
// projected gradients span at most `tolerance` (max - min) ends the solve
// when nothing is shrunk; otherwise the full set is restored and the
// passes go on. `max_passes` caps the passes per problem, and the
// `classify.svm.passes` counter adds up the passes each problem ran.

#ifndef IPS_CLASSIFY_SVM_H_
#define IPS_CLASSIFY_SVM_H_

#include <cstdint>

#include <vector>

#include "classify/classifier.h"

namespace ips {

/// Hyper-parameters of the linear SVM.
struct SvmOptions {
  double c = 1.0;            ///< Soft-margin penalty.
  size_t max_passes = 1000;  ///< Pass cap per one-vs-rest problem.
  double tolerance = 0.1;    ///< Bound on max - min projected gradient.
  uint64_t seed = 13;        ///< Shuffle seed; class c uses seed + c.
};

/// One-vs-rest linear SVM.
class LinearSvm final : public Classifier {
 public:
  explicit LinearSvm(SvmOptions options = {}) : options_(options) {}

  void Fit(const LabeledMatrix& data) override;
  int Predict(std::span<const double> features) const override;

  /// Decision value of class `label` for a feature vector (w . x + b).
  double DecisionValue(std::span<const double> features, int label) const;

  int num_classes() const { return static_cast<int>(weights_.size()); }

  /// The fitted model: class `label`'s weights over the standardised
  /// features, the bias weight last, and the per-feature mean and standard
  /// deviation that standardise a row before the dot product.
  const std::vector<double>& weights(int label) const {
    return weights_.at(static_cast<size_t>(label));
  }
  const std::vector<double>& feature_means() const { return feature_means_; }
  const std::vector<double>& feature_stds() const { return feature_stds_; }

 private:
  /// The standardised row with the bias feature 1.0 appended, written to
  /// the calling thread's scratch; valid until that thread's next call.
  std::span<const double> StandardizeToScratch(
      std::span<const double> features) const;

  SvmOptions options_;
  std::vector<std::vector<double>> weights_;  // per class, incl. bias weight
  std::vector<double> feature_means_;
  std::vector<double> feature_stds_;
};

}  // namespace ips

#endif  // IPS_CLASSIFY_SVM_H_
