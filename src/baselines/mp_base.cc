#include "baselines/mp_base.h"

#include <algorithm>

#include "ips/candidate_gen.h"
#include "matrix_profile/matrix_profile.h"
#include "matrix_profile/motif.h"
#include "matrix_profile/mp_engine.h"
#include "transform/shapelet_transform.h"
#include "util/check.h"

namespace ips {

std::vector<Subsequence> DiscoverMpBaseShapelets(
    const DatasetView& train, const MpBaseOptions& options) {
  IPS_CHECK(!train.empty());
  const std::vector<size_t> lengths =
      ResolveCandidateLengths(train.MinLength(), options.length_ratios);
  const int num_classes = train.NumClasses();

  // One engine for all joins: each join's diagonals are sharded over the
  // option's threads.
  MatrixProfileEngine engine(options.num_threads);

  std::vector<Subsequence> shapelets;
  // T_C / T_notC scratch, materialised lazily per class from the view's
  // ClassConcat -- capacity is reused across classes, so peak memory is the
  // two largest concatenations rather than per-class copies.
  std::vector<double> own;
  std::vector<double> other;
  for (int label = 0; label < num_classes; ++label) {
    train.ConcatenateClass(label).CopyTo(&own);
    if (own.empty()) continue;

    // Concatenate every other class (the baseline's T_B).
    other.clear();
    for (size_t i = 0; i < train.size(); ++i) {
      const SeriesView t = train.At(i);
      if (t.label == label) continue;
      other.insert(other.end(), t.values.begin(), t.values.end());
    }
    if (other.empty()) continue;

    // Candidate = (diff value, length, offset in T_C); best per position
    // across lengths, then top-k with exclusion per length group.
    struct Candidate {
      double diff;
      size_t length;
      size_t offset;
    };
    std::vector<Candidate> candidates;
    for (size_t window : lengths) {
      if (own.size() <= window || other.size() < window) continue;
      const MatrixProfile self = engine.SelfJoin(own, window);
      const MatrixProfile cross = engine.AbJoin(own, other, window);
      const std::vector<double> diff = ProfileDiff(cross, self);
      // Largest differences, separated by an exclusion zone (Formula 4
      // extended to top-k, as the paper notes).
      const std::vector<size_t> tops = FindDiscords(
          diff, options.shapelets_per_class, DefaultExclusionZone(window));
      for (size_t pos : tops) {
        candidates.push_back({diff[pos], window, pos});
      }
    }

    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.diff > b.diff;
              });
    const size_t take =
        std::min(options.shapelets_per_class, candidates.size());
    for (size_t i = 0; i < take; ++i) {
      shapelets.push_back(ExtractSubsequence(
          SeriesView(own, label), candidates[i].offset, candidates[i].length,
          /*series_index=*/-1));
    }
  }
  return shapelets;
}

void MpBaseClassifier::Fit(const DatasetView& train) {
  shapelets_ = DiscoverMpBaseShapelets(train, options_);
  IPS_CHECK_MSG(!shapelets_.empty(), "BASE discovered no shapelets");
  const TransformedData transformed = ShapeletTransform(train, shapelets_);
  LabeledMatrix matrix;
  matrix.x = transformed.features;
  matrix.y = transformed.labels;
  svm_ = LinearSvm(options_.svm);
  svm_.Fit(matrix);
}

int MpBaseClassifier::Predict(SeriesView series) const {
  IPS_CHECK(!shapelets_.empty());
  return svm_.Predict(TransformSeries(series, shapelets_));
}

}  // namespace ips
