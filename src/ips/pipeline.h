// End-to-end IPS pipeline (paper Fig. 5):
//   (1) sample instances per class           -> candidate generation with the
//   (2) instance profiles -> motifs/discords    instance profile (Alg. 1)
//   (3) DABF construction (Alg. 2)
//   (4) candidate pruning (Alg. 3)
//   (5) utility scoring + top-k selection (Alg. 4, DT & CR)
// followed by the shapelet transform and a linear SVM for classification.
//
// Every entry point returns (or exposes) a RunResult: the shapelets plus
// the run's observability record, derived from the obs registries -- see
// ips/run_result.h for the stats view and docs/observability.md for the
// span/metric taxonomy the stages emit.

#ifndef IPS_IPS_PIPELINE_H_
#define IPS_IPS_PIPELINE_H_

#include <memory>
#include <vector>

#include "classify/classifier.h"
#include "classify/svm.h"
#include "core/time_series.h"
#include "ips/candidate_gen.h"
#include "ips/config.h"
#include "ips/pruning.h"
#include "ips/run_result.h"
#include "transform/shapelet_bank.h"

namespace ips {

/// Runs shapelet discovery (stages 1-5) on a training set and returns the
/// shapelets together with the run's stats and span trace. Requires a
/// non-empty training set whose shortest series has at least 4 points, and
/// aborts before any discovery work when a series holds a NaN or an
/// infinity (CheckFiniteSeries).
RunResult DiscoverShapelets(const DatasetView& train,
                            const IpsOptions& options);

/// IPS as a drop-in time-series classifier: discovery + shapelet transform
/// + a configurable back-end (linear SVM by default, per §III-D).
///
/// Fails closed on non-finite input: Fit, FitFromRunResult, Predict and
/// PredictBatch abort on a series holding a NaN or an infinity, naming the
/// series and the value position (CheckFiniteSeries), instead of returning
/// a label. The check rides on the shapelet transform, the one pass every
/// entry point makes over every series; Fit (like DiscoverShapelets) also
/// checks the training set before discovery starts.
class IpsClassifier final : public SeriesClassifier {
 public:
  explicit IpsClassifier(IpsOptions options = {});
  ~IpsClassifier() override;

  void Fit(const DatasetView& train) override;

  /// Rebuilds the classifier from a saved run artifact plus the training
  /// set it was discovered on: discovery is skipped entirely (the
  /// artifact's shapelets and metric are taken as-is, overriding
  /// options.metric), the training set is shapelet-transformed and the
  /// configured back-end refit. Deterministic in (artifact, train,
  /// options); the serving layer's model-load path. Requires a non-empty
  /// artifact shapelet set and training set.
  void FitFromRunResult(const DatasetView& train,
                        const RunResult& artifact);

  int Predict(SeriesView series) const override;

  /// Batched inference: one shapelet transform over the whole test set on
  /// `options.num_threads` workers (series sharded across the pool)
  /// instead of a per-series Predict loop. Labels are identical to the
  /// loop -- the transform rows are bitwise equal to TransformSeries --
  /// just faster; Accuracy() uses this path. Like Predict it reads the
  /// fitted ShapeletBank and builds no shapelet artefact, so a one-series
  /// batch costs one row; concurrent calls share nothing mutable.
  std::vector<int> PredictBatch(const DatasetView& test) const override;

  /// The fit's full outcome (valid after Fit()): shapelets, the stats
  /// view, and the span trace covering discovery + transform + back-end.
  const RunResult& result() const { return result_; }

  /// Discovered shapelets (valid after Fit()).
  const std::vector<Subsequence>& shapelets() const {
    return result_.shapelets;
  }

  /// The shapelets' artefacts (valid after Fit()).
  const ShapeletBank& bank() const { return bank_; }

 private:
  /// Builds bank_ from result_.shapelets, transforming `train` through it,
  /// and fits the back-end on the rows.
  void FitBankAndBackend(const DatasetView& train);

  IpsOptions options_;
  std::unique_ptr<Classifier> backend_;
  // The shapelets' artefacts, built by every fit before its training
  // transform and read lock-free by every prediction.
  ShapeletBank bank_;
  RunResult result_;
};

}  // namespace ips

#endif  // IPS_IPS_PIPELINE_H_
