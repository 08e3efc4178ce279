#include "ips/pipeline.h"

#include <map>
#include <memory>
#include <utility>

#include "dabf/dabf.h"
#include "classify/logistic.h"
#include "classify/naive_bayes.h"
#include "core/distance_engine.h"
#include "ips/top_k.h"
#include "ips/utility.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace ips {

namespace {

// Pipeline-level event counters ("ips.*"). The stage sizes used to be
// IpsRunStats out-param fields; they are registry counters now, so the
// stats view (IpsRunStats::FromRegistry) and the exporters read them the
// same way they read the engine and pool counters.
struct PipelineMetrics {
  obs::Counter& motifs_generated;
  obs::Counter& discords_generated;
  obs::Counter& motifs_after_prune;
  obs::Counter& discords_after_prune;
  obs::Counter& shapelets_selected;
};

PipelineMetrics& Metrics() {
  static PipelineMetrics* metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
    return new PipelineMetrics{
        registry.GetCounter("ips.motifs_generated"),
        registry.GetCounter("ips.discords_generated"),
        registry.GetCounter("ips.motifs_after_prune"),
        registry.GetCounter("ips.discords_after_prune"),
        registry.GetCounter("ips.shapelets_selected")};
  }();
  return *metrics;
}

// Stages 1-5 with their spans and counters. Both public entry points wrap
// this in an observation window (registry snapshots before, deltas after);
// under IpsClassifier::Fit the "discover" span nests inside "fit".
std::vector<Subsequence> RunDiscovery(const DatasetView& train,
                                      const IpsOptions& options) {
  IPS_CHECK(!train.empty());
  IPS_SPAN("discover");

  // One engine for every Def. 4 evaluation of the run: pruning and exact
  // utility scoring share its thread count.
  DistanceEngine engine(options.num_threads);

  // (1)+(2) Candidate generation with the instance profile (Alg. 1).
  Rng rng(options.seed);
  CandidatePool pool;
  {
    IPS_SPAN("candidate_gen");
    pool = GenerateCandidates(train, options, rng);
  }
  Metrics().motifs_generated.Add(pool.TotalMotifs());
  Metrics().discords_generated.Add(pool.TotalDiscords());

  // (3) DABF construction (Alg. 2). Needed for DABF pruning and for the
  // DT utility coordinates, so it is built whenever either is active.
  const bool need_dabf = options.use_dabf_pruning ||
                         options.utility_mode == UtilityMode::kDtCr;
  std::unique_ptr<Dabf> dabf;
  if (need_dabf) {
    IPS_SPAN("dabf_build");
    // Label set from the union of motif and discord keys: a class whose
    // surviving candidates are all discords still needs a ClassDabf, or its
    // candidates would sail through pruning unchecked.
    std::map<int, std::vector<Subsequence>> by_class = pool.MergedByClass();
    DabfOptions dabf_options = options.dabf;
    dabf_options.seed = options.dabf.seed + options.seed;
    dabf = std::make_unique<Dabf>(by_class, dabf_options);
  }

  // (4) Pruning (Alg. 3).
  {
    IPS_SPAN("pruning");
    if (options.use_dabf_pruning) {
      PruneWithDabf(pool, *dabf, options.shapelets_per_class);
    } else {
      PruneNaive(pool, options.shapelets_per_class, /*majority_fraction=*/0.5,
                 &engine);
    }
  }
  Metrics().motifs_after_prune.Add(pool.TotalMotifs());
  Metrics().discords_after_prune.Add(pool.TotalDiscords());

  // (5) Utility scoring + top-k (Alg. 4).
  std::vector<Subsequence> shapelets;
  {
    IPS_SPAN("selection");
    const auto scores = ScoreAllCandidates(pool, train, options.utility_mode,
                                           dabf.get(), &engine);
    shapelets = SelectTopKShapelets(pool, scores, options.shapelets_per_class);
  }
  Metrics().shapelets_selected.Add(shapelets.size());
  return shapelets;
}

std::unique_ptr<Classifier> MakeBackend(const IpsOptions& options) {
  switch (options.backend) {
    case TransformBackend::kLinearSvm:
      return std::make_unique<LinearSvm>(options.svm);
    case TransformBackend::kLogisticRegression:
      return std::make_unique<LogisticRegression>();
    case TransformBackend::kNaiveBayes:
      return std::make_unique<GaussianNaiveBayes>();
    case TransformBackend::kNearestNeighbor:
      return std::make_unique<FeatureKnn>(1);
  }
  return nullptr;
}

}  // namespace

RunResult DiscoverShapelets(const DatasetView& train,
                            const IpsOptions& options) {
  const obs::MetricsSnapshot metrics_before =
      obs::MetricsRegistry::Instance().Snapshot();
  const obs::TraceSnapshot trace_before =
      obs::TraceRegistry::Instance().Snapshot();

  RunResult result;
  result.metric = options.metric;
  result.shapelets = RunDiscovery(train, options);
  result.trace = obs::TraceRegistry::Instance().DeltaSince(trace_before);
  result.stats = IpsRunStats::FromRegistry(
      obs::MetricsRegistry::Instance().DeltaSince(metrics_before),
      result.trace);
  return result;
}

IpsClassifier::IpsClassifier(IpsOptions options) : options_(options) {}
IpsClassifier::~IpsClassifier() = default;

void IpsClassifier::Fit(const DatasetView& train) {
  // One observation window over discovery AND the classifier-only stages,
  // so result_.stats attributes the whole fit and the trace nests every
  // stage under "fit".
  const obs::MetricsSnapshot metrics_before =
      obs::MetricsRegistry::Instance().Snapshot();
  const obs::TraceSnapshot trace_before =
      obs::TraceRegistry::Instance().Snapshot();
  result_ = RunResult{};
  result_.metric = options_.metric;
  {
    IPS_SPAN("fit");
    result_.shapelets = RunDiscovery(train, options_);
    IPS_CHECK_MSG(!result_.shapelets.empty(), "IPS discovered no shapelets");
    FitBankAndBackend(train);
  }
  result_.trace = obs::TraceRegistry::Instance().DeltaSince(trace_before);
  result_.stats = IpsRunStats::FromRegistry(
      obs::MetricsRegistry::Instance().DeltaSince(metrics_before),
      result_.trace);
}

void IpsClassifier::FitFromRunResult(const DatasetView& train,
                                     const RunResult& artifact) {
  IPS_CHECK_MSG(!artifact.shapelets.empty(), "run artifact has no shapelets");
  IPS_CHECK(!train.empty());
  // The artifact's metric governs: its shapelet distances are only
  // meaningful under the metric the run was discovered with.
  options_.metric = artifact.metric;

  const obs::MetricsSnapshot metrics_before =
      obs::MetricsRegistry::Instance().Snapshot();
  const obs::TraceSnapshot trace_before =
      obs::TraceRegistry::Instance().Snapshot();
  result_ = RunResult{};
  result_.metric = artifact.metric;
  result_.shapelets = artifact.shapelets;
  {
    IPS_SPAN("fit_from_artifact");
    FitBankAndBackend(train);
  }
  result_.trace = obs::TraceRegistry::Instance().DeltaSince(trace_before);
  result_.stats = IpsRunStats::FromRegistry(
      obs::MetricsRegistry::Instance().DeltaSince(metrics_before),
      result_.trace);
}

void IpsClassifier::FitBankAndBackend(const DatasetView& train) {
  LabeledMatrix matrix;
  {
    IPS_SPAN("transform");
    matrix.x.resize(train.size());
    bank_ = ShapeletBank(result_.shapelets, options_.metric, train);
    bank_.Transform(train, options_.num_threads,
                    [&](size_t i, std::span<const double> row) {
                      matrix.x[i].assign(row.begin(), row.end());
                    });
    matrix.y = train.Labels();
  }
  backend_ = MakeBackend(options_);
  {
    IPS_SPAN("backend_fit");
    backend_->Fit(matrix);
  }
}

int IpsClassifier::Predict(SeriesView series) const {
  IPS_CHECK(!result_.shapelets.empty());
  return backend_->Predict(bank_.TransformOne(series.view()));
}

std::vector<int> IpsClassifier::PredictBatch(
    const DatasetView& test) const {
  IPS_CHECK(!result_.shapelets.empty());
  // Rows are bitwise equal to TransformSeries, so every label matches the
  // per-series Predict loop.
  std::vector<int> out(test.size());
  bank_.Transform(test, options_.num_threads,
                  [&](size_t i, std::span<const double> row) {
                    out[i] = backend_->Predict(row);
                  });
  return out;
}

}  // namespace ips
