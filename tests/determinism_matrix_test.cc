// End-to-end determinism matrix: the full IPS pipeline (discovery,
// shapelet transform, classification) on a small UCR-catalogue dataset
// must produce bitwise-identical shapelets, transform features and
// accuracy at every thread count, including 0 (= auto). All randomness is
// drawn before the parallel regions and every parallel write is disjoint
// per index, so the persistent pool's nondeterministic scheduling must be
// unobservable in the outputs.

#include <cstdlib>

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/metric.h"
#include "data/generator.h"
#include "data/ucr_catalog.h"
#include "ips/pipeline.h"
#include "transform/shapelet_transform.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace ips {
namespace {

// Give the pool real workers even on single-core runners, so the matrix
// actually compares cross-thread schedules rather than inline loops.
const bool kForcePoolWorkers = [] {
  setenv("IPS_THREAD_POOL_WORKERS", "7", /*overwrite=*/0);
  return true;
}();

struct PipelineRun {
  std::vector<Subsequence> shapelets;
  size_t motifs_after_prune = 0;
  size_t discords_after_prune = 0;
  TransformedData transform;
  double accuracy = 0.0;
};

// `naive` swaps the paper's defaults (DABF pruning, DT+CR utility) for
// naive pruning with exact utility, where every Def. 4 distance of
// discovery runs through the DistanceEngine.
PipelineRun RunPipeline(const TrainTestSplit& data, size_t num_threads,
                        MetricId metric = MetricId::kZNormEuclidean,
                        bool naive = false) {
  IpsOptions o;
  o.sample_count = 4;
  o.sample_size = 3;
  o.length_ratios = {0.2, 0.35};
  o.shapelets_per_class = 3;
  o.num_threads = num_threads;
  o.metric = metric;
  if (naive) {
    o.use_dabf_pruning = false;
    o.utility_mode = UtilityMode::kExactWithCr;
  }

  IpsClassifier clf(o);
  clf.Fit(data.train);

  PipelineRun run;
  run.shapelets = clf.shapelets();
  run.motifs_after_prune = clf.result().stats.motifs_after_prune;
  run.discords_after_prune = clf.result().stats.discords_after_prune;
  run.transform = ShapeletTransform(data.test, clf.shapelets(), o.metric,
                                    num_threads);
  run.accuracy = clf.Accuracy(data.test);
  return run;
}

void ExpectRunsBitwiseEqual(const PipelineRun& run, const PipelineRun& base) {
  EXPECT_EQ(run.motifs_after_prune, base.motifs_after_prune);
  EXPECT_EQ(run.discords_after_prune, base.discords_after_prune);
  ASSERT_EQ(run.shapelets.size(), base.shapelets.size());
  for (size_t s = 0; s < base.shapelets.size(); ++s) {
    EXPECT_EQ(run.shapelets[s].label, base.shapelets[s].label);
    EXPECT_EQ(run.shapelets[s].series_index, base.shapelets[s].series_index);
    EXPECT_EQ(run.shapelets[s].start, base.shapelets[s].start);
    ASSERT_EQ(run.shapelets[s].values.size(),
              base.shapelets[s].values.size());
    for (size_t v = 0; v < base.shapelets[s].values.size(); ++v) {
      ASSERT_EQ(run.shapelets[s].values[v], base.shapelets[s].values[v])
          << "shapelet " << s << " value " << v;
    }
  }

  ASSERT_EQ(run.transform.size(), base.transform.size());
  EXPECT_EQ(run.transform.labels, base.transform.labels);
  for (size_t i = 0; i < base.transform.size(); ++i) {
    ASSERT_EQ(run.transform.features[i].size(),
              base.transform.features[i].size());
    for (size_t f = 0; f < base.transform.features[i].size(); ++f) {
      ASSERT_EQ(run.transform.features[i][f], base.transform.features[i][f])
          << "series " << i << " feature " << f;
    }
  }

  EXPECT_EQ(run.accuracy, base.accuracy);
}

TEST(DeterminismMatrixTest, PipelineBitwiseIdenticalAcrossThreadCounts) {
  ASSERT_TRUE(kForcePoolWorkers);
  // ItalyPowerDemand, scaled to test size: the smallest-series catalogue
  // entry (length 24), synthesised by the repo's UCR stand-in generator.
  const auto info = FindUcrDataset("ItalyPowerDemand");
  ASSERT_TRUE(info.has_value());
  CatalogScale scale;
  scale.count_factor = 0.4;
  scale.min_train = 16;
  scale.max_train = 28;
  scale.min_test = 24;
  scale.max_test = 48;
  const TrainTestSplit data =
      GenerateDataset(SpecFromCatalog(ScaleDataset(*info, scale)));

  const PipelineRun base = RunPipeline(data, 1);
  ASSERT_FALSE(base.shapelets.empty());
  ASSERT_EQ(base.transform.size(), data.test.size());

  // 0 = auto (HardwareThreads()).
  for (size_t threads : {size_t{2}, size_t{8}, size_t{0}}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    ExpectRunsBitwiseEqual(RunPipeline(data, threads), base);
  }
}

// The same matrix under each non-default metric: end-to-end runs must be
// bitwise thread-count independent regardless of which registered metric
// parameterises the joins and transform.
TEST(DeterminismMatrixTest, EveryMetricBitwiseIdenticalAcrossThreadCounts) {
  ASSERT_TRUE(kForcePoolWorkers);
  const auto info = FindUcrDataset("ItalyPowerDemand");
  ASSERT_TRUE(info.has_value());
  CatalogScale scale;
  scale.count_factor = 0.4;
  scale.min_train = 16;
  scale.max_train = 28;
  scale.min_test = 24;
  scale.max_test = 48;
  const TrainTestSplit data =
      GenerateDataset(SpecFromCatalog(ScaleDataset(*info, scale)));

  for (const MetricId metric :
       {MetricId::kRawSquaredEuclidean, MetricId::kEuclidean,
        MetricId::kCosine}) {
    SCOPED_TRACE(std::string("metric=") + MetricName(metric));
    const PipelineRun base = RunPipeline(data, 1, metric);
    ASSERT_FALSE(base.shapelets.empty());
    for (size_t threads : {size_t{2}, size_t{8}}) {
      SCOPED_TRACE("num_threads=" + std::to_string(threads));
      ExpectRunsBitwiseEqual(RunPipeline(data, threads, metric), base);
    }
  }
}

// Naive pruning with exact utility: the pruner runs many engine batches
// over temporary copies of the candidate pool, whose freed buffers malloc
// hands back at the same addresses. Prune counts and shapelets must still
// not depend on the thread count.
TEST(DeterminismMatrixTest, NaivePruningBitwiseIdenticalAcrossThreadCounts) {
  ASSERT_TRUE(kForcePoolWorkers);
  const auto info = FindUcrDataset("ItalyPowerDemand");
  ASSERT_TRUE(info.has_value());
  CatalogScale scale;
  scale.count_factor = 0.4;
  scale.min_train = 16;
  scale.max_train = 28;
  scale.min_test = 24;
  scale.max_test = 48;
  const TrainTestSplit data =
      GenerateDataset(SpecFromCatalog(ScaleDataset(*info, scale)));

  const PipelineRun base =
      RunPipeline(data, 1, MetricId::kZNormEuclidean, /*naive=*/true);
  ASSERT_FALSE(base.shapelets.empty());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    ExpectRunsBitwiseEqual(
        RunPipeline(data, threads, MetricId::kZNormEuclidean, /*naive=*/true),
        base);
  }
}

TEST(DeterminismMatrixTest, AutoThreadsRecordPoolActivityInStats) {
  GeneratorSpec spec;
  spec.name = "determinism_matrix_pool_stats";
  spec.num_classes = 2;
  spec.train_size = 16;
  spec.test_size = 8;
  spec.length = 96;
  const TrainTestSplit data = GenerateDataset(spec);

  IpsOptions o;
  o.sample_count = 4;
  o.sample_size = 3;
  o.length_ratios = {0.2, 0.3};
  o.shapelets_per_class = 2;
  o.num_threads = 0;  // auto

  IpsClassifier clf(o);
  clf.Fit(data.train);
  const IpsRunStats& stats = clf.result().stats;
  // Some regions always run (candidate generation, the transform); whether
  // they dispatched or inlined depends on the machine, but the counters
  // must have recorded them either way.
  EXPECT_GT(stats.pool_regions + stats.pool_inline_regions, 0u);
  if (ThreadPool::Instance().worker_count() > 0 && HardwareThreads() > 1) {
    EXPECT_GT(stats.pool_regions, 0u);
  }
}

}  // namespace
}  // namespace ips
