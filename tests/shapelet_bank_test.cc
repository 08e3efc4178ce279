// ShapeletBank (transform/shapelet_bank.h): the fitted model's shapelet
// side. Its rows must be bitwise equal to the serial TransformSeries for
// every metric and thread count, whichever route each shapelet takes; a
// lone served series must get exactly the label it gets inside a batch;
// and the routes must be a pure function of the data and the shapelets.

#include "transform/shapelet_bank.h"

#include <cmath>
#include <cstdint>

#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/metric.h"
#include "data/generator.h"
#include "ips/pipeline.h"
#include "transform/shapelet_transform.h"

namespace ips {
namespace {

std::vector<std::vector<double>> DenseRows(
    const DatasetView& data, const std::vector<Subsequence>& shapelets,
    MetricId metric) {
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < data.size(); ++i) {
    rows.push_back(TransformSeries(data.At(i), shapelets, metric));
  }
  return rows;
}

std::vector<std::vector<double>> Rows(const ShapeletBank& bank,
                                      const DatasetView& data,
                                      size_t threads) {
  std::vector<std::vector<double>> rows(data.size());
  bank.Transform(data, threads, [&](size_t i, std::span<const double> row) {
    rows[i].assign(row.begin(), row.end());
  });
  return rows;
}

// A bank fitted on `train`, and the training rows FitTransform handed out.
struct Fitted {
  ShapeletBank bank;
  std::vector<std::vector<double>> rows;
};

Fitted Fit(const std::vector<Subsequence>& shapelets, MetricId metric,
           const DatasetView& train, bool early_abandon, size_t threads = 1) {
  Fitted fit;
  fit.rows.resize(train.size());
  fit.bank = ShapeletBank::FitTransform(
      shapelets, metric, train, early_abandon, threads,
      [&](size_t i, std::span<const double> row) {
        fit.rows[i].assign(row.begin(), row.end());
      });
  return fit;
}

std::vector<ShapeletBank::Route> Routes(const ShapeletBank& bank) {
  std::vector<ShapeletBank::Route> routes;
  for (size_t s = 0; s < bank.size(); ++s) routes.push_back(bank.route(s));
  return routes;
}

class ShapeletBankMetricTest : public ::testing::TestWithParam<MetricId> {};

// A lone series through PredictBatch (and Predict) gets the label it gets
// inside a 64-series batch, and the cascade-off model's label; the bank's
// rows equal the serial kernel's; the routes do not depend on the thread
// count.
TEST_P(ShapeletBankMetricTest, LoneSeriesMatchesBatchAndDenseAtAnyThreads) {
  const MetricId metric = GetParam();
  GeneratorSpec spec;
  spec.name = "bank-served";
  spec.train_size = 40;
  spec.test_size = 64;
  const TrainTestSplit data = GenerateDataset(spec);
  IpsOptions options;
  options.metric = metric;
  options.sample_count = 4;
  options.sample_size = 3;
  IpsClassifier discovered(options);
  discovered.Fit(data.train);
  const RunResult& run = discovered.result();

  IpsOptions dense_options = options;
  dense_options.enable_early_abandon = false;
  IpsClassifier dense(dense_options);
  dense.FitFromRunResult(data.train, run);
  const std::vector<int> want = dense.PredictBatch(data.test);
  const std::vector<std::vector<double>> want_rows =
      DenseRows(data.test, run.shapelets, metric);
  EXPECT_EQ(Rows(dense.bank(), data.test, 1), want_rows);

  std::vector<ShapeletBank::Route> routes;
  for (size_t threads : {1, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    IpsOptions threaded = options;
    threaded.num_threads = threads;
    IpsClassifier clf(threaded);
    clf.FitFromRunResult(data.train, run);
    if (routes.empty()) routes = Routes(clf.bank());
    EXPECT_EQ(Routes(clf.bank()), routes);
    EXPECT_EQ(Rows(clf.bank(), data.test, threads), want_rows);
    EXPECT_EQ(clf.PredictBatch(data.test), want);
    for (size_t i = 0; i < data.test.size(); ++i) {
      Dataset lone;
      lone.Add(data.test[i]);
      EXPECT_EQ(clf.PredictBatch(lone), std::vector<int>{want[i]}) << i;
      EXPECT_EQ(clf.Predict(data.test[i]), want[i]) << i;
      const std::span<const double> row =
          clf.bank().TransformOne(data.test[i].view());
      EXPECT_EQ(std::vector<double>(row.begin(), row.end()), want_rows[i])
          << i;
    }
  }
}

// Hand-cut shapelets covering the FFT regime (m >= kFftCutoff against long
// series), a series length the training set never had (no held FFT for
// its padded size), m == 1, and queries no longer than a shapelet (the
// roles swap): the training rows and later transforms stay bitwise equal
// to the serial kernel at every thread count.
TEST_P(ShapeletBankMetricTest, TrainingAndUnseenLengthsMatchDense) {
  const MetricId metric = GetParam();
  GeneratorSpec spec;
  spec.name = "bank-lengths";
  spec.train_size = 24;
  spec.test_size = 4;
  spec.length = 512;
  const Dataset train = GenerateDataset(spec).train;
  spec.length = 300;
  const Dataset other = GenerateDataset(spec).train;
  std::vector<Subsequence> shapelets;
  for (size_t len : {1, 9, 48, 80, 200, 300}) {
    shapelets.push_back(ExtractSubsequence(train[len % 5], len % 64, len));
  }
  Dataset queries = other;
  queries.Add(TimeSeries(std::vector<double>(train[0].values.begin(),
                                             train[0].values.begin() + 60),
                         0));
  const std::vector<std::vector<double>> want_train =
      DenseRows(train, shapelets, metric);
  const std::vector<std::vector<double>> want_queries =
      DenseRows(queries, shapelets, metric);
  for (size_t threads : {1, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const Fitted fit =
        Fit(shapelets, metric, train, /*early_abandon=*/true, threads);
    EXPECT_EQ(fit.rows, want_train);
    EXPECT_EQ(Rows(fit.bank, train, threads), want_train);
    EXPECT_EQ(Rows(fit.bank, queries, threads), want_queries);
    const std::span<const double> row =
        fit.bank.TransformOne(queries[queries.size() - 1].view());
    EXPECT_EQ(std::vector<double>(row.begin(), row.end()),
              want_queries.back());
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryMetric, ShapeletBankMetricTest,
    ::testing::Values(MetricId::kZNormEuclidean,
                      MetricId::kRawSquaredEuclidean, MetricId::kEuclidean,
                      MetricId::kCosine),
    [](const ::testing::TestParamInfo<MetricId>& info) {
      return std::string(MetricName(info.param));
    });

// Generator noise: windows of near-equal energy and no near-twins, where
// the cascade bails out -- every shapelet is routed dense, for every
// metric, and the rows still equal the serial kernel's.
TEST(ShapeletBankRouteTest, PruneHostileDataRoutesEveryShapeletDense) {
  GeneratorSpec spec;
  spec.name = "bank-prune-hostile";
  spec.train_size = 48;
  spec.test_size = 2;
  spec.length = 512;
  const Dataset train = GenerateDataset(spec).train;
  std::vector<Subsequence> shapelets;
  for (size_t i = 0; i < 16; ++i) {
    shapelets.push_back(ExtractSubsequence(train[i % train.size()],
                                           (29 * i) % 448, 48 + i));
  }
  for (size_t m = 0; m < kMetricCount; ++m) {
    const MetricId metric = static_cast<MetricId>(m);
    SCOPED_TRACE(MetricName(metric));
    const Fitted fit = Fit(shapelets, metric, train, /*early_abandon=*/true);
    EXPECT_EQ(Routes(fit.bank),
              std::vector<ShapeletBank::Route>(shapelets.size(),
                                               ShapeletBank::Route::kDense));
    EXPECT_EQ(fit.rows, DenseRows(train, shapelets, metric));
  }
}

// bench_eab's favourable regime: a shared ramped carrier, so every
// shapelet has a near-twin in every series and the window energies spread
// along it. The raw-metric cascade prunes there, so it keeps every
// shapelet.
TEST(ShapeletBankRouteTest, FavourableRawDataKeepsTheCascade) {
  constexpr double kTau = 6.283185307179586;
  constexpr size_t kLength = 512;
  Dataset train;
  for (size_t idx = 0; idx < 48; ++idx) {
    const int cls = static_cast<int>(idx % 2);
    std::vector<double> v(kLength);
    uint64_t rng = 0x9E3779B97F4A7C15ull ^ (idx * 2654435761ull + cls);
    for (size_t t = 0; t < kLength; ++t) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      const double noise =
          static_cast<double>(rng >> 11) / 9007199254740992.0 - 0.5;
      const double ramp = 0.5 + 2.5 * static_cast<double>(t) / kLength;
      v[t] = ramp * std::sin(kTau * static_cast<double>(t) / 64.0) +
             0.02 * noise;
    }
    const size_t pos = cls == 0 ? 96 : 288;
    for (size_t j = 0; j < 64; ++j) {
      const double x = static_cast<double>(j) / 64.0;
      v[pos + j] += 1.5 * std::sin(kTau * (4.0 * x * x + cls));
    }
    train.Add(TimeSeries(std::move(v), cls));
  }
  std::vector<Subsequence> shapelets;
  for (size_t i = 0; i < 16; ++i) {
    shapelets.push_back(
        ExtractSubsequence(train[i], 161 + (7 * i) % 64, 48 + i));
  }
  const Fitted fit = Fit(shapelets, MetricId::kRawSquaredEuclidean, train,
                         /*early_abandon=*/true);
  EXPECT_EQ(Routes(fit.bank),
            std::vector<ShapeletBank::Route>(shapelets.size(),
                                             ShapeletBank::Route::kCascade));
  const std::vector<std::vector<double>> want =
      DenseRows(train, shapelets, MetricId::kRawSquaredEuclidean);
  EXPECT_EQ(fit.rows, want);
  EXPECT_EQ(Rows(fit.bank, train, 1), want);

  // Cascade off routes dense without probing.
  const Fitted off = Fit(shapelets, MetricId::kRawSquaredEuclidean, train,
                         /*early_abandon=*/false);
  EXPECT_EQ(Routes(off.bank),
            std::vector<ShapeletBank::Route>(shapelets.size(),
                                             ShapeletBank::Route::kDense));
}

}  // namespace
}  // namespace ips
