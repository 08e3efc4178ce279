// ShapeletBank (transform/shapelet_bank.h): the fitted model's shapelet
// side. Its rows must be bitwise equal to the serial TransformSeries for
// every metric, thread count and SIMD backend, and a lone served series
// must get exactly the label it gets inside a batch.

#include "transform/shapelet_bank.h"

#include <cmath>
#include <cstdint>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "core/distance_engine.h"
#include "core/metric.h"
#include "data/generator.h"
#include "ips/pipeline.h"
#include "simd_backends.h"
#include "transform/shapelet_transform.h"

namespace ips {
namespace {

std::vector<std::vector<double>> SerialRows(
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

// A ramped sine, the same on every platform.
std::vector<double> Wave(size_t length, double phase) {
  std::vector<double> v(length);
  for (size_t t = 0; t < length; ++t) {
    const double x = static_cast<double>(t);
    v[t] = (0.5 + 1.5 * x / static_cast<double>(length)) *
           std::sin(0.37 * x + phase);
  }
  return v;
}

class ShapeletBankMetricTest : public ::testing::TestWithParam<MetricId> {};

// A lone series through PredictBatch (and Predict) gets the label it gets
// inside a 64-series batch, at every thread count, and the bank's rows
// equal the serial kernel's.
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
  const std::vector<int> want = discovered.PredictBatch(data.test);
  const std::vector<std::vector<double>> want_rows =
      SerialRows(data.test, run.shapelets, metric);
  EXPECT_EQ(Rows(discovered.bank(), data.test, 1), want_rows);

  for (size_t threads : {1, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    IpsOptions threaded = options;
    threaded.num_threads = threads;
    IpsClassifier clf(threaded);
    clf.FitFromRunResult(data.train, run);
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
      SerialRows(train, shapelets, metric);
  const std::vector<std::vector<double>> want_queries =
      SerialRows(queries, shapelets, metric);
  for (size_t threads : {1, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const ShapeletBank bank(shapelets, metric, train);
    EXPECT_EQ(Rows(bank, train, threads), want_train);
    EXPECT_EQ(Rows(bank, queries, threads), want_queries);
    const std::span<const double> row =
        bank.TransformOne(queries[queries.size() - 1].view());
    EXPECT_EQ(std::vector<double>(row.begin(), row.end()),
              want_queries.back());
  }
}

// Corner inputs of the min-alignment query: a flat (constant) query and a
// zero one against flat windows and a wholly flat series, an exact
// embedded match, m == 1, a query one shorter than the series and one as
// long (count == 1), and queries longer than the series (the operands
// swap). SubsequenceMinMetric, MinForPairs and the bank's rows all equal
// the serial SubsequenceDistanceMetric at 1, 2 and 8 threads, on every
// SIMD backend.
TEST_P(ShapeletBankMetricTest, CornerInputsMatchSerialOnEveryBackend) {
  const MetricId metric = GetParam();
  constexpr size_t kLength = 96;
  std::vector<double> plateau = Wave(kLength, 0.0);
  std::fill(plateau.begin() + 30, plateau.begin() + 50, 2.5);
  std::fill(plateau.begin() + 50, plateau.begin() + 64, 0.0);
  std::vector<double> embedded = Wave(kLength, 1.0);
  std::copy(plateau.begin() + 64, plateau.begin() + 84, embedded.begin() + 11);
  Dataset data;
  data.Add(TimeSeries(plateau, 0));
  data.Add(TimeSeries(embedded, 1));
  data.Add(TimeSeries(std::vector<double>(kLength, -1.5), 0));
  data.Add(TimeSeries(Wave(40, 2.0), 1));
  const std::vector<Subsequence> shapelets = {
      ExtractSubsequence(data[0], 32, 16),          // flat
      ExtractSubsequence(data[0], 50, 12),          // all zero
      ExtractSubsequence(data[0], 64, 20),          // embedded in data[1]
      ExtractSubsequence(data[1], 70, 1),           // m == 1
      ExtractSubsequence(data[1], 0, kLength - 1),  // near series length
      ExtractSubsequence(data[0], 0, kLength),      // count == 1
  };

  std::vector<std::span<const double>> views;
  for (const TimeSeries& t : data.series()) views.push_back(t.view());
  for (const Subsequence& s : shapelets) views.push_back(s.view());
  std::vector<IndexPair> pairs;
  std::vector<double> want_pairs;
  for (uint32_t i = 0; i < views.size(); ++i) {
    for (uint32_t j = 0; j < views.size(); ++j) {
      pairs.emplace_back(i, j);
      want_pairs.push_back(
          SubsequenceDistanceMetric(views[i], views[j], metric));
    }
  }
  const std::vector<std::vector<double>> want_rows =
      SerialRows(data, shapelets, metric);

  ForEachSimdBackend([&] {
    for (size_t threads : {1, 2, 8}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      DistanceEngine engine(threads);
      for (size_t t = 0; t < pairs.size(); ++t) {
        EXPECT_EQ(engine.SubsequenceMinMetric(views[pairs[t].first],
                                              views[pairs[t].second], metric),
                  want_pairs[t])
            << pairs[t].first << "," << pairs[t].second;
      }
      EXPECT_EQ(engine.MinForPairs(views, pairs, metric), want_pairs);
      const ShapeletBank bank(shapelets, metric, data);
      EXPECT_EQ(Rows(bank, data, threads), want_rows);
      for (size_t i = 0; i < data.size(); ++i) {
        const std::span<const double> row = bank.TransformOne(data[i].view());
        EXPECT_EQ(std::vector<double>(row.begin(), row.end()), want_rows[i])
            << i;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    EveryMetric, ShapeletBankMetricTest,
    ::testing::Values(MetricId::kZNormEuclidean,
                      MetricId::kRawSquaredEuclidean, MetricId::kEuclidean,
                      MetricId::kCosine),
    [](const ::testing::TestParamInfo<MetricId>& info) {
      return std::string(MetricName(info.param));
    });

}  // namespace
}  // namespace ips
