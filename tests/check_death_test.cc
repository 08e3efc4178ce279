// Contract tests: IPS_CHECK preconditions must abort (not corrupt) on
// violated contracts. Uses gtest death tests.

#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/resample.h"
#include "core/rng.h"
#include "core/time_series.h"
#include "core/znorm.h"
#include "data/generator.h"
#include "ips/pipeline.h"
#include "matrix_profile/matrix_profile.h"
#include "stats/histogram.h"
#include "util/check.h"

namespace ips {
namespace {

using CheckDeathTest = ::testing::Test;

TEST(CheckDeathTest, CheckMacroAborts) {
  EXPECT_DEATH(IPS_CHECK(1 == 2), "IPS_CHECK failed");
  EXPECT_DEATH(IPS_CHECK_MSG(false, "context message"), "context message");
}

TEST(CheckDeathTest, MeanOfEmptyInput) {
  const std::vector<double> empty;
  EXPECT_DEATH(Mean(empty), "IPS_CHECK failed");
}

TEST(CheckDeathTest, RollingStatsWindowLargerThanInput) {
  const std::vector<double> x = {1.0, 2.0};
  EXPECT_DEATH(ComputeRollingStats(x, 3), "IPS_CHECK failed");
}

TEST(CheckDeathTest, ResampleEmptyInput) {
  const std::vector<double> empty;
  EXPECT_DEATH(ResampleToDim(empty, 4), "IPS_CHECK failed");
}

TEST(CheckDeathTest, SelfJoinWindowTooLarge) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  EXPECT_DEATH(SelfJoinProfile(x, 3), "IPS_CHECK failed");
}

TEST(CheckDeathTest, HistogramEmptyData) {
  const std::vector<double> empty;
  EXPECT_DEATH(Histogram(empty, 4), "IPS_CHECK failed");
}

TEST(CheckDeathTest, RngSampleTooLarge) {
  Rng rng(1);
  EXPECT_DEATH(rng.SampleWithoutReplacement(3, 5), "IPS_CHECK failed");
}

TEST(CheckDeathTest, ExtractSubsequenceOutOfRange) {
  const TimeSeries t({1.0, 2.0, 3.0}, 0);
  EXPECT_DEATH(ExtractSubsequence(t, 2, 5), "IPS_CHECK failed");
}

// The IPS classifier fails closed on NaN and infinities: every entry point
// aborts naming the series and the value position instead of returning a
// label.

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TrainTestSplit ClassifierData() {
  GeneratorSpec spec;
  spec.name = "non_finite";
  spec.num_classes = 2;
  spec.train_size = 12;
  spec.test_size = 6;
  spec.length = 64;
  return GenerateDataset(spec);
}

IpsOptions ClassifierOptions() {
  IpsOptions options;
  options.shapelets_per_class = 2;
  options.num_threads = 1;
  return options;
}

Dataset WithValue(const Dataset& data, size_t series, size_t position,
                  double value) {
  std::vector<TimeSeries> copy = data.series();
  copy[series].values[position] = value;
  return Dataset(std::move(copy));
}

TEST(CheckDeathTest, ClassifierFitRejectsNonFiniteTraining) {
  const TrainTestSplit data = ClassifierData();
  EXPECT_DEATH(IpsClassifier(ClassifierOptions())
                   .Fit(WithValue(data.train, 3, 17, kNaN)),
               "series 3: non-finite value at position 17");
  EXPECT_DEATH(IpsClassifier(ClassifierOptions())
                   .Fit(WithValue(data.train, 0, 63, -kInf)),
               "series 0: non-finite value at position 63");
  // The check runs before discovery: with a sample count that candidate
  // generation aborts on, the non-finite value is still what is reported,
  // through Fit and through the discovery entry point.
  IpsOptions no_samples = ClassifierOptions();
  no_samples.sample_count = 0;
  EXPECT_DEATH(
      IpsClassifier(no_samples).Fit(WithValue(data.train, 3, 17, kNaN)),
      "series 3: non-finite value at position 17");
  EXPECT_DEATH(
      DiscoverShapelets(WithValue(data.train, 0, 63, -kInf), no_samples),
      "series 0: non-finite value at position 63");
  EXPECT_DEATH(DiscoverShapelets(data.train, no_samples), "sample_count");
}

TEST(CheckDeathTest, ClassifierFitFromRunResultRejectsNonFiniteTraining) {
  const TrainTestSplit data = ClassifierData();
  IpsClassifier fitted(ClassifierOptions());
  fitted.Fit(data.train);
  EXPECT_DEATH(IpsClassifier(ClassifierOptions())
                   .FitFromRunResult(WithValue(data.train, 5, 0, kInf),
                                     fitted.result()),
               "series 5: non-finite value at position 0");
}

TEST(CheckDeathTest, ClassifierPredictRejectsNonFiniteSeries) {
  const TrainTestSplit data = ClassifierData();
  IpsClassifier fitted(ClassifierOptions());
  fitted.Fit(data.train);
  TimeSeries query = data.test[1];
  query.values[40] = kNaN;
  EXPECT_DEATH(fitted.Predict(query),
               "series 0: non-finite value at position 40");
  EXPECT_DEATH(fitted.PredictBatch(WithValue(data.test, 2, 9, kInf)),
               "series 2: non-finite value at position 9");
}

}  // namespace
}  // namespace ips
