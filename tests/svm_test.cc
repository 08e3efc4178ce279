#include "classify/svm.h"

#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "obs/metrics.h"

namespace ips {
namespace {

LabeledMatrix LinearlySeparable2D(size_t per_class, Rng& rng) {
  LabeledMatrix data;
  for (size_t i = 0; i < per_class; ++i) {
    data.x.push_back({rng.Gaussian(2.0, 0.5), rng.Gaussian(2.0, 0.5)});
    data.y.push_back(0);
    data.x.push_back({rng.Gaussian(-2.0, 0.5), rng.Gaussian(-2.0, 0.5)});
    data.y.push_back(1);
  }
  return data;
}

TEST(LinearSvmTest, SeparatesLinearlySeparableData) {
  Rng rng(1);
  const LabeledMatrix data = LinearlySeparable2D(50, rng);
  LinearSvm svm;
  svm.Fit(data);
  EXPECT_GE(svm.Accuracy(data), 0.98);
}

TEST(LinearSvmTest, GeneralizesToFreshDraws) {
  Rng rng(2);
  const LabeledMatrix train = LinearlySeparable2D(40, rng);
  const LabeledMatrix test = LinearlySeparable2D(40, rng);
  LinearSvm svm;
  svm.Fit(train);
  EXPECT_GE(svm.Accuracy(test), 0.95);
}

TEST(LinearSvmTest, MulticlassOneVsRest) {
  Rng rng(3);
  LabeledMatrix data;
  const std::vector<std::pair<double, double>> centers = {
      {3.0, 0.0}, {-3.0, 0.0}, {0.0, 3.0}};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 40; ++i) {
      data.x.push_back({rng.Gaussian(centers[c].first, 0.4),
                        rng.Gaussian(centers[c].second, 0.4)});
      data.y.push_back(c);
    }
  }
  LinearSvm svm;
  svm.Fit(data);
  EXPECT_EQ(svm.num_classes(), 3);
  EXPECT_GE(svm.Accuracy(data), 0.95);
}

TEST(LinearSvmTest, BiasTermLearned) {
  // Classes separated by a hyperplane far from the origin -- fails without
  // a bias term.
  Rng rng(4);
  LabeledMatrix data;
  for (int i = 0; i < 60; ++i) {
    data.x.push_back({rng.Gaussian(10.0, 0.3)});
    data.y.push_back(0);
    data.x.push_back({rng.Gaussian(12.0, 0.3)});
    data.y.push_back(1);
  }
  LinearSvm svm;
  svm.Fit(data);
  EXPECT_GE(svm.Accuracy(data), 0.95);
}

TEST(LinearSvmTest, StandardizationHandlesScaleMismatch) {
  // One informative low-scale feature + one noisy high-scale feature.
  Rng rng(5);
  LabeledMatrix data;
  for (int i = 0; i < 80; ++i) {
    const int label = i % 2;
    const double informative = label == 0 ? 0.01 : -0.01;
    data.x.push_back({informative + rng.Gaussian(0.0, 0.002),
                      rng.Gaussian(0.0, 1000.0)});
    data.y.push_back(label);
  }
  LinearSvm svm;
  svm.Fit(data);
  EXPECT_GE(svm.Accuracy(data), 0.9);
}

TEST(LinearSvmTest, ConstantFeatureDoesNotCrash) {
  LabeledMatrix data;
  data.x = {{1.0, 5.0}, {2.0, 5.0}, {3.0, 5.0}, {4.0, 5.0}};
  data.y = {0, 0, 1, 1};
  LinearSvm svm;
  svm.Fit(data);
  EXPECT_GE(svm.Accuracy(data), 0.75);
}

TEST(LinearSvmTest, SingleClassAlwaysPredictsIt) {
  LabeledMatrix data;
  data.x = {{1.0}, {2.0}, {3.0}};
  data.y = {0, 0, 0};
  LinearSvm svm;
  svm.Fit(data);
  EXPECT_EQ(svm.Predict(std::vector<double>{9.0}), 0);
}

TEST(LinearSvmTest, DecisionValueSignMatchesPrediction) {
  Rng rng(6);
  const LabeledMatrix data = LinearlySeparable2D(30, rng);
  LinearSvm svm;
  svm.Fit(data);
  for (size_t i = 0; i < data.size(); ++i) {
    const int predicted = svm.Predict(data.x[i]);
    const double own = svm.DecisionValue(data.x[i], predicted);
    const double other = svm.DecisionValue(data.x[i], 1 - predicted);
    EXPECT_GE(own, other);
  }
}

// Four overlapping Gaussian classes in 3-D: no hyperplane separates them,
// so many alphas end strictly inside (0, C) and the solve has work to do.
LabeledMatrix OverlappingFourClass(size_t per_class, Rng& rng) {
  const std::vector<std::vector<double>> centers = {
      {1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}, {1.0, 1.0, 1.0}};
  LabeledMatrix data;
  for (size_t i = 0; i < per_class; ++i) {
    for (int c = 0; c < 4; ++c) {
      std::vector<double> row;
      for (double mean : centers[static_cast<size_t>(c)]) {
        row.push_back(rng.Gaussian(mean, 0.6));
      }
      data.x.push_back(row);
      data.y.push_back(c);
    }
  }
  return data;
}

uint64_t SvmPasses() {
  return obs::MetricsRegistry::Instance()
      .GetCounter("classify.svm.passes")
      .Value();
}

TEST(LinearSvmTest, DefaultStopAgreesWithTightSolve) {
  Rng rng(8);
  const LabeledMatrix train = OverlappingFourClass(150, rng);
  const LabeledMatrix test = OverlappingFourClass(250, rng);
  LinearSvm fast;
  fast.Fit(train);
  SvmOptions tight_options;
  tight_options.tolerance = 1e-3;
  tight_options.max_passes = 20000;
  LinearSvm tight(tight_options);
  tight.Fit(train);

  size_t agree = 0;
  for (const auto& row : test.x) {
    if (fast.Predict(row) == tight.Predict(row)) ++agree;
  }
  EXPECT_GE(static_cast<double>(agree),
            0.99 * static_cast<double>(test.size()));
  EXPECT_NEAR(fast.Accuracy(test), tight.Accuracy(test), 0.01);
  // The set overlaps: a trivial model would not reach this.
  EXPECT_GE(tight.Accuracy(test), 0.5);
}

TEST(LinearSvmTest, RepeatedFitsAreBitwiseEqual) {
  Rng rng(9);
  const LabeledMatrix data = OverlappingFourClass(60, rng);
  LinearSvm a;
  LinearSvm b;
  a.Fit(data);
  b.Fit(data);
  for (const auto& row : data.x) {
    for (int c = 0; c < a.num_classes(); ++c) {
      EXPECT_EQ(a.DecisionValue(row, c), b.DecisionValue(row, c));
    }
  }
}

TEST(LinearSvmTest, SeparableDataStopsBeforeThePassCap) {
  Rng rng(10);
  const LabeledMatrix data = LinearlySeparable2D(50, rng);
  LinearSvm svm;
  const uint64_t before = SvmPasses();
  svm.Fit(data);
  const uint64_t passes = SvmPasses() - before;
  EXPECT_GE(passes, 2u);  // at least one pass per one-vs-rest problem
  EXPECT_LT(passes, 2 * SvmOptions{}.max_passes);
  EXPECT_GE(svm.Accuracy(data), 0.98);
}

TEST(LinearSvmTest, PassCapHolds) {
  Rng rng(11);
  const LabeledMatrix data = OverlappingFourClass(60, rng);
  SvmOptions o;
  o.max_passes = 3;
  LinearSvm svm(o);
  const uint64_t before = SvmPasses();
  svm.Fit(data);
  EXPECT_LE(SvmPasses() - before, 3u * 4u);
  // Three passes already give a usable model.
  EXPECT_GE(svm.Accuracy(data), 0.4);
}

// Decision value of `label` by the model's formula, computed on its own: a
// fresh standardised vector with the bias feature 1.0 appended, then one
// increasing-index dot product. Predict and DecisionValue must match it
// bitwise.
double ReferenceDecisionValue(const LinearSvm& svm,
                              const std::vector<double>& features,
                              int label) {
  std::vector<double> xs(features.size() + 1);
  for (size_t j = 0; j < features.size(); ++j) {
    xs[j] = (features[j] - svm.feature_means()[j]) / svm.feature_stds()[j];
  }
  xs[features.size()] = 1.0;
  const std::vector<double>& w = svm.weights(label);
  double s = 0.0;
  for (size_t j = 0; j < xs.size(); ++j) s += w[j] * xs[j];
  return s;
}

int ReferencePredict(const LinearSvm& svm,
                     const std::vector<double>& features) {
  int best = 0;
  double best_value = -1e300;
  for (int c = 0; c < svm.num_classes(); ++c) {
    const double s = ReferenceDecisionValue(svm, features, c);
    if (s > best_value) {
      best_value = s;
      best = c;
    }
  }
  return best;
}

TEST(LinearSvmTest, PredictAndDecisionValueMatchReferenceBitwise) {
  Rng rng(12);
  LinearSvm svm;
  svm.Fit(OverlappingFourClass(60, rng));
  ASSERT_EQ(svm.num_classes(), 4);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 400; ++i) {
    // Mostly near the training data, some far outside its scale.
    const double scale = i % 5 == 0 ? 1e6 : 2.0;
    rows.push_back({rng.Gaussian(0.5, scale), rng.Gaussian(0.5, scale),
                    rng.Gaussian(0.5, scale)});
  }
  // Four threads at once: each standardises into its own scratch.
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&, t] {
      for (const std::vector<double>& x : rows) {
        if (svm.Predict(x) != ReferencePredict(svm, x)) ++mismatches[t];
        for (int c = 0; c < svm.num_classes(); ++c) {
          if (std::bit_cast<uint64_t>(svm.DecisionValue(x, c)) !=
              std::bit_cast<uint64_t>(ReferenceDecisionValue(svm, x, c))) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int m : mismatches) EXPECT_EQ(m, 0);
}

TEST(LabeledMatrixTest, NumClasses) {
  LabeledMatrix data;
  data.x = {{0.0}, {0.0}};
  data.y = {0, 4};
  EXPECT_EQ(data.NumClasses(), 5);
}

class SvmCostSweep : public ::testing::TestWithParam<double> {};

TEST_P(SvmCostSweep, ConvergesAcrossCostValues) {
  Rng rng(7);
  const LabeledMatrix data = LinearlySeparable2D(40, rng);
  SvmOptions o;
  o.c = GetParam();
  LinearSvm svm(o);
  svm.Fit(data);
  EXPECT_GE(svm.Accuracy(data), 0.9);
}

INSTANTIATE_TEST_SUITE_P(Costs, SvmCostSweep,
                         ::testing::Values(0.01, 0.1, 1.0, 10.0, 100.0));

}  // namespace
}  // namespace ips
