#include "data/generator.h"

#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "bench/generator_checksum.h"
#include "classify/nn.h"
#include "data/ucr_catalog.h"
#include "multivariate/mv_generator.h"

namespace ips {
namespace {

GeneratorSpec BasicSpec() {
  GeneratorSpec spec;
  spec.name = "gentest";
  spec.num_classes = 3;
  spec.train_size = 15;
  spec.test_size = 30;
  spec.length = 96;
  return spec;
}

TEST(GeneratorTest, SizesAndLengthsMatchSpec) {
  const TrainTestSplit split = GenerateDataset(BasicSpec());
  EXPECT_EQ(split.train.size(), 15u);
  EXPECT_EQ(split.test.size(), 30u);
  for (size_t i = 0; i < split.train.size(); ++i) {
    EXPECT_EQ(split.train[i].length(), 96u);
  }
}

TEST(GeneratorTest, AllClassesPresent) {
  const TrainTestSplit split = GenerateDataset(BasicSpec());
  std::set<int> train_labels, test_labels;
  for (size_t i = 0; i < split.train.size(); ++i) {
    train_labels.insert(split.train[i].label);
  }
  for (size_t i = 0; i < split.test.size(); ++i) {
    test_labels.insert(split.test[i].label);
  }
  EXPECT_EQ(train_labels.size(), 3u);
  EXPECT_EQ(test_labels.size(), 3u);
}

TEST(GeneratorTest, DeterministicForSameSpec) {
  const TrainTestSplit a = GenerateDataset(BasicSpec());
  const TrainTestSplit b = GenerateDataset(BasicSpec());
  ASSERT_EQ(a.train.size(), b.train.size());
  for (size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train[i].values, b.train[i].values);
  }
}

TEST(GeneratorTest, DifferentNamesGiveDifferentData) {
  GeneratorSpec other = BasicSpec();
  other.name = "different";
  const TrainTestSplit a = GenerateDataset(BasicSpec());
  const TrainTestSplit b = GenerateDataset(other);
  EXPECT_NE(a.train[0].values, b.train[0].values);
}

TEST(GeneratorTest, ClassesAreLearnable) {
  // The planted class structure must be recoverable by a simple 1NN -- the
  // property every downstream experiment relies on.
  GeneratorSpec spec = BasicSpec();
  spec.num_classes = 2;
  spec.train_size = 20;
  spec.test_size = 40;
  const TrainTestSplit split = GenerateDataset(spec);
  OneNnEd clf;
  clf.Fit(split.train);
  EXPECT_GT(clf.Accuracy(split.test), 0.6);
}

TEST(GeneratorTest, NoiseKnobIncreasesDifficulty) {
  GeneratorSpec easy = BasicSpec();
  easy.num_classes = 2;
  easy.train_size = 20;
  easy.test_size = 60;
  easy.noise = 0.05;
  GeneratorSpec hard = easy;
  hard.noise = 3.0;

  OneNnEd clf_easy, clf_hard;
  const TrainTestSplit easy_split = GenerateDataset(easy);
  const TrainTestSplit hard_split = GenerateDataset(hard);
  clf_easy.Fit(easy_split.train);
  clf_hard.Fit(hard_split.train);
  EXPECT_GE(clf_easy.Accuracy(easy_split.test),
            clf_hard.Accuracy(hard_split.test));
}

TEST(SpecFromCatalogTest, CopiesShapeParameters) {
  UcrDatasetInfo info;
  info.name = "Foo";
  info.num_classes = 4;
  info.train_size = 100;
  info.test_size = 200;
  info.length = 300;
  const GeneratorSpec spec = SpecFromCatalog(info);
  EXPECT_EQ(spec.name, "Foo");
  EXPECT_EQ(spec.num_classes, 4);
  EXPECT_EQ(spec.train_size, 100u);
  EXPECT_EQ(spec.test_size, 200u);
  EXPECT_EQ(spec.length, 300u);
}

TEST(ItalyPowerLikeTest, TwoClass24HourCurves) {
  const TrainTestSplit split = GenerateItalyPowerLike(20, 40);
  EXPECT_EQ(split.train.size(), 20u);
  EXPECT_EQ(split.test.size(), 40u);
  for (size_t i = 0; i < split.train.size(); ++i) {
    EXPECT_EQ(split.train[i].length(), 24u);
    EXPECT_TRUE(split.train[i].label == 0 || split.train[i].label == 1);
  }
}

TEST(ItalyPowerLikeTest, WinterHasHigherMorningLoad) {
  const TrainTestSplit split = GenerateItalyPowerLike(40, 0);
  double summer_morning = 0.0, winter_morning = 0.0;
  size_t summer_n = 0, winter_n = 0;
  for (size_t i = 0; i < split.train.size(); ++i) {
    const TimeSeries& day = split.train[i];
    double morning = 0.0;
    for (size_t h = 6; h <= 10; ++h) morning += day[h];
    if (day.label == 0) {
      summer_morning += morning;
      ++summer_n;
    } else {
      winter_morning += morning;
      ++winter_n;
    }
  }
  EXPECT_GT(winter_morning / static_cast<double>(winter_n),
            summer_morning / static_cast<double>(summer_n) + 0.5);
}

// Golden streams: each checksum (labels plus the bits of every value) was
// recorded with the libstdc++ std::mt19937_64 / std::normal_distribution
// implementation the Rng stream reproduces. A change here changes every
// experiment's data.

TEST(GeneratorGoldenTest, PerfbenchShapedSpecs) {
  for (const bench::GoldenSpec& golden : bench::PerfbenchShapedSpecs()) {
    EXPECT_EQ(bench::SplitChecksum(GenerateDataset(golden.spec)),
              golden.checksum)
        << golden.spec.name;
  }
}

TEST(GeneratorGoldenTest, CatalogueSpecs) {
  const std::pair<const char*, uint64_t> cases[] = {
      {"Coffee", 0xc8ea8daff416098aULL},
      {"ECG200", 0x5e7a9be596279088ULL},
      {"ShapeletSim", 0xa9356c5adc82d1beULL},
  };
  for (const auto& [name, checksum] : cases) {
    const std::optional<UcrDatasetInfo> info = FindUcrDataset(name);
    ASSERT_TRUE(info.has_value()) << name;
    EXPECT_EQ(bench::SplitChecksum(GenerateDataset(SpecFromCatalog(*info))),
              checksum)
        << name;
  }
}

TEST(GeneratorGoldenTest, ItalyPowerLike) {
  EXPECT_EQ(bench::SplitChecksum(GenerateItalyPowerLike(67, 1029, 99)),
            0xae40a92ba9f15fdcULL);
}

TEST(GeneratorGoldenTest, Multivariate) {
  MvGeneratorSpec spec;
  spec.num_classes = 3;
  spec.num_channels = 3;
  spec.informative_channels = 1;
  EXPECT_EQ(bench::SplitChecksum(GenerateMultivariateDataset(spec)),
            0xe05721f7bfaa2106ULL);
}

}  // namespace
}  // namespace ips
