#include "data/ucr_loader.h"

#include <cstdio>

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace ips {
namespace {

class UcrLoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ips_ucr_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_ / "Demo");
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  void WriteFile(const std::string& rel, const std::string& content) {
    std::ofstream out(dir_ / rel);
    out << content;
  }

  std::filesystem::path dir_;
};

TEST_F(UcrLoaderTest, LoadsTabSeparatedSplit) {
  WriteFile("Demo/Demo_TRAIN.tsv",
            "1\t0.1\t0.2\t0.3\n2\t1.0\t1.1\t1.2\n1\t0.0\t0.1\t0.2\n");
  WriteFile("Demo/Demo_TEST.tsv", "2\t1.5\t1.6\t1.7\n1\t0.3\t0.2\t0.1\n");
  const auto split = LoadUcrDataset(dir_.string(), "Demo");
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->train.size(), 3u);
  EXPECT_EQ(split->test.size(), 2u);
  // Labels remapped densely: raw 1 -> 0, raw 2 -> 1.
  EXPECT_EQ(split->train[0].label, 0);
  EXPECT_EQ(split->train[1].label, 1);
  EXPECT_EQ(split->train[0].values, (std::vector<double>{0.1, 0.2, 0.3}));
}

TEST_F(UcrLoaderTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(LoadUcrDataset(dir_.string(), "Nope").has_value());
}

TEST_F(UcrLoaderTest, MissingTestFileReturnsNullopt) {
  WriteFile("Demo/Demo_TRAIN.tsv", "1\t0.1\t0.2\n");
  EXPECT_FALSE(LoadUcrDataset(dir_.string(), "Demo").has_value());
}

TEST_F(UcrLoaderTest, CommaSeparatedAccepted) {
  WriteFile("Demo/Demo_TRAIN.tsv", "0,1.0,2.0\n1,3.0,4.0\n");
  WriteFile("Demo/Demo_TEST.tsv", "0,1.0,2.0\n");
  const auto split = LoadUcrDataset(dir_.string(), "Demo");
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->train[0].values, (std::vector<double>{1.0, 2.0}));
}

TEST_F(UcrLoaderTest, TrailingNanPaddingTrimmed) {
  WriteFile("Demo/Demo_TRAIN.tsv", "0\t1.0\t2.0\tNaN\tNaN\n1\t3.0\t4.0\t5.0\tNaN\n");
  WriteFile("Demo/Demo_TEST.tsv", "0\t1.0\t2.0\n");
  const auto split = LoadUcrDataset(dir_.string(), "Demo");
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->train[0].length(), 2u);
  EXPECT_EQ(split->train[1].length(), 3u);
}

TEST_F(UcrLoaderTest, NegativeAndScientificValuesParsed) {
  WriteFile("Demo/Demo_TRAIN.tsv", "-1\t-0.5\t1e-3\t2.5E2\n1\t0\t0\t0\n");
  WriteFile("Demo/Demo_TEST.tsv", "-1\t1\t2\t3\n");
  const auto split = LoadUcrDataset(dir_.string(), "Demo");
  ASSERT_TRUE(split.has_value());
  EXPECT_DOUBLE_EQ(split->train[0].values[1], 1e-3);
  EXPECT_DOUBLE_EQ(split->train[0].values[2], 250.0);
}

TEST_F(UcrLoaderTest, GarbageLineFailsCleanly) {
  WriteFile("Demo/Demo_TRAIN.tsv", "1\tnot_a_number\t2.0\n");
  WriteFile("Demo/Demo_TEST.tsv", "1\t1.0\t2.0\n");
  EXPECT_FALSE(LoadUcrDataset(dir_.string(), "Demo").has_value());
}

// Only trailing NaN padding is trimmed: an interior NaN, an infinity or a
// NaN label fails the load as a garbage line does.
TEST_F(UcrLoaderTest, InteriorNanFailsCleanly) {
  WriteFile("Demo/Demo_TRAIN.tsv", "0\t1.0\tNaN\t2.0\n1\t3.0\t4.0\t5.0\n");
  WriteFile("Demo/Demo_TEST.tsv", "0\t1.0\t2.0\t3.0\n");
  EXPECT_FALSE(LoadUcrDataset(dir_.string(), "Demo").has_value());
}

TEST_F(UcrLoaderTest, InfinitiesFailCleanly) {
  WriteFile("inf.tsv", "0\t1.0\tinf\t2.0\n");
  EXPECT_FALSE(LoadUcrFile((dir_ / "inf.tsv").string()).has_value());
  WriteFile("neg_inf.tsv", "0\t1.0\t2.0\t-Infinity\n");
  EXPECT_FALSE(LoadUcrFile((dir_ / "neg_inf.tsv").string()).has_value());
  WriteFile("inf_label.tsv", "inf\t1.0\t2.0\n");
  EXPECT_FALSE(LoadUcrFile((dir_ / "inf_label.tsv").string()).has_value());
}

TEST_F(UcrLoaderTest, NanLabelFailsCleanly) {
  WriteFile("nan_label.tsv", "0\t1.0\t2.0\nNaN\t3.0\t4.0\n1\t5.0\t6.0\n");
  EXPECT_FALSE(LoadUcrFile((dir_ / "nan_label.tsv").string()).has_value());
  WriteFile("all_nan.tsv", "nan\tNaN\tNaN\n");
  EXPECT_FALSE(LoadUcrFile((dir_ / "all_nan.tsv").string()).has_value());
}

TEST_F(UcrLoaderTest, EmptyLinesSkipped) {
  WriteFile("Demo/Demo_TRAIN.tsv", "0\t1.0\t2.0\n\n1\t3.0\t4.0\n\n");
  WriteFile("Demo/Demo_TEST.tsv", "0\t1.0\t2.0\n");
  const auto split = LoadUcrDataset(dir_.string(), "Demo");
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->train.size(), 2u);
}

TEST_F(UcrLoaderTest, LoadUcrFileDirectly) {
  WriteFile("single.tsv", "5\t1.0\t2.0\n7\t3.0\t4.0\n5\t5.0\t6.0\n");
  const auto data = LoadUcrFile((dir_ / "single.tsv").string());
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->size(), 3u);
  EXPECT_EQ(data->NumClasses(), 2);
  EXPECT_EQ((*data)[0].label, (*data)[2].label);
}

}  // namespace
}  // namespace ips
