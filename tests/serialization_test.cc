#include "ips/serialization.h"

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "ips/pipeline.h"

namespace ips {
namespace {

std::vector<Subsequence> SampleShapelets() {
  std::vector<Subsequence> out;
  Subsequence a;
  a.values = {1.5, -2.25, 0.0, 1e-17, 3.141592653589793};
  a.label = 0;
  a.series_index = 7;
  a.start = 12;
  out.push_back(a);
  Subsequence b;
  b.values = {-1.0};
  b.label = 3;
  b.series_index = -1;  // learned shapelet, no provenance
  b.start = 0;
  out.push_back(b);
  return out;
}

TEST(SerializationTest, RoundTripIsExact) {
  const auto original = SampleShapelets();
  const std::string text = SerializeShapelets(original);
  const auto restored = DeserializeShapelets(text);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*restored)[i].values, original[i].values);  // bit-exact
    EXPECT_EQ((*restored)[i].label, original[i].label);
    EXPECT_EQ((*restored)[i].series_index, original[i].series_index);
    EXPECT_EQ((*restored)[i].start, original[i].start);
  }
}

TEST(SerializationTest, EmptySetRoundTrips) {
  const auto restored = DeserializeShapelets(SerializeShapelets({}));
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->empty());
}

TEST(SerializationTest, RejectsWrongMagic) {
  EXPECT_FALSE(DeserializeShapelets("not-a-shapelet-file\n0\n").has_value());
  EXPECT_FALSE(DeserializeShapelets("").has_value());
}

TEST(SerializationTest, RejectsTruncatedInput) {
  std::string text = SerializeShapelets(SampleShapelets());
  text.resize(text.size() / 2);
  EXPECT_FALSE(DeserializeShapelets(text).has_value());
}

TEST(SerializationTest, RejectsCountMismatch) {
  // Claim 5 shapelets but provide 2.
  std::string text = SerializeShapelets(SampleShapelets());
  const size_t pos = text.find("\n2\n");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 3, "\n5\n");
  EXPECT_FALSE(DeserializeShapelets(text).has_value());
}

TEST(SerializationTest, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("ips_ser_" + std::to_string(::getpid()) + ".txt");
  const auto original = SampleShapelets();
  ASSERT_TRUE(SaveShapelets(original, path.string()));
  const auto restored = LoadShapelets(path.string());
  std::filesystem::remove(path);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->size(), original.size());
  EXPECT_EQ((*restored)[0].values, original[0].values);
}

TEST(SerializationTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(LoadShapelets("/nonexistent/path/shapelets.txt").has_value());
}

TEST(SerializationTest, DiscoveredShapeletsSurviveRoundTrip) {
  GeneratorSpec spec;
  spec.name = "sertest";
  spec.num_classes = 2;
  spec.train_size = 10;
  spec.test_size = 2;
  spec.length = 64;
  const Dataset train = GenerateDataset(spec).train;
  IpsOptions options;
  options.sample_count = 3;
  options.length_ratios = {0.2};
  const auto discovered = DiscoverShapelets(train, options).shapelets;
  const auto restored =
      DeserializeShapelets(SerializeShapelets(discovered));
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), discovered.size());
  for (size_t i = 0; i < discovered.size(); ++i) {
    EXPECT_EQ((*restored)[i].values, discovered[i].values);
  }
}

// ---------------------------------------------------------------------------
// Run artifact (ips-run v2): shapelets + stats + trace in one file.

IpsRunStats SampleStats() {
  IpsRunStats s;
  s.candidate_gen_seconds = 1.25;
  s.dabf_build_seconds = 0.5;
  s.pruning_seconds = 0.125;
  s.selection_seconds = 2.0;
  s.transform_seconds = 0.75;
  s.backend_fit_seconds = 0.0625;
  s.profile_seconds = 1.0;
  s.motifs_generated = 100;
  s.discords_generated = 90;
  s.motifs_after_prune = 40;
  s.discords_after_prune = 30;
  s.shapelets = 6;
  s.profiles_computed = 12345;
  s.mp_joins_computed = 222;
  s.mp_qt_sweeps = 111;
  s.mp_joins_halved = 55;
  s.pool_regions = 17;
  s.pool_inline_regions = 3;
  s.pool_tasks_run = 5000;
  s.pool_steals = 21;
  return s;
}

void ExpectStatsEqual(const IpsRunStats& a, const IpsRunStats& b) {
  EXPECT_EQ(a.candidate_gen_seconds, b.candidate_gen_seconds);
  EXPECT_EQ(a.dabf_build_seconds, b.dabf_build_seconds);
  EXPECT_EQ(a.pruning_seconds, b.pruning_seconds);
  EXPECT_EQ(a.selection_seconds, b.selection_seconds);
  EXPECT_EQ(a.transform_seconds, b.transform_seconds);
  EXPECT_EQ(a.backend_fit_seconds, b.backend_fit_seconds);
  EXPECT_EQ(a.profile_seconds, b.profile_seconds);
  EXPECT_EQ(a.motifs_generated, b.motifs_generated);
  EXPECT_EQ(a.discords_generated, b.discords_generated);
  EXPECT_EQ(a.motifs_after_prune, b.motifs_after_prune);
  EXPECT_EQ(a.discords_after_prune, b.discords_after_prune);
  EXPECT_EQ(a.shapelets, b.shapelets);
  EXPECT_EQ(a.profiles_computed, b.profiles_computed);
  EXPECT_EQ(a.mp_joins_computed, b.mp_joins_computed);
  EXPECT_EQ(a.mp_qt_sweeps, b.mp_qt_sweeps);
  EXPECT_EQ(a.mp_joins_halved, b.mp_joins_halved);
  EXPECT_EQ(a.pool_regions, b.pool_regions);
  EXPECT_EQ(a.pool_inline_regions, b.pool_inline_regions);
  EXPECT_EQ(a.pool_tasks_run, b.pool_tasks_run);
  EXPECT_EQ(a.pool_steals, b.pool_steals);
}

TEST(RunSerializationTest, StatsJsonRoundTripsEveryField) {
  const IpsRunStats original = SampleStats();
  const auto restored = RunStatsFromJson(RunStatsToJson(original));
  ASSERT_TRUE(restored.has_value());
  ExpectStatsEqual(*restored, original);
}

TEST(RunSerializationTest, StatsJsonRejectsMissingField) {
  obs::JsonValue json = RunStatsToJson(SampleStats());
  obs::JsonValue pruned = obs::JsonValue::Object();
  for (const auto& [key, value] : json.members()) {
    if (key != "motifs_generated") pruned.Set(key, value);
  }
  EXPECT_FALSE(RunStatsFromJson(pruned).has_value());
}

TEST(RunSerializationTest, RunResultRoundTripIsExact) {
  RunResult original;
  original.shapelets = SampleShapelets();
  original.stats = SampleStats();
  obs::TraceSpan span;
  span.path = "discover/candidate_gen";
  span.count = 2;
  span.seconds = 0.375;
  original.trace.spans.push_back(span);

  const std::string text = SerializeRunResult(original);
  const auto restored = DeserializeRunResult(text);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->shapelets.size(), original.shapelets.size());
  for (size_t i = 0; i < original.shapelets.size(); ++i) {
    EXPECT_EQ(restored->shapelets[i].values, original.shapelets[i].values);
    EXPECT_EQ(restored->shapelets[i].label, original.shapelets[i].label);
  }
  ExpectStatsEqual(restored->stats, original.stats);
  ASSERT_EQ(restored->trace.spans.size(), 1u);
  EXPECT_EQ(restored->trace.spans[0].path, "discover/candidate_gen");
  EXPECT_EQ(restored->trace.spans[0].count, 2u);
  EXPECT_EQ(restored->trace.spans[0].seconds, 0.375);
}

TEST(RunSerializationTest, HeaderCarriesCurrentVersion) {
  RunResult result;
  result.shapelets = SampleShapelets();
  const std::string text = SerializeRunResult(result);
  EXPECT_EQ(text.rfind("ips-run v2.1\n", 0), 0u);
  EXPECT_EQ(kRunFormatVersion, (FormatVersion{2, 1}));
}

TEST(RunSerializationTest, RejectsUnknownMajorVersion) {
  RunResult result;
  result.shapelets = SampleShapelets();
  std::string text = SerializeRunResult(result);
  const size_t pos = text.find("v2.1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 4, "v3.0");
  EXPECT_FALSE(DeserializeRunResult(text).has_value());
}

TEST(RunSerializationTest, AcceptsNewerMinorWithinMajor) {
  RunResult result;
  result.shapelets = SampleShapelets();
  result.stats = SampleStats();
  std::string text = SerializeRunResult(result);
  const size_t pos = text.find("v2.1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 4, "v2.7");
  const auto restored = DeserializeRunResult(text);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->shapelets.size(), result.shapelets.size());
}

TEST(RunSerializationTest, MetricRoundTripsForEveryRegisteredMetric) {
  for (size_t m = 0; m < kMetricCount; ++m) {
    RunResult result;
    result.shapelets = SampleShapelets();
    result.metric = static_cast<MetricId>(m);
    const std::string text = SerializeRunResult(result);
    EXPECT_NE(text.find(std::string("metric ") + MetricName(result.metric) +
                        "\n"),
              std::string::npos);
    const auto restored = DeserializeRunResult(text);
    ASSERT_TRUE(restored.has_value()) << MetricName(result.metric);
    EXPECT_EQ(restored->metric, result.metric);
  }
}

TEST(RunSerializationTest, RejectsUnknownMetricWithClearError) {
  RunResult result;
  result.shapelets = SampleShapelets();
  std::string text = SerializeRunResult(result);
  const std::string line = std::string("metric ") + MetricName(result.metric);
  const size_t pos = text.find(line);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, line.size(), "metric hyperbolic_wavelet");
  std::string error;
  EXPECT_FALSE(DeserializeRunResult(text, &error).has_value());
  EXPECT_NE(error.find("unknown metric"), std::string::npos) << error;
  EXPECT_NE(error.find("hyperbolic_wavelet"), std::string::npos) << error;
}

TEST(RunSerializationTest, V20ArtifactDefaultsToZNormMetric) {
  // Rewrite a current artifact as v2.0: header downgraded, metric line
  // dropped. Pre-metric artifacts were implicitly z-normalised Euclidean.
  RunResult result;
  result.shapelets = SampleShapelets();
  result.stats = SampleStats();
  result.metric = MetricId::kCosine;
  std::string text = SerializeRunResult(result);
  const size_t pos = text.find("v2.1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 4, "v2.0");
  const std::string line =
      std::string("metric ") + MetricName(MetricId::kCosine) + "\n";
  const size_t metric_pos = text.find(line);
  ASSERT_NE(metric_pos, std::string::npos);
  text.erase(metric_pos, line.size());
  std::string error;
  const auto restored = DeserializeRunResult(text, &error);
  ASSERT_TRUE(restored.has_value()) << error;
  EXPECT_EQ(restored->metric, MetricId::kZNormEuclidean);
}

// A v2.1 artifact as written before IpsRunStats dropped its four cache
// counters (stats_cache_hits / _misses, mp_cache_hits / _misses, which
// always read 0): it still loads, every remaining field and the shapelets
// bit for bit, and writing it again leaves the dropped keys out.
TEST(RunSerializationTest, LoadsArtifactWithTheDroppedCacheCounters) {
  const std::string golden =
      "ips-run v2.1\n"
      "metric euclidean\n"
      "stats {\"candidate_gen_seconds\":1.25,\"dabf_build_seconds\":0.5,"
      "\"pruning_seconds\":0.125,\"selection_seconds\":2,"
      "\"transform_seconds\":0.75,\"backend_fit_seconds\":0.0625,"
      "\"motifs_generated\":100,\"discords_generated\":90,"
      "\"motifs_after_prune\":40,\"discords_after_prune\":30,"
      "\"shapelets\":2,\"profiles_computed\":12345,"
      "\"stats_cache_hits\":0,\"stats_cache_misses\":0,"
      "\"profile_seconds\":1,\"mp_joins_computed\":222,"
      "\"mp_qt_sweeps\":111,\"mp_joins_halved\":55,\"mp_cache_hits\":0,"
      "\"mp_cache_misses\":0,\"pool_regions\":17,"
      "\"pool_inline_regions\":3,\"pool_tasks_run\":5000,"
      "\"pool_steals\":21}\n"
      "trace {\"spans\":[{\"path\":\"discover/candidate_gen\",\"count\":2,"
      "\"seconds\":0.375}]}\n"
      "ips-shapelets v1\n"
      "2\n"
      "0 7 12 5 1.5 -2.25 0 1.0000000000000001e-17 3.1415926535897931\n"
      "3 -1 0 1 -1\n";
  std::string error;
  const auto restored = DeserializeRunResult(golden, &error);
  ASSERT_TRUE(restored.has_value()) << error;
  EXPECT_EQ(restored->metric, MetricId::kEuclidean);
  IpsRunStats want = SampleStats();
  want.shapelets = 2;
  ExpectStatsEqual(restored->stats, want);
  const std::vector<Subsequence> shapelets = SampleShapelets();
  ASSERT_EQ(restored->shapelets.size(), shapelets.size());
  for (size_t i = 0; i < shapelets.size(); ++i) {
    EXPECT_EQ(restored->shapelets[i].values, shapelets[i].values);
    EXPECT_EQ(restored->shapelets[i].label, shapelets[i].label);
    EXPECT_EQ(restored->shapelets[i].series_index,
              shapelets[i].series_index);
    EXPECT_EQ(restored->shapelets[i].start, shapelets[i].start);
  }
  ASSERT_EQ(restored->trace.spans.size(), 1u);
  EXPECT_EQ(restored->trace.spans[0].seconds, 0.375);
  const std::string rewritten = SerializeRunResult(*restored);
  for (const char* key : {"stats_cache_hits", "stats_cache_misses",
                          "mp_cache_hits", "mp_cache_misses"}) {
    EXPECT_EQ(rewritten.find(key), std::string::npos) << key;
  }
}

TEST(RunSerializationTest, RejectsGarbageAndV1OnlyInput) {
  EXPECT_FALSE(DeserializeRunResult("").has_value());
  EXPECT_FALSE(DeserializeRunResult("not-a-run\n").has_value());
  // A bare v1 shapelet block is not a run artifact.
  EXPECT_FALSE(
      DeserializeRunResult(SerializeShapelets(SampleShapelets())).has_value());
}

TEST(RunSerializationTest, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("ips_run_" + std::to_string(::getpid()) + ".txt");
  RunResult original;
  original.shapelets = SampleShapelets();
  original.stats = SampleStats();
  ASSERT_TRUE(SaveRunResult(original, path.string()));
  const auto restored = LoadRunResult(path.string());
  std::filesystem::remove(path);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->shapelets.size(), original.shapelets.size());
  ExpectStatsEqual(restored->stats, original.stats);
}

TEST(RunSerializationTest, DiscoveredRunSurvivesRoundTrip) {
  GeneratorSpec spec;
  spec.name = "serrun";
  spec.num_classes = 2;
  spec.train_size = 10;
  spec.test_size = 2;
  spec.length = 64;
  const Dataset train = GenerateDataset(spec).train;
  IpsOptions options;
  options.sample_count = 3;
  options.length_ratios = {0.2};
  const RunResult run = DiscoverShapelets(train, options);
  const auto restored = DeserializeRunResult(SerializeRunResult(run));
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->shapelets.size(), run.shapelets.size());
  for (size_t i = 0; i < run.shapelets.size(); ++i) {
    EXPECT_EQ(restored->shapelets[i].values, run.shapelets[i].values);
  }
  ExpectStatsEqual(restored->stats, run.stats);
  EXPECT_EQ(restored->trace.spans.size(), run.trace.spans.size());
}

}  // namespace
}  // namespace ips
