// Hostile-input hardening of the run-artifact loader (ips/serialization.h)
// and its consumer, the serving registry: truncations at every byte,
// bit-flipped headers, wrong versions, unknown metrics, absurd declared
// lengths and non-finite shapelet values must all come back as a clean
// error -- no crash, no multi-GB allocation, and no partial state left in a
// registry whose reload fails.

#include "ips/serialization.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/ucr_loader.h"
#include "ips/pipeline.h"
#include "serve/model_registry.h"

namespace ips {
namespace {

IpsOptions FastOptions() {
  IpsOptions o;
  o.sample_count = 4;
  o.sample_size = 3;
  o.length_ratios = {0.2};
  o.shapelets_per_class = 3;
  return o;
}

/// A small but real artifact: fitted shapelets + stats + trace.
RunResult MakeArtifact() {
  GeneratorSpec spec;
  spec.name = "fuzz";
  spec.train_size = 12;
  spec.test_size = 4;
  spec.length = 64;
  const Dataset train = GenerateDataset(spec).train;
  IpsClassifier clf(FastOptions());
  clf.Fit(train);
  return clf.result();
}

const std::string& ArtifactText() {
  static const std::string* text =
      new std::string(SerializeRunResult(MakeArtifact()));
  return *text;
}

/// The artifact with one shapelet value replaced by `v`, as
/// SerializeRunResult writes it.
std::string ArtifactWithShapeletValue(double v) {
  std::optional<RunResult> result = DeserializeRunResult(ArtifactText());
  result->shapelets[0].values[1] = v;
  return SerializeRunResult(*result);
}

const double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};

TEST(SerializationFuzzTest, IntactArtifactParses) {
  std::string error = "sentinel";
  const auto restored = DeserializeRunResult(ArtifactText(), &error);
  ASSERT_TRUE(restored.has_value()) << error;
  EXPECT_TRUE(error.empty());  // cleared on success
  EXPECT_FALSE(restored->shapelets.empty());
}

TEST(SerializationFuzzTest, EveryTruncationIsHandledCleanly) {
  const std::string& text = ArtifactText();
  // Cutting anywhere before the final shapelet line must fail (a declared
  // count is then unsatisfiable). Cuts inside the final line may legally
  // still parse -- "3.14159..." truncated is a shorter valid double -- but
  // must never crash, and every failure must carry a reason.
  const size_t last_line = text.rfind('\n', text.size() - 2) + 1;
  for (size_t n = 0; n < text.size(); ++n) {
    std::string error;
    const auto restored = DeserializeRunResult(text.substr(0, n), &error);
    if (n <= last_line) {
      EXPECT_FALSE(restored.has_value()) << "parsed at truncation " << n;
    }
    if (!restored.has_value()) {
      EXPECT_FALSE(error.empty()) << "no reason at truncation " << n;
    }
  }
}

TEST(SerializationFuzzTest, EveryHeaderBitFlipIsRejected) {
  const std::string& text = ArtifactText();
  ASSERT_EQ(text.rfind("ips-run v2.", 0), 0u);
  // Flip every bit of "ips-run v2" -- magic and major version. (The minor
  // digit is excluded deliberately: other minors of a known major are
  // valid by design, see MinorVersionsOfKnownMajorAccepted.)
  for (size_t byte = 0; byte < 10; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = text;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      std::string error;
      const auto restored = DeserializeRunResult(mutated, &error);
      EXPECT_FALSE(restored.has_value())
          << "parsed with bit " << bit << " of byte " << byte << " flipped";
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(SerializationFuzzTest, WrongMajorVersionRejected) {
  for (const char* version : {"v1.0", "v3.0", "v0.1", "v99.1"}) {
    std::string mutated = ArtifactText();
    mutated.replace(mutated.find("v2.1"), 4, version);
    std::string error;
    EXPECT_FALSE(DeserializeRunResult(mutated, &error).has_value())
        << version;
    EXPECT_FALSE(error.empty());
  }
}

TEST(SerializationFuzzTest, MinorVersionsOfKnownMajorAccepted) {
  // Minors only add fields within a major; a v2.9 artifact must load.
  std::string mutated = ArtifactText();
  mutated.replace(mutated.find("v2.1"), 4, "v2.9");
  std::string error;
  EXPECT_TRUE(DeserializeRunResult(mutated, &error).has_value()) << error;
}

TEST(SerializationFuzzTest, UnknownMetricNameRejected) {
  std::string mutated = ArtifactText();
  const size_t pos = mutated.find("\nmetric ");
  ASSERT_NE(pos, std::string::npos);
  const size_t eol = mutated.find('\n', pos + 1);
  mutated.replace(pos, eol - pos, "\nmetric reversed_polarity");
  std::string error;
  EXPECT_FALSE(DeserializeRunResult(mutated, &error).has_value());
  EXPECT_NE(error.find("reversed_polarity"), std::string::npos) << error;
}

TEST(SerializationFuzzTest, OversizedShapeletCountRejectedWithoutAllocating) {
  // A header declaring more shapelets than the text could possibly hold
  // must be rejected up front, not drive a count-sized reserve.
  EXPECT_FALSE(
      DeserializeShapelets("ips-shapelets v1\n4000000000\n").has_value());
  std::string mutated = ArtifactText();
  const size_t block = mutated.find("ips-shapelets v1\n");
  ASSERT_NE(block, std::string::npos);
  const size_t count_start = block + std::string("ips-shapelets v1\n").size();
  const size_t count_end = mutated.find('\n', count_start);
  mutated.replace(count_start, count_end - count_start, "4000000000");
  std::string error;
  EXPECT_FALSE(DeserializeRunResult(mutated, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(SerializationFuzzTest, OversizedSeriesLengthRejectedWithoutAllocating) {
  // Same for a single shapelet declaring a multi-GB value vector.
  EXPECT_FALSE(
      DeserializeShapelets("ips-shapelets v1\n1\n0 0 0 3000000000 1.0\n")
          .has_value());
}

TEST(SerializationFuzzTest, LoadFromFdMatchesLoadFromPath) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() /
                        ("ips_fuzz_fd_" + std::to_string(::getpid()) +
                         ".ipsrun");
  const RunResult artifact = MakeArtifact();
  ASSERT_TRUE(SaveRunResult(artifact, path.string()));

  FILE* f = std::fopen(path.string().c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string error;
  const auto restored = LoadRunResultFromFd(fileno(f), &error);
  std::fclose(f);
  fs::remove(path);
  ASSERT_TRUE(restored.has_value()) << error;
  ASSERT_EQ(restored->shapelets.size(), artifact.shapelets.size());
  for (size_t i = 0; i < artifact.shapelets.size(); ++i) {
    EXPECT_EQ(restored->shapelets[i].values, artifact.shapelets[i].values);
  }
  EXPECT_EQ(restored->metric, artifact.metric);

  std::string fd_error;
  EXPECT_FALSE(LoadRunResultFromFd(-1, &fd_error).has_value());
  EXPECT_FALSE(fd_error.empty());
}

TEST(SerializationFuzzTest, NonFiniteShapeletValueRejected) {
  for (const double v : kNonFinite) {
    const std::string text = ArtifactWithShapeletValue(v);
    ASSERT_NE(text, ArtifactText()) << v;
    std::string error;
    EXPECT_FALSE(DeserializeRunResult(text, &error).has_value()) << v;
    EXPECT_NE(error.find("malformed shapelet block"), std::string::npos)
        << v << ": " << error;
  }
}

TEST(SerializationFuzzTest, FailedReloadLeavesRegistryServingOldModel) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("ips_fuzz_reg_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string artifact_path = (dir / "model.ipsrun").string();
  const std::string train_path = (dir / "train.tsv").string();

  GeneratorSpec spec;
  spec.name = "fuzz";
  spec.train_size = 12;
  spec.test_size = 4;
  spec.length = 64;
  const TrainTestSplit data = GenerateDataset(spec);
  IpsClassifier clf(FastOptions());
  clf.Fit(data.train);
  ASSERT_TRUE(SaveRunResult(clf.result(), artifact_path));
  ASSERT_TRUE(SaveUcrFile(data.train, train_path));

  serve::ModelRegistry registry;
  std::string error;
  ASSERT_EQ(registry.Load(
                "m", serve::ModelSource{artifact_path, train_path,
                                        FastOptions()},
                &error),
            1u)
      << error;
  const auto before = registry.Get("m");
  ASSERT_NE(before, nullptr);
  const std::vector<int> labels_before = before->Classify(data.test);

  // Corrupt the artifact on disk with each hostile shape; every reload
  // must fail AND leave the registry serving the original model object.
  const std::string good = ArtifactText();
  std::vector<std::string> corruptions = {
      "",                                  // empty file
      good.substr(0, good.size() / 3),     // truncation
      "ips-run v9.0\n" + good.substr(13),  // alien major
      [&] {                                // hostile shapelet count
        std::string c = good;
        const size_t block = c.find("ips-shapelets v1\n");
        const size_t start = block + std::string("ips-shapelets v1\n").size();
        c.replace(start, c.find('\n', start) - start, "4000000000");
        return c;
      }(),
  };
  for (const double v : kNonFinite) {  // nan, inf and -inf shapelet values
    corruptions.push_back(ArtifactWithShapeletValue(v));
  }
  for (size_t i = 0; i < corruptions.size(); ++i) {
    {
      std::ofstream out(artifact_path, std::ios::trunc);
      out << corruptions[i];
    }
    std::string reload_error;
    EXPECT_EQ(registry.Reload("m", &reload_error), 0u) << "corruption " << i;
    EXPECT_FALSE(reload_error.empty()) << "corruption " << i;
    const auto after = registry.Get("m");
    ASSERT_NE(after, nullptr);
    EXPECT_EQ(after.get(), before.get())
        << "corruption " << i << " replaced the model";
    EXPECT_EQ(after->version(), 1u);
    EXPECT_EQ(after->Classify(data.test), labels_before)
        << "corruption " << i << " changed predictions";
  }

  // And a subsequent good reload recovers, bumping the version.
  {
    std::ofstream out(artifact_path, std::ios::trunc);
    out << SerializeRunResult(clf.result());
  }
  EXPECT_EQ(registry.Reload("m", &error), 2u) << error;
  EXPECT_EQ(registry.Get("m")->Classify(data.test), labels_before);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ips
