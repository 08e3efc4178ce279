// The out-of-core columnar store (store/columnar_store.h): write/read
// round-trips, LRU residency accounting, sidecar-served statistics pinned
// bitwise to the core/znorm.cc paths, and -- the tentpole contract --
// store-backed shapelet discovery bitwise identical to the in-RAM path
// for every registered metric at several thread counts.

#include "store/columnar_store.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/metric.h"
#include "core/znorm.h"
#include "data/generator.h"
#include "data/ucr_loader.h"
#include "ips/pipeline.h"
#include "ips/serialization.h"
#include "store/store_writer.h"
#include "store/ucr_import.h"

namespace ips {
namespace {

std::string TempSegmentPath(const char* tag) {
  return "/tmp/ips_store_test_" + std::to_string(::getpid()) + "_" + tag +
         ".ips";
}

/// Deletes the file when the test scope ends.
struct ScopedPath {
  explicit ScopedPath(std::string p) : path(std::move(p)) {}
  ~ScopedPath() { ::unlink(path.c_str()); }
  std::string path;
};

Dataset MakeCorpus(size_t train_size = 24, size_t length = 96) {
  GeneratorSpec spec;
  spec.name = "store";
  spec.train_size = train_size;
  spec.test_size = 2;
  spec.length = length;
  return GenerateDataset(spec).train;
}

/// Writes `data` with chunks small enough to force `min_chunks`+ chunks.
std::unique_ptr<store::ColumnarStore> RoundTrip(
    const Dataset& data, const std::string& path, size_t min_chunks = 4,
    uint64_t budget_bytes = uint64_t{64} << 20) {
  uint64_t total = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    total += data.At(i).length() * sizeof(double);
  }
  store::StoreWriter::Options write_options;
  write_options.chunk_target_bytes =
      std::max<uint64_t>(sizeof(double), total / min_chunks / 2);
  std::string error;
  EXPECT_TRUE(store::WriteDatasetToStore(data, path, write_options, &error))
      << error;
  store::ColumnarStore::Options open_options;
  open_options.budget_bytes = budget_bytes;
  auto segment = store::ColumnarStore::Open(path, open_options, &error);
  EXPECT_NE(segment, nullptr) << error;
  return segment;
}

TEST(StoreTest, RoundTripPreservesEverySeriesBitwise) {
  const Dataset data = MakeCorpus();
  const ScopedPath path(TempSegmentPath("roundtrip"));
  const auto segment = RoundTrip(data, path.path);
  ASSERT_NE(segment, nullptr);

  ASSERT_EQ(segment->size(), data.size());
  EXPECT_GE(segment->num_chunks(), 4u);
  for (size_t i = 0; i < data.size(); ++i) {
    const SeriesView expected = data.At(i);
    const SeriesView got = segment->At(i);
    EXPECT_EQ(got.label, expected.label);
    ASSERT_EQ(got.length(), expected.length());
    for (size_t j = 0; j < expected.length(); ++j) {
      EXPECT_EQ(got[j], expected[j]) << "series " << i << " sample " << j;
    }
  }
  EXPECT_EQ(segment->NumClasses(), data.NumClasses());
  EXPECT_EQ(segment->MinLength(), data.MinLength());
  EXPECT_EQ(segment->MaxLength(), data.MaxLength());
  EXPECT_EQ(segment->Labels(), data.Labels());
}

TEST(StoreTest, ForEachChunkCoversEverySeriesInOrder) {
  const Dataset data = MakeCorpus();
  const ScopedPath path(TempSegmentPath("chunks"));
  const auto segment = RoundTrip(data, path.path);
  ASSERT_NE(segment, nullptr);

  size_t next = 0;
  segment->ForEachChunk([&](size_t first, std::span<const SeriesView> chunk) {
    EXPECT_EQ(first, next);
    EXPECT_FALSE(chunk.empty());
    for (size_t k = 0; k < chunk.size(); ++k) {
      const SeriesView direct = segment->At(first + k);
      EXPECT_EQ(chunk[k].values.data(), direct.values.data());
      EXPECT_EQ(chunk[k].label, direct.label);
    }
    next = first + chunk.size();
  });
  EXPECT_EQ(next, data.size());
}

TEST(StoreTest, MaterializeEqualsSource) {
  const Dataset data = MakeCorpus(8, 40);
  const ScopedPath path(TempSegmentPath("materialize"));
  const auto segment = RoundTrip(data, path.path, 2);
  ASSERT_NE(segment, nullptr);
  const Dataset copy = segment->Materialize();
  ASSERT_EQ(copy.size(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(copy[i].values, data[i].values);
    EXPECT_EQ(copy[i].label, data[i].label);
  }
}

TEST(StoreTest, UnlabeledSeriesRoundTripAndClassCounting) {
  Dataset data;
  data.Add(TimeSeries(std::vector<double>{1.0, 2.0, 3.0}, 0));
  data.Add(TimeSeries(std::vector<double>{4.0, 5.0, 6.0}, kUnlabeledSeries));
  data.Add(TimeSeries(std::vector<double>{7.0, 8.0, 9.0}, 1));
  const ScopedPath path(TempSegmentPath("unlabeled"));
  const auto segment = RoundTrip(data, path.path, 1);
  ASSERT_NE(segment, nullptr);
  EXPECT_EQ(segment->At(1).label, kUnlabeledSeries);
  // The satellite regression: an unlabelled series must be skipped, not
  // counted as its own class (and never crash the max-label scan).
  EXPECT_EQ(segment->NumClasses(), 2);
  EXPECT_EQ(data.NumClasses(), 2);
}

TEST(StoreTest, ResidencyNeverExceedsBudgetAndEvictionsHappen) {
  const Dataset data = MakeCorpus(32, 128);
  const ScopedPath path(TempSegmentPath("lru"));
  // Budget of ~2 chunks: a full scan must evict.
  auto probe = RoundTrip(data, path.path, 8);
  ASSERT_NE(probe, nullptr);
  ASSERT_GE(probe->num_chunks(), 8u);
  const uint64_t budget = probe->mapped_bytes() / 4;
  probe.reset();

  std::string error;
  store::ColumnarStore::Options options;
  options.budget_bytes = budget;
  const auto segment = store::ColumnarStore::Open(path.path, options, &error);
  ASSERT_NE(segment, nullptr) << error;

  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < segment->size(); ++i) {
      const SeriesView t = segment->At(i);
      EXPECT_GE(t.length(), 1u);
      EXPECT_LE(segment->resident_bytes(), segment->budget_bytes());
    }
  }
  EXPECT_LE(segment->resident_high_water(), segment->budget_bytes());
  EXPECT_GT(segment->chunk_evictions(), 0u);
  EXPECT_GT(segment->chunk_loads(), segment->num_chunks());  // re-faulted
}

TEST(StoreTest, RepeatedAccessWithinBudgetHitsCache) {
  const Dataset data = MakeCorpus(8, 64);
  const ScopedPath path(TempSegmentPath("hits"));
  const auto segment = RoundTrip(data, path.path, 2);
  ASSERT_NE(segment, nullptr);
  for (int pass = 0; pass < 3; ++pass) {
    for (size_t i = 0; i < segment->size(); ++i) segment->At(i);
  }
  EXPECT_EQ(segment->chunk_evictions(), 0u);
  EXPECT_EQ(segment->chunk_loads(), segment->num_chunks());
  EXPECT_GT(segment->chunk_hits(), 0u);
}

TEST(StoreTest, TinyBudgetClampsToLargestChunk) {
  const Dataset data = MakeCorpus(12, 80);
  const ScopedPath path(TempSegmentPath("clamp"));
  {
    const auto writer_probe = RoundTrip(data, path.path, 3);
    ASSERT_NE(writer_probe, nullptr);
  }
  std::string error;
  store::ColumnarStore::Options options;
  options.budget_bytes = 1;  // below any chunk: must clamp, not wedge
  const auto segment = store::ColumnarStore::Open(path.path, options, &error);
  ASSERT_NE(segment, nullptr) << error;
  for (size_t i = 0; i < segment->size(); ++i) {
    EXPECT_EQ(segment->At(i).length(), data.At(i).length());
    EXPECT_LE(segment->resident_bytes(), segment->budget_bytes());
  }
}

TEST(StoreTest, SidecarStatsBitwiseEqualToZnorm) {
  const Dataset data = MakeCorpus(10, 72);
  const ScopedPath path(TempSegmentPath("sidecar"));
  const auto segment = RoundTrip(data, path.path, 3);
  ASSERT_NE(segment, nullptr);

  for (size_t i = 0; i < segment->size(); ++i) {
    const SeriesView t = segment->At(i);
    for (const size_t window : {size_t{1}, size_t{5}, size_t{16}, t.length()}) {
      SCOPED_TRACE("series " + std::to_string(i) + " window " +
                   std::to_string(window));
      RollingStats served;
      ASSERT_TRUE(segment->FillRollingStats(t.values, window, &served));
      const RollingStats computed = ComputeRollingStats(t.values, window);
      ASSERT_EQ(served.means.size(), computed.means.size());
      for (size_t j = 0; j < computed.means.size(); ++j) {
        EXPECT_EQ(served.means[j], computed.means[j]);
        EXPECT_EQ(served.stds[j], computed.stds[j]);
      }

      std::vector<double> energies;
      ASSERT_TRUE(segment->FillWindowEnergies(t.values, window, &energies));
      const std::vector<double> expected =
          ComputeWindowEnergies(t.values, window);
      ASSERT_EQ(energies.size(), expected.size());
      for (size_t j = 0; j < expected.size(); ++j) {
        EXPECT_EQ(energies[j], expected[j]);
      }
    }
  }
}

TEST(StoreTest, StatsProviderRejectsForeignSpansAndBadWindows) {
  const Dataset data = MakeCorpus(6, 48);
  const ScopedPath path(TempSegmentPath("foreign"));
  const auto segment = RoundTrip(data, path.path, 2);
  ASSERT_NE(segment, nullptr);

  RollingStats out;
  const SeriesView t = segment->At(0);
  // Windows the sidecar cannot serve.
  EXPECT_FALSE(segment->FillRollingStats(t.values, 0, &out));
  EXPECT_FALSE(segment->FillRollingStats(t.values, t.length() + 1, &out));
  // A span that lives outside the mapping entirely.
  const std::vector<double> foreign(32, 1.0);
  EXPECT_FALSE(segment->FillRollingStats(foreign, 4, &out));
  // A proper subspan of a stored series is not the full series: the
  // provider must decline rather than serve the wrong prefix table.
  EXPECT_FALSE(
      segment->FillRollingStats(t.values.subspan(1, t.length() - 2), 4, &out));
}

TEST(StoreTest, LooksLikeStoreSegmentSniffsMagic) {
  const Dataset data = MakeCorpus(4, 32);
  const ScopedPath path(TempSegmentPath("sniff"));
  { ASSERT_NE(RoundTrip(data, path.path, 1), nullptr); }
  EXPECT_TRUE(store::LooksLikeStoreSegment(path.path));

  const ScopedPath text(TempSegmentPath("sniff_text"));
  {
    std::FILE* f = std::fopen(text.path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("0 1.0,2.0,3.0\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(store::LooksLikeStoreSegment(text.path));
  EXPECT_FALSE(store::LooksLikeStoreSegment("/nonexistent/nope.ips"));
}

TEST(StoreTest, WriterRejectsNonFiniteValueNamingSeriesAndPosition) {
  const ScopedPath path(TempSegmentPath("nonfinite"));
  store::StoreWriter writer(path.path);
  ASSERT_TRUE(writer.ok()) << writer.error();
  const std::vector<double> clean = {0.5, -1.0, 2.0, 0.25, 3.0, 1.0};
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(writer.Append(clean, i % 2));

  std::vector<double> poisoned = clean;
  poisoned[4] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(writer.Append(poisoned, 0));
  EXPECT_FALSE(writer.ok());
  EXPECT_EQ(writer.error(), "series 3: non-finite value at position 4");
  // The writer stays failed: nothing more is appended or finished.
  EXPECT_FALSE(writer.Append(clean, 0));
  EXPECT_FALSE(writer.Finish());
  EXPECT_EQ(writer.series_written(), 3u);

  // WriteDatasetToStore reports the same message.
  Dataset data;
  data.Add(TimeSeries(clean, 0));
  std::vector<double> infinite = clean;
  infinite[0] = -std::numeric_limits<double>::infinity();
  data.Add(TimeSeries(std::move(infinite), 1));
  std::string error;
  EXPECT_FALSE(store::WriteDatasetToStore(data, path.path, {}, &error));
  EXPECT_EQ(error, "series 1: non-finite value at position 0");
}

// ------------------------------------------------------------------ import

TEST(StoreTest, ImportedSegmentEqualsLoadedSplitBitwise) {
  const ScopedPath tsv(TempSegmentPath("import") + ".tsv");
  const ScopedPath segment_path(TempSegmentPath("import"));
  const Dataset data = MakeCorpus(20, 48);
  ASSERT_TRUE(SaveUcrFile(data, tsv.path));
  const std::optional<Dataset> loaded = LoadUcrFile(tsv.path);
  ASSERT_TRUE(loaded.has_value());

  store::StoreWriter::Options options;
  options.chunk_target_bytes = 48 * sizeof(double) * 3;
  store::ImportResult result;
  std::string error;
  ASSERT_TRUE(store::ImportUcrFileToStore(tsv.path, segment_path.path,
                                          options, &result, &error))
      << error;
  EXPECT_EQ(result.series, data.size());
  EXPECT_GT(result.chunks, 1u);
  const auto segment = store::ColumnarStore::Open(segment_path.path, &error);
  ASSERT_NE(segment, nullptr) << error;
  ASSERT_EQ(segment->size(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    const SeriesView stored = segment->At(i);
    EXPECT_EQ(stored.label, (*loaded)[i].label);
    EXPECT_EQ(stored.label, data[i].label);
    ASSERT_EQ(stored.length(), data[i].values.size());
    EXPECT_EQ(std::memcmp(stored.values.data(), data[i].values.data(),
                          stored.length() * sizeof(double)),
              0)
        << "series " << i;
  }
}

TEST(StoreTest, ImportNamesTheFileLineAndFieldOfABadRow) {
  const ScopedPath tsv(TempSegmentPath("bad_import") + ".tsv");
  const ScopedPath segment_path(TempSegmentPath("bad_import"));
  const auto import_error = [&](const std::string& text) {
    std::ofstream(tsv.path, std::ios::trunc) << text;
    std::string error;
    EXPECT_FALSE(store::ImportUcrFileToStore(tsv.path, segment_path.path,
                                             {}, nullptr, &error));
    return error;
  };
  EXPECT_EQ(import_error("0\t1\t2\n1\t3\t4\n0\t5\tx6\n"),
            tsv.path + ": line 3, field 3: unparsable token");
  EXPECT_EQ(import_error("0\t1\t2\n\n1\t3\t-inf\t4\n"),
            tsv.path + ": line 3, field 3: infinity");
  EXPECT_EQ(import_error("\n\n"), tsv.path + ": no rows");
  std::string error;
  EXPECT_FALSE(store::ImportUcrFileToStore(tsv.path + ".missing",
                                           segment_path.path, {}, nullptr,
                                           &error));
  EXPECT_EQ(error, tsv.path + ".missing: cannot open");
}

// ------------------------------------------------------------------ parity

IpsOptions DiscoveryOptions(size_t threads, MetricId metric) {
  IpsOptions options;
  options.num_threads = threads;
  options.metric = metric;
  options.sample_count = 4;
  options.sample_size = 3;
  options.length_ratios = {0.2, 0.4};
  options.shapelets_per_class = 3;
  return options;
}

/// The whole observable outcome of a discovery run, exact to the last bit.
std::string Fingerprint(const RunResult& result) {
  std::string out = SerializeShapelets(result.shapelets);
  out += " motifs=" + std::to_string(result.stats.motifs_generated);
  out += " discords=" + std::to_string(result.stats.discords_generated);
  out += " profiles=" + std::to_string(result.stats.profiles_computed);
  return out;
}

TEST(StoreTest, DiscoveryBitwiseIdenticalToInRamForEveryMetricAndThreads) {
  const Dataset data = MakeCorpus(16, 96);
  const ScopedPath path(TempSegmentPath("parity"));
  // A budget far below the corpus: discovery must run while chunks churn.
  auto probe = RoundTrip(data, path.path, 6);
  ASSERT_NE(probe, nullptr);
  const uint64_t budget = probe->mapped_bytes() / 3;
  probe.reset();

  for (size_t m = 0; m < kMetricCount; ++m) {
    const MetricId metric = static_cast<MetricId>(m);
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE(std::string("metric ") + MetricName(metric) + " threads " +
                   std::to_string(threads));
      const IpsOptions options = DiscoveryOptions(threads, metric);
      const RunResult in_ram = DiscoverShapelets(data, options);

      std::string error;
      store::ColumnarStore::Options open_options;
      open_options.budget_bytes = budget;
      const auto segment =
          store::ColumnarStore::Open(path.path, open_options, &error);
      ASSERT_NE(segment, nullptr) << error;
      const RunResult out_of_core = DiscoverShapelets(*segment, options);

      EXPECT_EQ(Fingerprint(out_of_core), Fingerprint(in_ram));
    }
  }
}

}  // namespace
}  // namespace ips
