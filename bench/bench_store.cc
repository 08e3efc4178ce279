// Out-of-core benchmark / acceptance gate of the columnar store
// (store/columnar_store.h): runs shapelet discovery AND the shapelet
// transform on a corpus several times larger than the chunk-residency
// budget, holds both to bitwise identity with the in-RAM path, and FAILS
// (non-zero exit) if the store's peak resident chunk bytes ever exceed
// the budget -- the CI memory-budget job's contract. It also times the
// UCR text paths on the same corpus -- SaveUcrFile, LoadUcrFile and
// ImportUcrFileToStore (best of three, with MB/s of the text file) -- and
// fails unless the loaded and imported series are bitwise the corpus. It
// times GenerateDataset on the two perfbench-shaped specs (best of three)
// and fails unless each call's data hashes to its golden checksum
// (bench/generator_checksum.h).
//
// Usage: bench_store [--full] [--json=PATH] [--metric=NAME]
//
// Writes BENCH_store.json: the env block, corpus/budget/chunk geometry,
// LRU counters, per-path wall times, the text and generator rows and the
// parity verdicts.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_env.h"
#include "bench/generator_checksum.h"
#include "core/metric.h"
#include "data/generator.h"
#include "data/ucr_loader.h"
#include "ips/pipeline.h"
#include "ips/serialization.h"
#include "obs/export.h"
#include "obs/json.h"
#include "store/columnar_store.h"
#include "store/store_writer.h"
#include "store/ucr_import.h"
#include "transform/shapelet_transform.h"

namespace ips::bench {
namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// FNV-1a over the exact bit patterns of every transform cell: two
/// transforms hash equal iff they are bitwise identical.
uint64_t HashTransform(const TransformedData& t) {
  Fnv1a h;
  for (const std::vector<double>& row : t.features) h.MixValues(row);
  for (const int label : t.labels) h.MixLabel(label);
  return h.value();
}

/// True when `got` holds `want`'s series in order with equal labels and
/// bitwise-equal values.
bool SameSeries(const DatasetView& got, const DatasetView& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    const SeriesView a = got.At(i);
    const SeriesView b = want.At(i);
    if (a.label != b.label || a.length() != b.length() ||
        std::memcmp(a.values.data(), b.values.data(),
                    b.length() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// One path timed: best of three runs.
struct TimedRow {
  const char* name;
  double ms = 1e300;
  bool identical = true;
};

/// Times `run` (which returns its parity verdict) three times; the row
/// keeps the best time, and is identical only if every run was.
TimedRow TimeTextPath(const char* name, const std::function<bool()>& run) {
  TimedRow row{name};
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    row.identical = run() && row.identical;
    row.ms = std::min(row.ms, MsSince(start));
  }
  return row;
}

/// The UCR text rows: SaveUcrFile writes the corpus (parity: it loads
/// back bitwise), LoadUcrFile reads it, and ImportUcrFileToStore converts
/// it into a segment whose series are compared with the corpus. Sets
/// `*text_bytes` to the size of the text file.
std::vector<TimedRow> RunTextPaths(const Dataset& data,
                                  const store::StoreWriter::Options& options,
                                  const std::string& stem,
                                  uint64_t* text_bytes) {
  const std::string tsv_path = stem + ".tsv";
  const std::string import_path = stem + "_import.ips";
  const auto loads_back = [&] {
    const std::optional<Dataset> loaded = LoadUcrFile(tsv_path);
    return loaded.has_value() && SameSeries(*loaded, data);
  };
  std::vector<TimedRow> rows;
  rows.push_back(TimeTextPath(
      "save_ucr_file", [&] { return SaveUcrFile(data, tsv_path); }));
  rows.back().identical = rows.back().identical && loads_back();
  std::error_code size_error;
  *text_bytes = std::filesystem::file_size(tsv_path, size_error);
  if (size_error) *text_bytes = 0;
  rows.push_back(TimeTextPath("load_ucr_file", loads_back));
  rows.push_back(TimeTextPath("import_ucr_file_to_store", [&] {
    std::string error;
    if (!store::ImportUcrFileToStore(tsv_path, import_path, options,
                                     nullptr, &error)) {
      std::fprintf(stderr, "import failed: %s\n", error.c_str());
      return false;
    }
    const auto imported = store::ColumnarStore::Open(import_path, &error);
    return imported != nullptr && SameSeries(*imported, data);
  }));
  ::unlink(tsv_path.c_str());
  ::unlink(import_path.c_str());
  return rows;
}

/// GenerateDataset timed on each golden spec: best of three calls, identical
/// only if every call's data hashed to the spec's golden checksum.
std::vector<TimedRow> RunGenerateRows(const std::vector<GoldenSpec>& specs) {
  std::vector<TimedRow> rows;
  for (const GoldenSpec& golden : specs) {
    TimedRow row{golden.spec.name.c_str()};
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      const TrainTestSplit split = GenerateDataset(golden.spec);
      row.ms = std::min(row.ms, MsSince(start));
      row.identical =
          SplitChecksum(split) == golden.checksum && row.identical;
    }
    rows.push_back(row);
  }
  return rows;
}

/// MiB of text per second of `ms`.
double MbPerS(uint64_t bytes, double ms) {
  return static_cast<double>(bytes) / (1 << 20) / (ms / 1000.0);
}

int Run(const BenchArgs& args) {
  // A corpus deliberately larger than the residency budget below. The
  // quick shape is ~1.5 MB; --full grows it ~20x.
  GeneratorSpec spec;
  spec.name = "store_bench";
  spec.num_classes = 3;
  spec.train_size = args.full ? 512 : 96;
  spec.test_size = 2;
  spec.length = args.full ? 4096 : 2048;
  const Dataset data = GenerateDataset(spec).train;

  uint64_t corpus_bytes = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    corpus_bytes += data.At(i).length() * sizeof(double);
  }

  // ~16 chunks; budget of ~3 of them, so every full scan must evict.
  const std::string segment_path =
      "/tmp/ips_bench_store_" + std::to_string(::getpid()) + ".ips";
  store::StoreWriter::Options write_options;
  write_options.chunk_target_bytes =
      std::max<uint64_t>(4096, corpus_bytes / 16);
  std::string error;
  if (!store::WriteDatasetToStore(data, segment_path, write_options,
                                  &error)) {
    std::fprintf(stderr, "store write failed: %s\n", error.c_str());
    return 1;
  }
  store::ColumnarStore::Options open_options;
  open_options.budget_bytes = write_options.chunk_target_bytes * 3;
  const auto segment =
      store::ColumnarStore::Open(segment_path, open_options, &error);
  if (segment == nullptr) {
    std::fprintf(stderr, "store open failed: %s\n", error.c_str());
    ::unlink(segment_path.c_str());
    return 1;
  }

  MetricId metric = MetricId::kZNormEuclidean;
  if (!args.metric.empty()) {
    const MetricPolicy* policy = FindMetricByName(args.metric);
    if (policy == nullptr) {
      std::fprintf(stderr, "unknown metric: %s\n", args.metric.c_str());
      return 2;
    }
    metric = policy->id;
  }

  IpsOptions options;
  options.num_threads = 4;
  options.metric = metric;
  options.sample_count = 6;
  options.sample_size = 4;
  options.length_ratios = {0.1, 0.2};
  options.shapelets_per_class = 5;

  std::printf("corpus %.2f MB in %zu chunks, residency budget %.2f MB\n",
              static_cast<double>(corpus_bytes) / (1 << 20),
              segment->num_chunks(),
              static_cast<double>(segment->budget_bytes()) / (1 << 20));

  // ---- UCR text paths on the same corpus.
  uint64_t text_bytes = 0;
  const std::vector<TimedRow> text_rows = RunTextPaths(
      data, write_options,
      "/tmp/ips_bench_store_text_" + std::to_string(::getpid()), &text_bytes);
  bool text_identical = true;
  for (const TimedRow& row : text_rows) {
    std::printf("text:       %-25s %8.2f ms %8.1f MB/s -- %s\n", row.name,
                row.ms, MbPerS(text_bytes, row.ms),
                row.identical ? "bitwise identical" : "MISMATCH");
    text_identical = text_identical && row.identical;
  }

  // ---- GenerateDataset on the perfbench-shaped specs.
  const std::vector<GoldenSpec> golden_specs = PerfbenchShapedSpecs();
  const std::vector<TimedRow> generate_rows = RunGenerateRows(golden_specs);
  bool generate_identical = true;
  for (const TimedRow& row : generate_rows) {
    std::printf("generate:   %-25s %8.2f ms -- %s\n", row.name, row.ms,
                row.identical ? "golden checksum" : "MISMATCH");
    generate_identical = generate_identical && row.identical;
  }

  // ---- In-RAM reference.
  auto start = std::chrono::steady_clock::now();
  const RunResult ram_run = DiscoverShapelets(data, options);
  const double ram_discover_ms = MsSince(start);
  start = std::chrono::steady_clock::now();
  const TransformedData ram_transform = ShapeletTransform(
      data, ram_run.shapelets, metric, options.num_threads);
  const double ram_transform_ms = MsSince(start);

  // ---- Store-backed run, same work off the mapped segment.
  start = std::chrono::steady_clock::now();
  const RunResult store_run = DiscoverShapelets(*segment, options);
  const double store_discover_ms = MsSince(start);
  start = std::chrono::steady_clock::now();
  const TransformedData store_transform = ShapeletTransform(
      *segment, store_run.shapelets, metric, options.num_threads);
  const double store_transform_ms = MsSince(start);

  const bool discovery_identical = SerializeShapelets(ram_run.shapelets) ==
                                   SerializeShapelets(store_run.shapelets);
  const bool transform_identical =
      HashTransform(ram_transform) == HashTransform(store_transform);
  const bool corpus_exceeds_budget = corpus_bytes > segment->budget_bytes();
  const bool budget_respected =
      segment->resident_high_water() <= segment->budget_bytes();
  const bool evictions_exercised = segment->chunk_evictions() > 0;

  std::printf("discovery:  ram %.1f ms, store %.1f ms -- %s\n",
              ram_discover_ms, store_discover_ms,
              discovery_identical ? "bitwise identical" : "MISMATCH");
  std::printf("transform:  ram %.1f ms, store %.1f ms -- %s\n",
              ram_transform_ms, store_transform_ms,
              transform_identical ? "bitwise identical" : "MISMATCH");
  std::printf(
      "residency:  high water %.2f MB of %.2f MB budget (%s), "
      "%llu loads / %llu hits / %llu evictions\n",
      static_cast<double>(segment->resident_high_water()) / (1 << 20),
      static_cast<double>(segment->budget_bytes()) / (1 << 20),
      budget_respected ? "within budget" : "EXCEEDED",
      static_cast<unsigned long long>(segment->chunk_loads()),
      static_cast<unsigned long long>(segment->chunk_hits()),
      static_cast<unsigned long long>(segment->chunk_evictions()));

  if (!args.json_path.empty()) {
    obs::JsonValue doc = obs::JsonValue::Object();
    doc.Set("bench", "store");
    doc.Set("env", BenchEnvJson());
    doc.Set("metric", MetricName(metric));
    doc.Set("corpus_bytes", corpus_bytes);
    doc.Set("segment_bytes", segment->mapped_bytes());
    doc.Set("num_series", data.size());
    doc.Set("num_chunks", segment->num_chunks());
    doc.Set("budget_bytes", segment->budget_bytes());
    doc.Set("resident_high_water", segment->resident_high_water());
    doc.Set("chunk_loads", segment->chunk_loads());
    doc.Set("chunk_hits", segment->chunk_hits());
    doc.Set("chunk_evictions", segment->chunk_evictions());
    doc.Set("ram_discover_ms", ram_discover_ms);
    doc.Set("store_discover_ms", store_discover_ms);
    doc.Set("ram_transform_ms", ram_transform_ms);
    doc.Set("store_transform_ms", store_transform_ms);
    doc.Set("corpus_exceeds_budget", corpus_exceeds_budget);
    doc.Set("discovery_identical", discovery_identical);
    doc.Set("transform_identical", transform_identical);
    doc.Set("budget_respected", budget_respected);
    doc.Set("evictions_exercised", evictions_exercised);
    doc.Set("text_bytes", text_bytes);
    obs::JsonValue text = obs::JsonValue::Array();
    for (const TimedRow& row : text_rows) {
      obs::JsonValue entry = obs::JsonValue::Object();
      entry.Set("path", row.name);
      entry.Set("ms", row.ms);
      entry.Set("mb_per_s", MbPerS(text_bytes, row.ms));
      entry.Set("identical", row.identical);
      text.Append(std::move(entry));
    }
    doc.Set("text", std::move(text));
    doc.Set("text_identical", text_identical);
    obs::JsonValue generate = obs::JsonValue::Array();
    for (const TimedRow& row : generate_rows) {
      obs::JsonValue entry = obs::JsonValue::Object();
      entry.Set("spec", row.name);
      entry.Set("ms", row.ms);
      entry.Set("identical", row.identical);
      generate.Append(std::move(entry));
    }
    doc.Set("generate_dataset", std::move(generate));
    doc.Set("generate_identical", generate_identical);
    if (!obs::WriteJsonFile(doc, args.json_path)) {
      std::fprintf(stderr, "failed to write %s\n", args.json_path.c_str());
      ::unlink(segment_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  ::unlink(segment_path.c_str());

  const bool ok = corpus_exceeds_budget && discovery_identical &&
                  transform_identical && budget_respected &&
                  evictions_exercised && text_identical &&
                  generate_identical;
  if (!ok) std::fprintf(stderr, "bench_store: ACCEPTANCE FAILURE\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace ips::bench

int main(int argc, char** argv) {
  return ips::bench::Run(ips::bench::ParseArgs(argc, argv));
}
