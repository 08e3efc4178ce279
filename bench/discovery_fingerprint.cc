// Prints a deterministic fingerprint of a discovery run: every shapelet's
// provenance and exact values (max_digits10, so bitwise differences show).
//
// CI builds the library twice -- default and -DIPS_DISABLE_TRACING=ON --
// runs this binary from both builds, and diffs the outputs. A clean diff
// proves the tracing layer only observes: compiling the spans out changes
// no discovery output. Run it on several synthetic datasets and thread
// counts so both the serial and pooled paths are covered.
//
// Within one run, discovery repeats on every SIMD backend the CPU supports
// (core/simd.h). The fingerprint is printed once, from the start-up
// backend, and the run exits 1 if any backend's fingerprint differs: the
// backends are held to bitwise agreement inside one binary.
//
// Each dataset runs twice per thread count: the paper's defaults (DABF
// pruning, DT+CR utility), then a "naive" section with naive pruning and
// exact utility, where every Def. 4 distance of discovery runs through the
// DistanceEngine and its early-abandon cascade -- so every diff of this
// output covers that engine too.
//
// Usage: discovery_fingerprint [--datasets=a,b,c] [--metric=NAME]
//                              [--store_budget=BYTES]
//
// --metric runs discovery under a registered non-default metric; the
// default invocation's output is the identity oracle and never changes
// format, and a non-default metric announces itself with a "metric" line
// so two different metrics can never diff clean against each other.
//
// --store_budget=BYTES routes each training set through an out-of-core
// columnar segment (written to a temp file, opened with that residency
// budget) instead of the in-RAM Dataset. Storage is likewise not allowed
// to change results -- no banner, must diff clean; the CI memory-budget
// job holds discovery to it under an RSS cap.

#include <unistd.h>

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/metric.h"
#include "core/simd.h"
#include "ips/pipeline.h"
#include "ips/serialization.h"
#include "obs/trace.h"
#include "store/columnar_store.h"
#include "store/store_writer.h"

namespace ips::bench {
namespace {

// printf onto the end of `out`.
void Appendf(std::string& out, const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, format, copy);
  va_end(copy);
  const size_t at = out.size();
  out.resize(at + static_cast<size_t>(n) + 1);
  std::vsnprintf(out.data() + at, static_cast<size_t>(n) + 1, format, args);
  out.resize(at + static_cast<size_t>(n));
  va_end(args);
}

// The fingerprint of every dataset on the active backend.
std::string Fingerprint(const BenchArgs& args) {
  std::string out;
  const std::vector<std::string> datasets =
      SelectDatasets(args, {"ArrowHead", "ShapeletSim", "ItalyPowerDemand"});

  MetricId metric = MetricId::kZNormEuclidean;
  if (!args.metric.empty()) {
    const MetricPolicy* policy = FindMetricByName(args.metric);
    if (policy == nullptr) {
      std::fprintf(stderr, "unknown metric: %s\n", args.metric.c_str());
      std::exit(2);
    }
    metric = policy->id;
  }
  if (metric != MetricId::kZNormEuclidean) {
    Appendf(out, "metric %s\n", MetricName(metric));
  }

  // Both the serial path (1 thread) and the pooled path (4): the pool's
  // span/counter instrumentation sits on different code paths.
  const std::vector<size_t> thread_counts = {1, 4};

  for (const std::string& name : datasets) {
    const TrainTestSplit data = GetDataset(name, args);

    // Under --store_budget, discovery reads the training set through the
    // out-of-core columnar store instead of the in-RAM Dataset. Small
    // chunks (~1/6 of the corpus) so the budget actually forces eviction.
    std::unique_ptr<store::ColumnarStore> segment;
    const DatasetView* train = &data.train;
    std::string segment_path;
    if (args.store_budget) {
      segment_path = "/tmp/ips_fingerprint_" + std::to_string(::getpid()) +
                     "_" + name + ".ips";
      store::StoreWriter::Options write_options;
      uint64_t total = 0;
      for (size_t i = 0; i < data.train.size(); ++i) {
        total += data.train.At(i).length() * sizeof(double);
      }
      write_options.chunk_target_bytes = std::max<uint64_t>(4096, total / 6);
      std::string store_error;
      if (!store::WriteDatasetToStore(data.train, segment_path, write_options,
                                      &store_error)) {
        std::fprintf(stderr, "store write failed: %s\n", store_error.c_str());
        std::exit(2);
      }
      store::ColumnarStore::Options open_options;
      open_options.budget_bytes = *args.store_budget;
      segment = store::ColumnarStore::Open(segment_path, open_options,
                                           &store_error);
      if (segment == nullptr) {
        std::fprintf(stderr, "store open failed: %s\n", store_error.c_str());
        std::exit(2);
      }
      train = segment.get();
    }

    for (const bool naive : {false, true}) {
      for (size_t threads : thread_counts) {
        IpsOptions options;
        options.num_threads = threads;
        options.metric = metric;
        if (naive) {
          options.use_dabf_pruning = false;
          options.utility_mode = UtilityMode::kExactWithCr;
        }
        const RunResult result = DiscoverShapelets(*train, options);
        Appendf(out, "%s%s threads=%zu shapelets=%zu\n", name.c_str(),
                naive ? " naive" : "", threads, result.shapelets.size());
        // The v1 shapelet block: provenance + every value at max_digits10.
        out += SerializeShapelets(result.shapelets);
        // Counters are observational but deterministic for a fixed dataset
        // and config -- identical across tracing-on/off builds by design, so
        // they belong in the fingerprint. Timings do not.
        Appendf(out,
                "counters motifs=%zu discords=%zu pruned_motifs=%zu "
                "pruned_discords=%zu profiles=%zu mp_joins=%zu\n",
                result.stats.motifs_generated, result.stats.discords_generated,
                result.stats.motifs_after_prune,
                result.stats.discords_after_prune,
                result.stats.profiles_computed,
                result.stats.mp_joins_computed);
      }
    }
    if (!segment_path.empty()) {
      segment.reset();
      ::unlink(segment_path.c_str());
    }
  }
  return out;
}

int Run(const BenchArgs& args) {
  const simd::Backend start_up = simd::ActiveBackend();
  const std::string printed = Fingerprint(args);
  std::fputs(printed.c_str(), stdout);
  std::string checked = simd::BackendName(start_up);
  int status = 0;
  for (const simd::Backend backend : simd::SupportedBackends()) {
    if (backend == start_up) continue;
    if (!simd::UseBackend(backend)) return 2;
    if (Fingerprint(args) != printed) {
      std::fprintf(stderr, "fingerprint on %s differs from %s\n",
                   simd::BackendName(backend), simd::BackendName(start_up));
      status = 1;
    }
    checked += std::string(", ") + simd::BackendName(backend);
  }
  if (!simd::UseBackend(start_up)) return 2;
  std::fprintf(stderr, "backends run: %s\n", checked.c_str());
  return status;
}

}  // namespace
}  // namespace ips::bench

int main(int argc, char** argv) {
  return ips::bench::Run(ips::bench::ParseArgs(argc, argv));
}
