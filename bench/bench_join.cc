// Timings and allocation counts of the all-pairs join (docs/memory.md),
// emitted as machine-readable JSON (BENCH_join.json) in the obs report
// schema.
//
// Three sections:
//   join_batch      engine-level all-pairs joins over many short series
//                   (the overhead-dominated regime candidate generation
//                   lives in): BuildTable + JoinAllPairsInto per trial, at
//                   1 and N = hardware threads
//   candidate_gen   end-to-end GenerateCandidates at 1 and N threads
//   allocations     heap allocations inside a warm JoinAllPairsInto batch
//                   over a held table, counted by a global operator-new
//                   override; the per-pair figure differences two batch
//                   sizes so per-batch constants (spans, pool dispatch)
//                   cancel
//
// Every figure is gated on an FNV-1a checksum over the exact output bit
// patterns: the join's minima (values only -- the all-pairs join keeps no
// neighbour indices) must equal AbJoinBoth's values in both directions of
// every pair, and candidate pools must be equal at 1 and N threads. The
// binary exits 1 on any mismatch (bitwise identity is the contract, see
// tests/join_scheduler_test.cc for the strict assertions).
//
// Output: {"experiment", "env" (bench_env.h), "workloads" (shapes),
// "cases": [...], "allocations", "report": obs::ReportToJson over the
// whole run}.
//
// Usage: bench_join [--json=PATH]   (default ./BENCH_join.json)

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <algorithm>
#include <bit>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_env.h"
#include "core/rng.h"
#include "ips/candidate_gen.h"
#include "ips/config.h"
#include "matrix_profile/mp_engine.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/timer.h"

// ------------------------------------------------- allocation counting
//
// Global operator-new override: every heap allocation in the binary bumps
// one relaxed atomic while counting is enabled. Deletes are not counted
// (the claim under test is "the hot loop does not allocate", and frees of
// warm buffers would only mask missed news).

namespace {
std::atomic<size_t> g_alloc_count{0};
std::atomic<bool> g_alloc_counting{false};

inline void CountAlloc() {
  if (g_alloc_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

void* operator new(std::size_t size) {
  CountAlloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  CountAlloc();
  if (void* p = std::aligned_alloc(static_cast<size_t>(align), size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// Every delete form frees through one out-of-line function: inlined into
// a caller, a bare std::free of the pointer an operator new returned is a
// pairing GCC's -Wmismatched-new-delete cannot tell from a real mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}

namespace ips::bench {
namespace {

// ------------------------------------------------------------ checksums

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline void FnvMix(uint64_t& h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffULL;
    h *= kFnvPrime;
  }
}

uint64_t ChecksumJoins(const std::vector<PairMinima>& joins) {
  uint64_t h = kFnvOffset;
  for (const PairMinima& pj : joins) {
    FnvMix(h, pj.a);
    FnvMix(h, pj.b);
    for (const std::vector<double>* side : {&pj.a_vs_b, &pj.b_vs_a}) {
      for (double v : *side) FnvMix(h, std::bit_cast<uint64_t>(v));
    }
  }
  return h;
}

uint64_t ChecksumPool(const CandidatePool& pool) {
  uint64_t h = kFnvOffset;
  for (const auto* side : {&pool.motifs, &pool.discords}) {
    for (const auto& [label, subs] : *side) {
      FnvMix(h, static_cast<uint64_t>(label));
      for (const Subsequence& s : subs) {
        FnvMix(h, static_cast<uint64_t>(s.series_index));
        FnvMix(h, s.start);
        for (double v : s.values) FnvMix(h, std::bit_cast<uint64_t>(v));
      }
    }
  }
  return h;
}

// ------------------------------------------------------------ workloads

// Many short series: the all-pairs regime candidate generation runs in,
// where per-pair overhead (setup, mallocs, cold artefacts) is a large
// share of the sweep cost. 256 series -> 32640 unordered pairs.
std::vector<std::vector<double>> MakeBatch(size_t count, size_t len,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> series(count);
  for (auto& s : series) {
    s.resize(len);
    double x = 0.0;
    for (double& v : s) {
      x += rng.Uniform() - 0.5;
      v = x;
    }
  }
  return series;
}

std::vector<std::span<const double>> ViewsOf(
    const std::vector<std::vector<double>>& series) {
  return {series.begin(), series.end()};
}

// Both directions' values of every lexicographic pair from AbJoinBoth, the
// serial index-keeping join.
std::vector<PairMinima> ReferenceJoins(
    const std::vector<std::span<const double>>& views, size_t window) {
  MatrixProfileEngine engine(1);
  std::vector<PairMinima> joins;
  for (size_t i = 0; i < views.size(); ++i) {
    for (size_t j = i + 1; j < views.size(); ++j) {
      PairJoin both = engine.AbJoinBoth(views[i], views[j], window);
      PairMinima pm;
      pm.a = i;
      pm.b = j;
      pm.a_vs_b = std::move(both.a_vs_b.values);
      pm.b_vs_a = std::move(both.b_vs_a.values);
      joins.push_back(std::move(pm));
    }
  }
  return joins;
}

double BestOfS(const std::function<void()>& fn, int trials) {
  double best = 1e300;
  for (int t = 0; t < trials; ++t) {
    Timer timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Case {
  std::string section;
  size_t threads = 0;
  double seconds = 0.0;
  uint64_t checksum = 0;
  bool checksum_ok = false;

  obs::JsonValue ToJson() const {
    obs::JsonValue e = obs::JsonValue::Object();
    e.Set("section", section);
    e.Set("threads", threads);
    e.Set("seconds", seconds);
    e.Set("checksum", Hex(checksum));
    e.Set("checksum_ok", checksum_ok);
    return e;
  }
};

// Engine-level batch: every trial builds a fresh table and sweeps it,
// matching candidate generation's table-per-profile lifecycle.
Case BenchJoinBatch(const std::vector<std::span<const double>>& views,
                    size_t window, size_t threads, int trials,
                    uint64_t reference) {
  Case c;
  c.section = "join_batch";
  c.threads = threads;
  MatrixProfileEngine engine(threads);
  std::vector<PairMinima> joins;
  const auto run = [&] {
    engine.JoinAllPairsInto(engine.BuildTable(views, window), joins);
  };
  // Untimed warmup: page in code and data, fault in the output capacity,
  // so the first timed trial is not systematically colder than the rest.
  run();
  c.seconds = BestOfS(run, trials);
  c.checksum = ChecksumJoins(joins);
  c.checksum_ok = c.checksum == reference;
  return c;
}

Case BenchCandidateGen(const TrainTestSplit& data, size_t threads,
                       int trials) {
  Case c;
  c.section = "candidate_gen";
  c.threads = threads;
  IpsOptions options;
  options.sample_count = 8;
  options.sample_size = 10;
  options.num_threads = threads;
  const auto run = [&] {
    Rng rng(options.seed);
    c.checksum = ChecksumPool(GenerateCandidates(data.train, options, rng));
  };
  run();  // untimed warmup, see BenchJoinBatch
  c.seconds = BestOfS(run, trials);
  return c;
}

// Heap allocations inside one steady-state batch: the caller holds the
// artifact table, the output vector its capacity, the thread-local arenas
// their slabs -- the state every batch after the first runs in. Counted
// for the measuring thread AND the pool workers.
size_t WarmBatchAllocs(MatrixProfileEngine& engine, const ArtifactTable& table,
                       std::vector<PairMinima>& joins) {
  engine.JoinAllPairsInto(table, joins);  // size joins
  engine.JoinAllPairsInto(table, joins);  // settle arena high-water
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_alloc_counting.store(true, std::memory_order_relaxed);
  engine.JoinAllPairsInto(table, joins);
  g_alloc_counting.store(false, std::memory_order_relaxed);
  return g_alloc_count.load(std::memory_order_relaxed);
}

int Main(int argc, char** argv) {
  std::string json_path = "BENCH_join.json";
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
    if (arg.rfind("--ucr_dir=", 0) == 0) args.ucr_dir = arg.substr(10);
  }

  const obs::MetricsSnapshot metrics_before =
      obs::MetricsRegistry::Instance().Snapshot();
  const obs::TraceSnapshot trace_before =
      obs::TraceRegistry::Instance().Snapshot();

  const size_t window = 8;
  const size_t count = 256, small_count = 128, len = 20;
  const auto series = MakeBatch(count, len, /*seed=*/7);
  const auto views = ViewsOf(series);
  const auto small_series = MakeBatch(small_count, len, /*seed=*/7);
  const auto small_views = ViewsOf(small_series);
  const uint64_t reference = ChecksumJoins(ReferenceJoins(views, window));
  const uint64_t small_reference =
      ChecksumJoins(ReferenceJoins(small_views, window));
  const TrainTestSplit data = GetDataset("ItalyPowerDemand", args);

  const size_t n_threads = std::max<size_t>(2, HardwareThreads());
  std::vector<Case> cases;
  for (size_t threads : {size_t{1}, n_threads}) {
    cases.push_back(BenchJoinBatch(views, window, threads, 5, reference));
  }
  // Candidate pools have no free-kernel reference; the N-thread pool must
  // equal the serial one.
  Case gen_serial = BenchCandidateGen(data, 1, 3);
  Case gen_parallel = BenchCandidateGen(data, n_threads, 3);
  gen_serial.checksum_ok = true;
  gen_parallel.checksum_ok = gen_parallel.checksum == gen_serial.checksum;
  cases.push_back(gen_serial);
  cases.push_back(gen_parallel);

  // Allocation counts at two batch sizes; the per-pair slope differences
  // out per-batch constants (span labels, pool region dispatch).
  const size_t pairs_small = small_count * (small_count - 1) / 2;
  const size_t pairs_large = count * (count - 1) / 2;
  size_t allocs_small = 0, allocs_large = 0;
  bool allocs_ok = true;
  {
    MatrixProfileEngine engine(n_threads);
    const ArtifactTable table = engine.BuildTable(small_views, window);
    std::vector<PairMinima> joins;
    allocs_small = WarmBatchAllocs(engine, table, joins);
    allocs_ok = allocs_ok && ChecksumJoins(joins) == small_reference;
  }
  {
    MatrixProfileEngine engine(n_threads);
    const ArtifactTable table = engine.BuildTable(views, window);
    std::vector<PairMinima> joins;
    allocs_large = WarmBatchAllocs(engine, table, joins);
    allocs_ok = allocs_ok && ChecksumJoins(joins) == reference;
  }
  const double per_pair_allocs =
      (static_cast<double>(allocs_large) - static_cast<double>(allocs_small)) /
      static_cast<double>(pairs_large - pairs_small);

  bool all_ok = allocs_ok;
  std::printf("%-14s %7s %10s %s\n", "section", "threads", "seconds",
              "checksum");
  for (const Case& c : cases) {
    all_ok = all_ok && c.checksum_ok;
    std::printf("%-14s %7zu %9.4fs %s %s\n", c.section.c_str(), c.threads,
                c.seconds, Hex(c.checksum).c_str(),
                c.checksum_ok ? "ok" : "CHECKSUM MISMATCH");
  }
  std::printf(
      "\nwarm-batch heap allocations (%zu threads): %zu @ %zu pairs, %zu @ "
      "%zu pairs -> %.4f per pair %s\n",
      n_threads, allocs_small, pairs_small, allocs_large, pairs_large,
      per_pair_allocs, allocs_ok ? "ok" : "CHECKSUM MISMATCH");

  obs::JsonValue shapes = obs::JsonValue::Array();
  {
    obs::JsonValue e = obs::JsonValue::Object();
    e.Set("workload", "join_batch");
    e.Set("series", count);
    e.Set("length", len);
    e.Set("window", window);
    shapes.Append(std::move(e));
  }
  {
    obs::JsonValue e = obs::JsonValue::Object();
    e.Set("workload", "candidate_gen");
    e.Set("dataset", "ItalyPowerDemand");
    e.Set("train", data.train.size());
    e.Set("length", data.train.MinLength());
    shapes.Append(std::move(e));
  }
  obs::JsonValue case_arr = obs::JsonValue::Array();
  for (const Case& c : cases) case_arr.Append(c.ToJson());
  obs::JsonValue alloc = obs::JsonValue::Object();
  alloc.Set("threads", n_threads);
  alloc.Set("warm_batch_allocs_small", allocs_small);
  alloc.Set("warm_batch_allocs_large", allocs_large);
  alloc.Set("pairs_small", pairs_small);
  alloc.Set("pairs_large", pairs_large);
  alloc.Set("per_pair_allocs", per_pair_allocs);
  alloc.Set("checksum_ok", allocs_ok);

  obs::JsonValue doc = obs::JsonValue::Object();
  doc.Set("experiment", "join_all_pairs");
  doc.Set("env", BenchEnvJson());
  doc.Set("workloads", std::move(shapes));
  doc.Set("cases", std::move(case_arr));
  doc.Set("allocations", std::move(alloc));
  doc.Set("report",
          obs::ReportToJson(
              obs::TraceRegistry::Instance().DeltaSince(trace_before),
              obs::MetricsRegistry::Instance().DeltaSince(metrics_before)));
  if (!obs::WriteJsonFile(doc, json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  if (!all_ok) {
    std::fprintf(stderr,
                 "FAIL: checksums differ (join minima must equal "
                 "AbJoinBoth's values, candidate pools must agree across "
                 "thread counts)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ips::bench

int main(int argc, char** argv) { return ips::bench::Main(argc, argv); }
