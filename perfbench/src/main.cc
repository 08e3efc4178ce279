// ips_perfbench: the repository benchmark program.
//
//   ips_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --daemon PATH --workdir DIR [--source_id ID]
//
// One run sets the workload up (inputs generated from the seed, files
// written, warm-up fit and predict, ips_serve booted on the first model),
// then measures for about S seconds: warm IpsClassifier::Fit, offline
// PredictBatch, open-loop single-series classify against the daemon, a
// closed-loop bulk client, and Reload round trips (the traced run adds
// per-layer probes and a two-thread fit). It checks every output on the
// way and prints, as its last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. The line before it
// is a JSON detail block (environment, per-phase accounting). Exits 1 when
// any correctness gate fails. perfbench/README.md documents the metrics,
// workloads and steadiness rules.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "classify/svm.h"
#include "core/distance_engine.h"
#include "core/simd.h"
#include "data/generator.h"
#include "data/ucr_loader.h"
#include "ips/pipeline.h"
#include "ips/serialization.h"
#include "layers.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve_load.h"
#include "store/columnar_store.h"
#include "store/store_writer.h"
#include "transform/shapelet_transform.h"
#include "util.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using ips::Timer;

// --------------------------------------------------------------- workloads

struct WorkloadSpec {
  const char* name;
  int classes;
  size_t train;
  size_t test;
  size_t length;
  size_t threads;            ///< IpsOptions::num_threads, never 0 (auto)
  bool store;                ///< train set read through a ColumnarStore
  double rate_hz;            ///< open-loop arrival rate
  size_t predict_batch;      ///< offline PredictBatch batch size
  double reload_at_s;        ///< reload this far into each open-loop slice (<0: none)
};

// Why each exists is in perfbench/README.md.
constexpr WorkloadSpec kWorkloads[] = {
    {"short_series", 4, 400, 20000, 128, 1, false, 800.0, 500, -1.0},
    {"store_reload", 8, 2000, 2000, 256, 1, true, 250.0, 250, 0.2},
};

// The --seconds budget is split into this many rounds of every phase.
constexpr int kRounds = 8;

constexpr size_t kServePoolMax = 2048;  // test series the load draws from
constexpr size_t kChunkBytes = size_t{1} << 18;  // 16 chunks on store_reload
constexpr size_t kBulkBatch = 64;       // ips_serve's default --max_batch

// The traced run's multi-threaded fit: the only place the util pool
// dispatches work (every timed phase runs at one thread).
constexpr size_t kPoolThreads = 2;
constexpr int kPoolFits = 3;

// Every test-set accuracy must reach this; accuracy is deterministic per
// seed, and across seeds 101-110 it stayed above 0.96 on both workloads.
constexpr double kAccuracyFloor = 0.9;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string daemon;
  std::string workdir;
  std::string source_id = "unknown";
};

// Untraced runs set up this many times, each timed the same way, and
// report the median.
constexpr int kSetupRepeats = 5;

// ------------------------------------------------------------ accounting

/// Sent / succeeded / failed per phase, printed in the detail block and
/// summed into the result line's attempted / failed.
struct Ledger {
  std::map<std::string, Counts> phases;
  std::vector<std::string> gate_failures;

  void Gate(bool ok, const std::string& what) {
    if (!ok) {
      gate_failures.push_back(what);
      std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
    }
  }
  void Add(const std::string& phase, bool ok) {
    Counts& c = phases[phase];
    ++c.sent;
    ++(ok ? c.succeeded : c.failed);
  }
  void Merge(const std::string& phase, const Counts& counts) {
    Counts& c = phases[phase];
    c.sent += counts.sent;
    c.succeeded += counts.succeeded;
    c.failed += counts.failed;
  }
  uint64_t Attempted() const {
    uint64_t n = 0;
    for (const auto& [name, c] : phases) n += c.sent;
    return n;
  }
  uint64_t Failed() const {
    uint64_t n = 0;
    for (const auto& [name, c] : phases) n += c.failed;
    return n;
  }
};

struct Metric {
  double value;
  const char* unit;
};

/// Samples of one timed quantity, as measured and host-normalized: scaled
/// by kProbeQuietSeconds over the host probe taken next to the sample, so
/// the host's slow spells (up to 1.6x, tens of seconds long) cancel. See
/// README.md, Steadiness.
struct Samples {
  std::vector<double> raw;
  std::vector<double> normalized;

  void AddDuration(double seconds, double probe_s) {
    raw.push_back(seconds);
    normalized.push_back(seconds * kProbeQuietSeconds / probe_s);
  }
  void AddRate(double per_s, double probe_s) {
    raw.push_back(per_s);
    normalized.push_back(per_s * probe_s / kProbeQuietSeconds);
  }
};

/// Takes host probes and keeps every reading for the detail block.
struct Prober {
  std::vector<double> seconds;
  double operator()() {
    seconds.push_back(HostProbeSeconds());
    return seconds.back();
  }
};

// ------------------------------------------------------------------ setup

/// Everything a run measures against: generated inputs, files on disk, the
/// warm model and the booted daemon.
struct Prepared {
  ips::TrainTestSplit data;
  std::unique_ptr<ips::store::ColumnarStore> segment;
  const ips::DatasetView* train = nullptr;
  std::vector<ips::Dataset> predict_batches;
  ips::Dataset pool_set;              // the first kServePoolMax test series
  std::vector<ips::SeriesView> pool;  // views into pool_set
  std::string train_path;
  ArtifactSwap swap;
  std::unique_ptr<ips::IpsClassifier> model;
  uint64_t fingerprint = 0;
  Daemon daemon;
};

uint64_t GeneratorSeed(const WorkloadSpec& w, uint64_t seed) {
  uint64_t h = kFnvOffset;
  for (const char* c = w.name; *c != '\0'; ++c) FnvMix(h, static_cast<uint8_t>(*c));
  FnvMix(h, seed);
  return h == 0 ? 1 : h;
}

ips::IpsOptions FitOptions(const WorkloadSpec& w) {
  ips::IpsOptions options;  // paper defaults
  options.num_threads = w.threads;
  return options;
}

uint64_t CorpusBytes(const ips::DatasetView& data) {
  uint64_t bytes = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    bytes += data.At(i).values.size() * sizeof(double);
  }
  return bytes;
}

/// One full set-up. Returns nullptr (with `*error`) on failure.
std::unique_ptr<Prepared> Setup(const WorkloadSpec& w, const Args& args,
                                std::string* error) {
  auto p = std::make_unique<Prepared>();
  ips::GeneratorSpec spec;
  spec.name = w.name;
  spec.num_classes = w.classes;
  spec.train_size = w.train;
  spec.test_size = w.test;
  spec.length = w.length;
  spec.seed = GeneratorSeed(w, args.seed);
  p->data = ips::GenerateDataset(spec);

  const ips::Dataset& test = p->data.test;
  for (size_t start = 0; start < test.size(); start += w.predict_batch) {
    ips::Dataset batch;
    for (size_t i = start; i < std::min(test.size(), start + w.predict_batch);
         ++i) {
      batch.Add(test[i]);
    }
    p->predict_batches.push_back(std::move(batch));
  }
  for (size_t i = 0; i < std::min(test.size(), kServePoolMax); ++i) {
    p->pool_set.Add(test[i]);
  }
  for (size_t i = 0; i < p->pool_set.size(); ++i) {
    p->pool.push_back(p->pool_set.At(i));
  }

  // Files the daemon reads: the train split (text, or a store segment).
  if (w.store) {
    p->train_path = args.workdir + "/train.ips";
    ips::store::StoreWriter::Options options;
    options.chunk_target_bytes = kChunkBytes;
    if (!ips::store::WriteDatasetToStore(p->data.train, p->train_path,
                                         options, error)) {
      return nullptr;
    }
    ips::store::ColumnarStore::Options open;
    open.budget_bytes = CorpusBytes(p->data.train) / 2;
    p->segment = ips::store::ColumnarStore::Open(p->train_path, open, error);
    if (p->segment == nullptr) return nullptr;
    p->train = p->segment.get();
  } else {
    p->train_path = args.workdir + "/train.tsv";
    if (!ips::SaveUcrFile(p->data.train, p->train_path)) {
      *error = "cannot write " + p->train_path;
      return nullptr;
    }
    p->train = &p->data.train;
  }

  // Warm-up fit and predict; the fit's model is artifact A.
  p->model = std::make_unique<ips::IpsClassifier>(FitOptions(w));
  p->model->Fit(*p->train);
  p->fingerprint = ShapeletFingerprint(p->model->shapelets());
  (void)p->model->PredictBatch(p->predict_batches.front());

  // Artifact B: A minus its last shapelet, so a swap changes the model.
  ips::RunResult alternate = p->model->result();
  alternate.shapelets.pop_back();
  p->swap.path = args.workdir + "/model.ipsrun";
  p->swap.a_bytes = ips::SerializeRunResult(p->model->result());
  p->swap.b_bytes = ips::SerializeRunResult(alternate);
  if (!WriteFileAtomic(p->swap.path, p->swap.a_bytes)) {
    *error = "cannot write " + p->swap.path;
    return nullptr;
  }
  if (!p->daemon.Start(args.daemon, p->swap.path, p->train_path, error)) {
    return nullptr;
  }
  return p;
}

// ------------------------------------------------------------ trace probes

/// Per-layer numbers a fit does not give: store write/open speed and
/// in-process registry load cost. Needs the in-RAM train split.
void ProbeStoreAndRegistry(const WorkloadSpec& w, const Args& args,
                           Prepared& p, std::map<std::string, Metric>* out) {
  std::vector<double> parse_s;
  for (int i = 0; i < 3; ++i) {
    Timer t;
    const auto run = ips::LoadRunResult(p.swap.path);
    parse_s.push_back(t.ElapsedSeconds());
    if (!run) parse_s.back() = std::nan("");
  }
  ips::serve::ModelRegistry registry;
  Timer load;
  const uint32_t version = registry.Load(
      "probe", ips::serve::ModelSource{p.swap.path, p.train_path,
                                       ips::IpsOptions{}});
  const double load_s = load.ElapsedSeconds();
  (*out)["serve.artifact_parse_s"] = {Median(parse_s), "s"};
  (*out)["serve.refit_s"] = {version == 0 ? 0.0 : load_s - Median(parse_s),
                             "s"};

  double write_mb_per_s = 0.0;
  double open_s = 0.0;
  if (w.store) {
    const std::string path = args.workdir + "/probe.ips";
    ips::store::StoreWriter::Options options;
    options.chunk_target_bytes = kChunkBytes;
    Timer write;
    const bool ok =
        ips::store::WriteDatasetToStore(p.data.train, path, options);
    const double write_s = write.ElapsedSeconds();
    if (ok) {
      write_mb_per_s = static_cast<double>(std::filesystem::file_size(path)) /
                       (1024.0 * 1024.0) / write_s;
      std::vector<double> opens;
      for (int i = 0; i < 5; ++i) {
        Timer t;
        const auto segment = ips::store::ColumnarStore::Open(path);
        opens.push_back(t.ElapsedSeconds());
      }
      open_s = Median(opens);
    }
    std::filesystem::remove(path);
  }
  (*out)["store.write_mb_per_s"] = {write_mb_per_s, "MiB/s"};
  (*out)["store.open_s"] = {open_s, "s"};
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// One warm fit of the traced run: its stage self times (from Fit's own
/// trace) and the obs registry delta across the call.
struct TracedFit {
  std::map<std::string, double> self_s;
  ips::obs::MetricsSnapshot metrics;
};

/// Per-layer metrics from the traced fits (median times, counts of the
/// last fit), the transform/classify probe and the two-thread fits.
void LayerMetrics(const std::vector<TracedFit>& fits,
                  const ips::obs::MetricsSnapshot& probe_metrics,
                  const ips::obs::MetricsSnapshot& pool_metrics,
                  const ips::store::ColumnarStore* segment,
                  std::map<std::string, Metric>* out) {
  const TracedFit& last = fits.back();
  for (const auto& [name, unused] : last.self_s) {
    std::vector<double> seconds;
    for (const TracedFit& f : fits) seconds.push_back(f.self_s.at(name));
    (*out)[name] = {Median(seconds), "s"};
  }

  const auto c = [&](const char* name) {
    return last.metrics.CounterValue(name);
  };
  const uint64_t generated =
      c("ips.motifs_generated") + c("ips.discords_generated");
  (*out)["ips.candidates"] = {static_cast<double>(generated), "count"};
  (*out)["ips.prune_kept_ratio"] = {
      Ratio(c("ips.motifs_after_prune") + c("ips.discords_after_prune"),
            generated),
      "fraction"};
  (*out)["matrix_profile.joins"] = {static_cast<double>(c("mp.joins_computed")),
                                    "count"};
  (*out)["matrix_profile.qt_sweeps"] = {static_cast<double>(c("mp.qt_sweeps")),
                                        "count"};
  (*out)["matrix_profile.joins_halved"] = {
      static_cast<double>(c("mp.joins_halved")), "count"};
  (*out)["matrix_profile.cache_hit_ratio"] = {
      Ratio(c("mp.cache_hits"), c("mp.cache_hits") + c("mp.cache_misses")),
      "fraction"};
  (*out)["matrix_profile.table_reuse_ratio"] = {
      Ratio(c("engine.artifact_table.reuses"),
            c("engine.artifact_table.reuses") +
                c("engine.artifact_table.builds")),
      "fraction"};

  // The core engine works in both the fit and the predict probe.
  const auto both = [&](const char* name) {
    return c(name) + probe_metrics.CounterValue(name);
  };
  (*out)["core.profiles"] = {static_cast<double>(both("engine.profiles_computed")),
                             "count"};
  (*out)["core.stats_cache_hit_ratio"] = {
      Ratio(both("engine.stats_cache_hits"),
            both("engine.stats_cache_hits") + both("engine.stats_cache_misses")),
      "fraction"};
  (*out)["core.eab_pruned_ratio"] = {
      Ratio(both("engine.eab.lb_pruned") + both("engine.eab.abandoned"),
            both("engine.eab.candidates")),
      "fraction"};
  (*out)["core.eab_full"] = {static_cast<double>(both("engine.eab.full")),
                             "count"};
  (*out)["core.arena_slab_allocs"] = {
      static_cast<double>(both("engine.arena.slab_allocs")), "count"};

  // Pool counters per two-thread fit.
  const auto pool = [&](const char* name) {
    return static_cast<double>(pool_metrics.CounterValue(name)) / kPoolFits;
  };
  (*out)["util.pool_regions"] = {pool("pool.regions_dispatched"), "count"};
  (*out)["util.pool_inline_regions"] = {pool("pool.regions_inline"), "count"};
  (*out)["util.pool_tasks"] = {pool("pool.tasks_run"), "count"};
  (*out)["util.pool_steals"] = {pool("pool.chunk_steals"), "count"};

  const uint64_t loads = c("store.chunk_loads");
  (*out)["store.chunk_loads"] = {static_cast<double>(loads), "count"};
  (*out)["store.chunk_hit_ratio"] = {
      Ratio(c("store.chunk_hits"), c("store.chunk_hits") + loads), "fraction"};
  (*out)["store.loads_per_chunk"] = {
      segment == nullptr ? 0.0 : Ratio(loads, segment->num_chunks()),
      "count"};
  (*out)["store.resident_high_water_mb"] = {
      segment == nullptr
          ? 0.0
          : static_cast<double>(segment->resident_high_water()) /
                (1024.0 * 1024.0),
      "MiB"};
  (*out)["store.sidecar_stats"] = {static_cast<double>(c("store.sidecar_stats")),
                                   "count"};
}

// -------------------------------------------------------------------- run

std::string ExtractFlag(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "missing value for %s\n", argv[i]);
    std::exit(2);
  }
  return argv[++i];
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      a.workload = ExtractFlag(argc, argv, i);
    } else if (flag == "--seed") {
      a.seed = std::strtoull(ExtractFlag(argc, argv, i).c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(ExtractFlag(argc, argv, i).c_str());
    } else if (flag == "--trace") {
      a.trace = ExtractFlag(argc, argv, i) == "1";
    } else if (flag == "--daemon") {
      a.daemon = ExtractFlag(argc, argv, i);
    } else if (flag == "--workdir") {
      a.workdir = ExtractFlag(argc, argv, i);
    } else if (flag == "--source_id") {
      a.source_id = ExtractFlag(argc, argv, i);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      std::exit(2);
    }
  }
  return a;
}

ips::obs::JsonValue CountsJson(const Counts& c) {
  ips::obs::JsonValue j = ips::obs::JsonValue::Object();
  j.Set("sent", c.sent);
  j.Set("succeeded", c.succeeded);
  j.Set("failed", c.failed);
  return j;
}

int Run(const Args& args, Timer& since_start) {
  const WorkloadSpec* found = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr || args.daemon.empty() || args.workdir.empty() ||
      args.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: ips_perfbench --workload short_series|store_reload "
                 "--seed N --seconds S --trace 0|1 --daemon PATH "
                 "--workdir DIR\n");
    return 2;
  }
  const WorkloadSpec& w = *found;
  const double S = args.seconds;
  Ledger ledger;
  std::map<std::string, Metric> metrics;

  // ---- set-up, several times; each ends with a serving daemon.
  Prober probe;
  Samples setup_s;
  std::unique_ptr<Prepared> p;
  const int repeats = args.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    p.reset();  // stop the previous daemon before its files are rewritten
    const double before = probe();
    Timer t;
    std::string error;
    p = Setup(w, args, &error);
    if (p == nullptr) {
      std::fprintf(stderr, "setup failed: %s\n", error.c_str());
      return 1;
    }
    const double seconds = t.ElapsedSeconds();
    setup_s.AddDuration(seconds, 0.5 * (before + probe()));
  }
  const ips::IpsOptions options = FitOptions(w);
  // Serving and predict cost scale with the discovered shapelets' lengths.
  const size_t shapelets = p->model->shapelets().size();
  size_t shapelet_values = 0;
  for (const ips::Subsequence& s : p->model->shapelets()) {
    shapelet_values += s.length();
  }

  // ---- ground truth and the gates that need the in-RAM train split.
  Expected expected;
  expected.a = p->model->PredictBatch(p->pool_set);
  {
    ips::RunResult alternate;
    const auto parsed = ips::DeserializeRunResult(p->swap.b_bytes);
    ledger.Gate(parsed.has_value(), "artifact B round-trips");
    if (parsed) {
      ips::IpsClassifier b;
      b.FitFromRunResult(p->data.train, *parsed);
      expected.b = b.PredictBatch(p->pool_set);
    }
  }
  if (w.store) {
    // Store-backed fit == in-RAM fit: same shapelets, and the same labels
    // as a model rebuilt from the in-RAM split.
    ips::IpsOptions ram_options = options;
    const ips::RunResult ram = ips::DiscoverShapelets(p->data.train, ram_options);
    ledger.Gate(ShapeletFingerprint(ram.shapelets) == p->fingerprint,
                "store-backed discovery equals in-RAM discovery");
    ips::IpsClassifier ram_model;
    ram_model.FitFromRunResult(p->data.train, p->model->result());
    ledger.Gate(ram_model.PredictBatch(p->pool_set) == expected.a,
                "store-backed model labels equal in-RAM model labels");
  }
  if (args.trace) ProbeStoreAndRegistry(w, args, *p, &metrics);
  if (w.store) p->data.train = ips::Dataset();  // the store serves from here

  const bool hwm_reset = ResetVmHwm();

  // ---- timed rounds. The host's speed drifts over seconds, so a phase run
  // in one block measures one slice of that drift; each round runs every
  // phase once, and the reported percentiles pool samples from the whole
  // run. Shares of a round: fit 25%, predict 10%, open loop 35%, bulk 10%,
  // reload 20%.
  Samples fit_s;
  Samples reload_s;  // standalone reloads, none in flight
  std::vector<TracedFit> traced_fits;
  std::vector<double> obs_s;  // a registry snapshot + delta, as around a fit
  Samples batch_rate;
  const size_t num_batches = p->predict_batches.size();
  std::vector<std::vector<int>> first_pass(num_batches);
  size_t batches_done = 0;
  Reloader reloader(p->swap, /*current_version=*/1);
  std::string error;
  const bool control = reloader.Connect(p->daemon.port(), &error);
  ledger.Gate(control, "control connection: " + error);
  OpenLoopOptions open;
  open.rate_hz = w.rate_hz;
  open.seconds = 0.35 * S / kRounds;
  open.workers = static_cast<int>(
      std::clamp<size_t>(ips::HardwareThreads(), 2, 4) - 1);
  open.reload_at_s = w.reload_at_s;
  ServeResult served;
  ServeResult bulk;
  Samples bulk_rate;  // per frame
  ServerStats server;
  const double round_s = S / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    // Warm fits. The traced run reads each fit's own stage spans and the
    // obs registry delta across the call.
    for (Timer phase; phase.ElapsedSeconds() < 0.25 * round_s;) {
      ips::IpsClassifier clf(options);
      const double before = probe();
      ips::obs::MetricsSnapshot registry_before;
      Timer snapshot;
      if (args.trace) {
        registry_before = ips::obs::MetricsRegistry::Instance().Snapshot();
      }
      const double snapshot_s = snapshot.ElapsedSeconds();
      Timer t;
      clf.Fit(*p->train);
      const double wall = t.ElapsedSeconds();
      fit_s.AddDuration(wall, 0.5 * (before + probe()));
      const bool same = ShapeletFingerprint(clf.shapelets()) == p->fingerprint;
      ledger.Add("fit", same);
      ledger.Gate(same, "fit fingerprint equals the set-up fit's");
      if (args.trace) {
        Timer obs;
        TracedFit f{StageSelfTimes(clf.result().trace),
                    ips::obs::MetricsRegistry::Instance().DeltaSince(
                        registry_before)};
        obs_s.push_back(snapshot_s + obs.ElapsedSeconds());
        const double off = std::fabs(SelfSum(f.self_s) - wall) / wall;
        ledger.Gate(off <= 0.05, "per-layer self times sum to within 5% of "
                                 "the fit's wall time (off by " +
                                     std::to_string(100.0 * off) + "%)");
        traced_fits.push_back(std::move(f));
      }
    }

    // Offline predict: fixed-size batches, cycling through the test split.
    for (Timer phase; phase.ElapsedSeconds() < 0.1 * round_s; ++batches_done) {
      const size_t b = batches_done % num_batches;
      const ips::Dataset& batch = p->predict_batches[b];
      const double before = probe();
      Timer t;
      std::vector<int> labels = p->model->PredictBatch(batch);
      batch_rate.AddRate(static_cast<double>(batch.size()) / t.ElapsedSeconds(),
                         before);
      if (first_pass[b].empty()) {
        ledger.Add("predict", labels.size() == batch.size());
        first_pass[b] = std::move(labels);
      } else {
        ledger.Add("predict", labels == first_pass[b]);
      }
    }

    // Served: an open-loop slice (with reloads on store_reload), then bulk.
    open.seed =
        GeneratorSeed(w, args.seed) ^ (0x9e3779b97f4a7c15ULL * (round + 1));
    Append(served, RunOpenLoop(p->daemon.port(), p->pool, expected, open,
                               w.reload_at_s >= 0.0 ? &reloader : nullptr));
    // The daemon's histograms are cumulative: read them while they hold
    // open-loop requests only.
    if (round == 0) {
      server = FetchServerStats(p->daemon.port());
      ledger.Gate(server.ok, "stats frame readable");
    }
    const double bulk_before = probe();
    const ServeResult frames = RunBulk(p->daemon.port(), p->pool, expected,
                                       kBulkBatch, 0.1 * round_s, 4,
                                       args.seed + round);
    const double bulk_probe = 0.5 * (bulk_before + probe());
    for (double us : frames.latency_us) {
      bulk_rate.AddRate(kBulkBatch * 1e6 / us, bulk_probe);
    }
    Append(bulk, frames);

    // Reload round trips with no other traffic. (store_reload's reloads
    // during the open loop load the serving path; their round trips are
    // not timed.)
    for (Timer phase; phase.ElapsedSeconds() < 0.2 * round_s;) {
      const double before = probe();
      const std::optional<double> seconds = reloader.ReloadOnce();
      if (!seconds) break;
      reload_s.AddDuration(*seconds, 0.5 * (before + probe()));
    }
  }
  ledger.Merge("open_loop", served.requests);
  ledger.Gate(served.served_checksum == served.offline_checksum,
              "open-loop served labels equal offline PredictBatch labels");
  ledger.Merge("bulk", bulk.requests);
  ledger.Gate(bulk.served_checksum == bulk.offline_checksum,
              "bulk served labels equal offline PredictBatch labels");
  ledger.Gate(ledger.phases["predict"].failed == 0,
              "repeated PredictBatch labels are identical");
  ledger.Merge("reload", reloader.counts());
  ledger.Gate(!reload_s.raw.empty(), "at least one reload succeeded");
  // The model the last reload installed must answer like its offline twin.
  const ServeResult after_reload =
      RunBulk(p->daemon.port(), p->pool, expected, 8, 0.0, 1, args.seed + 1);
  ledger.Merge("post_reload_check", after_reload.requests);

  const double peak_rss = VmHwmMiB();
  const double serve_rss = p->daemon.VmHwmMiB();

  // Accuracy over the whole test split; batches the rounds did not reach
  // are predicted here, untimed.
  size_t right = 0, total = 0;
  for (size_t b = 0; b < num_batches; ++b) {
    if (first_pass[b].empty()) {
      first_pass[b] = p->model->PredictBatch(p->predict_batches[b]);
    }
    for (size_t i = 0; i < p->predict_batches[b].size(); ++i, ++total) {
      right += first_pass[b][i] == p->predict_batches[b][i].label;
    }
  }
  const double accuracy = Ratio(right, total);
  ledger.Gate(accuracy >= kAccuracyFloor,
              "test accuracy reaches the floor (" + std::to_string(accuracy) +
                  ")");

  // At least ten samples must lie beyond the client p99 a traced run reports.
  ledger.Gate(served.latency_us.size() >= 1000,
              "open loop left >= 10 samples beyond p99 (" +
                  std::to_string(served.latency_us.size()) + " samples)");

  // ---- traced-run probes: transform + SVM outside the pipeline, and the
  // two-thread fits that put the util pool to work.
  if (args.trace) {
    const std::vector<ips::Subsequence>& shapelets = p->model->shapelets();
    ips::LinearSvm svm(options.svm);
    {
      ips::DistanceEngine engine(options.num_threads);
      engine.set_early_abandon(options.enable_early_abandon);
      ips::TransformedData rows = ips::ShapeletTransform(
          *p->train, shapelets, options.metric, options.num_threads, &engine);
      ips::LabeledMatrix matrix;
      matrix.x = std::move(rows.features);
      matrix.y = std::move(rows.labels);
      svm.Fit(matrix);
    }
    const ips::Dataset& batch = p->predict_batches.front();
    const std::vector<int> want = p->model->PredictBatch(batch);
    std::vector<double> transform_rate, rows_rate;
    const ips::obs::MetricsSnapshot before =
        ips::obs::MetricsRegistry::Instance().Snapshot();
    for (int i = 0; i < 3; ++i) {
      ips::DistanceEngine engine(options.num_threads);
      engine.set_early_abandon(options.enable_early_abandon);
      Timer t;
      const ips::TransformedData rows = ips::ShapeletTransform(
          batch, shapelets, options.metric, options.num_threads, &engine);
      transform_rate.push_back(static_cast<double>(batch.size()) /
                               t.ElapsedSeconds());
      std::vector<int> labels(rows.size());
      Timer s;
      for (size_t k = 0; k < rows.size(); ++k) {
        labels[k] = svm.Predict(rows.features[k]);
      }
      rows_rate.push_back(static_cast<double>(rows.size()) / s.ElapsedSeconds());
      ledger.Add("probe_predict", labels == want);
      ledger.Gate(labels == want,
                  "ShapeletTransform + LinearSvm labels equal PredictBatch's");
    }
    const ips::obs::MetricsSnapshot probe =
        ips::obs::MetricsRegistry::Instance().DeltaSince(before);

    ips::IpsOptions pooled = options;
    pooled.num_threads = kPoolThreads;
    std::vector<double> pooled_s;
    const ips::obs::MetricsSnapshot pool_before =
        ips::obs::MetricsRegistry::Instance().Snapshot();
    for (int i = 0; i < kPoolFits; ++i) {
      ips::IpsClassifier clf(pooled);
      Timer t;
      clf.Fit(*p->train);
      pooled_s.push_back(t.ElapsedSeconds());
      const bool same = ShapeletFingerprint(clf.shapelets()) == p->fingerprint;
      ledger.Add("pool_fit", same);
      ledger.Gate(same, "two-thread fit fingerprint equals the one-thread fit's");
    }
    const ips::obs::MetricsSnapshot pool_delta =
        ips::obs::MetricsRegistry::Instance().DeltaSince(pool_before);

    LayerMetrics(traced_fits, probe, pool_delta, p->segment.get(), &metrics);
    metrics["transform.series_per_s"] = {Median(transform_rate), "series/s"};
    metrics["classify.predict_rows_per_s"] = {Median(rows_rate), "rows/s"};
    metrics["util.fit_speedup_2t"] = {Median(fit_s.raw) / Median(pooled_s),
                                      "ratio"};

    // The benchmark's own observation work per fit, against the fit.
    const double overhead = Median(obs_s) / Median(fit_s.raw);
    metrics["obs.trace_overhead_ratio"] = {overhead, "ratio"};
    ledger.Gate(overhead <= 0.05,
                "registry snapshots cost at most 5% of a fit (" +
                    std::to_string(100.0 * overhead) + "%)");
    std::vector<double> accounted;
    for (size_t i = 0; i < traced_fits.size(); ++i) {
      accounted.push_back(SelfSum(traced_fits[i].self_s) / fit_s.raw[i]);
    }
    metrics["obs.self_time_coverage"] = {Median(accounted), "fraction"};

    const double client_p50 = Quantile(served.latency_us, 0.5);
    metrics["serve.server_latency_us_p50"] = {server.latency_p50_us, "us"};
    metrics["serve.server_latency_us_p99"] = {server.latency_p99_us, "us"};
    metrics["serve.wire_us_p50"] = {client_p50 - server.latency_p50_us, "us"};
    metrics["serve.client_p90_us"] = {Quantile(served.latency_us, 0.9), "us"};
    metrics["serve.client_p99_us"] = {Quantile(served.latency_us, 0.99), "us"};
    metrics["serve.batch_size_mean"] = {server.batch_size_mean, "series"};
    metrics["serve.sent"] = {static_cast<double>(served.requests.sent), "count"};
    metrics["serve.failed"] = {static_cast<double>(served.requests.failed),
                               "count"};
    metrics["serve.generator_late_ms"] = {
        Quantile(served.late_us, 0.99) / 1000.0, "ms"};
  } else {
    // Compute-bound times and rates are host-normalized medians; the
    // detail block carries the medians as measured.
    metrics["setup_s"] = {Median(setup_s.normalized), "s"};
    metrics["fit_s"] = {Median(fit_s.normalized), "s"};
    metrics["predict_series_per_s"] = {Median(batch_rate.normalized),
                                       "series/s"};
    metrics["serve_p50_us"] = {Quantile(served.latency_us, 0.5), "us"};
    metrics["serve_bulk_series_per_s"] = {Median(bulk_rate.normalized),
                                          "series/s"};
    metrics["reload_s"] = {Median(reload_s.normalized), "s"};
    metrics["peak_rss_mb"] = {peak_rss, "MiB"};
    metrics["serve_rss_mb"] = {serve_rss, "MiB"};
    metrics["accuracy"] = {accuracy, "fraction"};
  }
  p.reset();  // stops the daemon

  // ---- detail block: environment and per-phase accounting.
  ips::obs::JsonValue env = ips::obs::JsonValue::Object();
  env.Set("source", args.source_id);
  env.Set("hardware_threads", ips::HardwareThreads());
  env.Set("simd_backend", ips::simd::BackendName());
  env.Set("build_type", IPS_PERFBENCH_BUILD_TYPE);
  env.Set("tracing_enabled", ips::obs::kTracingEnabled);
#if defined(IPS_DISABLE_SIMD)
  env.Set("disable_simd", true);
#else
  env.Set("disable_simd", false);
#endif
#if defined(IPS_DISABLE_EARLY_ABANDON)
  env.Set("disable_early_abandon", true);
#else
  env.Set("disable_early_abandon", false);
#endif
#if defined(IPS_DISABLE_TILING)
  env.Set("disable_tiling", true);
#else
  env.Set("disable_tiling", false);
#endif
  env.Set("workload", w.name);
  env.Set("seed", static_cast<double>(args.seed));
  env.Set("classes", w.classes);
  env.Set("train", w.train);
  env.Set("test", w.test);
  env.Set("length", w.length);
  env.Set("num_threads", w.threads);
  env.Set("store", w.store);
  env.Set("shapelets", shapelets);
  env.Set("shapelet_values", shapelet_values);
  env.Set("open_loop_rate_hz", w.rate_hz);
  env.Set("open_loop_workers", open.workers);
  env.Set("rss_high_water_reset", hwm_reset);
  ips::obs::JsonValue phases = ips::obs::JsonValue::Object();
  for (const auto& [name, c] : ledger.phases) phases.Set(name, CountsJson(c));
  ips::obs::JsonValue gates = ips::obs::JsonValue::Array();
  for (const std::string& g : ledger.gate_failures) gates.Append(g);
  ips::obs::JsonValue detail = ips::obs::JsonValue::Object();
  detail.Set("env", std::move(env));
  detail.Set("phases", std::move(phases));
  detail.Set("failed_gates", std::move(gates));
  detail.Set("setup_s", [&] {
    ips::obs::JsonValue a = ips::obs::JsonValue::Array();
    for (double s : setup_s.raw) a.Append(s);
    return a;
  }());
  ips::obs::JsonValue measured = ips::obs::JsonValue::Object();
  measured.Set("setup_s", Median(setup_s.raw));
  measured.Set("fit_s", Median(fit_s.raw));
  measured.Set("predict_series_per_s", Median(batch_rate.raw));
  measured.Set("serve_bulk_series_per_s", Median(bulk_rate.raw));
  measured.Set("reload_s", Median(reload_s.raw));
  detail.Set("measured_medians", std::move(measured));
  detail.Set("host_probes", probe.seconds.size());
  detail.Set("host_slowdown_median",
             Median(probe.seconds) / kProbeQuietSeconds);
  detail.Set("host_slowdown_p90",
             Quantile(probe.seconds, 0.9) / kProbeQuietSeconds);
  detail.Set("open_loop_samples", served.latency_us.size());
  detail.Set("generator_late_us_p99", Quantile(served.late_us, 0.99));
  detail.Set("generator_late_us_max", Quantile(served.late_us, 1.0));
  detail.Set("reloads", reload_s.raw.size());
  detail.Set("elapsed_s", since_start.ElapsedSeconds());
  std::printf("%s\n", detail.Dump().c_str());

  const bool correct = ledger.gate_failures.empty() && ledger.Failed() == 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ledger.Attempted());
  line += ", \"failed\": " + std::to_string(ledger.Failed());
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : -1.0);
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::fflush(stdout);
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  ips::Timer since_start;
  // One malloc arena: peak_rss_mb then follows the program's allocations,
  // not which pool thread first touched which per-thread arena.
  mallopt(M_ARENA_MAX, 1);
  return perfbench::Run(perfbench::ParseArgs(argc, argv), since_start);
}
