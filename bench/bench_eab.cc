// Early-abandon cascade before/after harness (docs/pruning.md), emitted as
// machine-readable JSON (BENCH_eab.json) in the obs report schema.
//
// Two data regimes, because the cascade's value depends on the data:
//   - "favourable": a shared ramped carrier with class chirps, where every
//     shapelet has a near-twin in every series and the cascade prunes
//     nearly everything;
//   - "prune_hostile": the generator's default noise, where windows barely
//     differ and the cascade bails out, so the transform's bail-out
//     backoff (DistanceEngine::kEabBackoffSeries) carries the cost.
// For each regime and every registered metric, at 1 and 8 threads, two
// workloads run twice -- once with the DistanceEngine's lower-bound
// cascade enabled (the default) and once forced onto the exhaustive dense
// path:
//   - a whole-dataset shapelet-transform batch (TransformBatch) with
//     shapelets cut from the training series;
//   - an IpsClassifier PredictBatch over a held-out test set (the
//     prediction-time transform is the dominant cost).
// Timings are best-of-trials, pruned and exhaustive trials alternating;
// each pruned/exhaustive pair is checked feature-by-feature for bitwise
// equality (the cascade is a pure performance knob) and the run exits
// nonzero on any mismatch. The pruned runs report the cascade counters so
// the JSON records WHERE the time went (lb-pruned vs abandoned vs routed
// past the cascade).
//
// Shapelet lengths stay under core/distance.h's kFftCutoff so every min
// query sits in the naive sliding-dots regime the cascade serves.
//
// Output: {"experiment", "env" (bench_env.h), "workloads" (shapes),
// "cases": [...], "report": obs::ReportToJson over the whole run}.
//
// Usage: bench_eab [--out=PATH]   (default ./BENCH_eab.json)

#include <chrono>
#include <cstdio>

#include <algorithm>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/bench_env.h"
#include "core/distance_engine.h"
#include "core/metric.h"
#include "data/generator.h"
#include "ips/pipeline.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "transform/shapelet_transform.h"

namespace ips {
namespace {

constexpr double kTau = 6.283185307179586;

// Deterministic uniform noise in [-0.5, 0.5); xorshift-free LCG so the
// workload is identical across platforms and runs.
double Noise(uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<double>(state >> 11) / 9007199254740992.0 - 0.5;
}

// One series of the bench workload: an amplitude-ramped sine carrier
// shared by every series (so any extracted query has a near-twin in every
// other series and the best-so-far collapses within the first visits),
// lightly dusted with noise, with a strong per-class chirp implanted at a
// class-dependent offset. The monotone ramp spreads window energies along
// the series, which is exactly what the cascade's O(1) energy band prunes
// on; the class chirp keeps the two classes separable so PredictBatch does
// real work.
TimeSeries MakeSeries(int cls, size_t idx, size_t length) {
  std::vector<double> v(length);
  uint64_t rng = 0x9E3779B97F4A7C15ull ^ (idx * 2654435761ull + cls);
  for (size_t t = 0; t < length; ++t) {
    const double ramp =
        0.5 + 2.5 * static_cast<double>(t) / static_cast<double>(length);
    v[t] = ramp * std::sin(kTau * static_cast<double>(t) / 64.0) +
           0.02 * Noise(rng);
  }
  const size_t pos = cls == 0 ? 96 : 288;
  for (size_t j = 0; j < 64 && pos + j < length; ++j) {
    const double x = static_cast<double>(j) / 64.0;
    v[pos + j] += 1.5 * std::sin(kTau * (4.0 * x * x + static_cast<double>(cls)));
  }
  return TimeSeries(std::move(v), cls);
}

// Best-of-trials nanoseconds per call of `pruned` and `dense`, timed in
// alternating trials so a spell of host slowness hits both sides alike.
constexpr int kTrials = 15;
constexpr int kReps = 2;

std::pair<double, double> BestOfPairNs(const std::function<void()>& pruned,
                                       const std::function<void()>& dense) {
  auto time_ns = [](const std::function<void()>& fn) {
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < kReps; ++r) fn();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(stop - start).count() /
           static_cast<double>(kReps);
  };
  double best_pruned = 1e300;
  double best_dense = 1e300;
  for (int t = 0; t < kTrials; ++t) {
    best_pruned = std::min(best_pruned, time_ns(pruned));
    best_dense = std::min(best_dense, time_ns(dense));
  }
  return {best_pruned, best_dense};
}

bool RowsIdentical(const std::vector<std::vector<double>>& a,
                   const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

double Checksum(const std::vector<std::vector<double>>& rows) {
  double s = 0.0;
  for (const auto& row : rows) {
    for (double x : row) s += x;
  }
  return s;
}

struct EabCase {
  std::string workload;
  std::string metric;
  size_t threads = 0;
  double transform_pruned_ns = 0.0;
  double transform_exhaustive_ns = 0.0;
  double predict_pruned_ns = 0.0;
  double predict_exhaustive_ns = 0.0;
  bool transform_identical = false;
  bool predict_identical = false;
  double transform_checksum = 0.0;
  size_t eab_candidates = 0;
  size_t eab_lb_pruned = 0;
  size_t eab_abandoned = 0;
  size_t eab_full = 0;
  size_t eab_backoff_skips = 0;

  double TransformSpeedup() const {
    return transform_pruned_ns > 0.0
               ? transform_exhaustive_ns / transform_pruned_ns
               : 0.0;
  }
  double PredictSpeedup() const {
    return predict_pruned_ns > 0.0 ? predict_exhaustive_ns / predict_pruned_ns
                                   : 0.0;
  }
  obs::JsonValue ToJson() const {
    obs::JsonValue e = obs::JsonValue::Object();
    e.Set("workload", workload);
    e.Set("metric", metric);
    e.Set("threads", threads);
    e.Set("transform_pruned_ns", transform_pruned_ns);
    e.Set("transform_exhaustive_ns", transform_exhaustive_ns);
    e.Set("transform_speedup", TransformSpeedup());
    e.Set("predict_pruned_ns", predict_pruned_ns);
    e.Set("predict_exhaustive_ns", predict_exhaustive_ns);
    e.Set("predict_speedup", PredictSpeedup());
    e.Set("transform_identical", transform_identical);
    e.Set("predict_identical", predict_identical);
    e.Set("transform_checksum", transform_checksum);
    e.Set("eab_candidates", eab_candidates);
    e.Set("eab_lb_pruned", eab_lb_pruned);
    e.Set("eab_abandoned", eab_abandoned);
    e.Set("eab_full", eab_full);
    e.Set("eab_backoff_skips", eab_backoff_skips);
    return e;
  }
};

// A data regime: train/test split plus the transform's shapelets.
struct Workload {
  std::string name;
  TrainTestSplit data;
  std::vector<Subsequence> shapelets;
};

EabCase BenchOne(const Workload& w, MetricId metric, size_t threads) {
  const TrainTestSplit& data = w.data;
  const std::vector<Subsequence>& shapelets = w.shapelets;
  EabCase r;
  r.workload = w.name;
  r.metric = MetricName(metric);
  r.threads = threads;

  // Transform batch, pruned vs exhaustive. Caches are cleared per rep so
  // every rep recomputes artefacts rather than replaying memoised ones;
  // both paths pay the same artefact cost.
  std::vector<std::vector<double>> pruned_rows, dense_rows;
  DistanceEngine pruned_engine(threads);
  pruned_engine.set_early_abandon(true);
  DistanceEngine dense_engine(threads);
  dense_engine.set_early_abandon(false);
  std::tie(r.transform_pruned_ns, r.transform_exhaustive_ns) = BestOfPairNs(
      [&] {
        pruned_engine.ClearCaches();
        pruned_rows =
            pruned_engine.TransformBatch(data.train, shapelets, metric);
      },
      [&] {
        dense_engine.ClearCaches();
        dense_rows = dense_engine.TransformBatch(data.train, shapelets, metric);
      });
  // Counters accumulate over every rep; the split is what matters, and
  // ratios are rep-invariant.
  const EngineCounters c = pruned_engine.counters();
  r.eab_candidates = c.eab_candidates;
  r.eab_lb_pruned = c.eab_lb_pruned;
  r.eab_abandoned = c.eab_abandoned;
  r.eab_full = c.eab_full;
  r.eab_backoff_skips = c.eab_backoff_skips;
  r.transform_identical = RowsIdentical(pruned_rows, dense_rows);
  r.transform_checksum = Checksum(pruned_rows);

  // PredictBatch, pruned vs exhaustive. Discovery is bitwise identical
  // either way, so both classifiers find the same shapelets; only the
  // prediction-time transform path differs.
  IpsOptions options;
  options.sample_count = 2;
  options.sample_size = 2;
  options.length_ratios = {0.1};
  options.shapelets_per_class = 4;
  options.metric = metric;
  options.num_threads = threads;

  options.enable_early_abandon = true;
  IpsClassifier pruned_clf(options);
  pruned_clf.Fit(data.train);
  options.enable_early_abandon = false;
  IpsClassifier dense_clf(options);
  dense_clf.Fit(data.train);
  std::vector<int> pruned_labels, dense_labels;
  std::tie(r.predict_pruned_ns, r.predict_exhaustive_ns) = BestOfPairNs(
      [&] { pruned_labels = pruned_clf.PredictBatch(data.test); },
      [&] { dense_labels = dense_clf.PredictBatch(data.test); });

  r.predict_identical = pruned_labels == dense_labels;
  return r;
}

// Long series (many alignments per min query) built by MakeSeries: a
// shared ramped carrier so every query finds a near-exact twin fast, an
// energy gradient the O(1) band bound prunes on, and per-class chirps so
// prediction is a real task.
Workload FavourableWorkload(size_t length) {
  Workload w;
  w.name = "favourable";
  for (size_t i = 0; i < 48; ++i) {
    w.data.train.Add(MakeSeries(static_cast<int>(i % 2), i, length));
  }
  for (size_t i = 0; i < 96; ++i) {
    w.data.test.Add(MakeSeries(static_cast<int>(i % 2), 1000 + i, length));
  }
  // Shapelets cut from the training series, lengths 48..63 (< kFftCutoff:
  // the whole bench stays in the naive regime the cascade serves). Start
  // offsets stay inside [161, 224], the band between the two class-motif
  // implants, so every shapelet has a near-twin in EVERY series -- the
  // regime the cascade is built for. (PredictBatch uses discovered
  // shapelets, which land wherever discovery puts them.)
  for (size_t i = 0; i < 16; ++i) {
    w.shapelets.push_back(ExtractSubsequence(
        w.data.train[i % w.data.train.size()], 161 + (7 * i) % 64,
        48 + (i % 16)));
  }
  return w;
}

// The generator at its default noise, same sizes as the favourable
// workload: noisy windows of near-equal energy and no near-twins, so the
// lower bounds rarely fire and the cascade bails out.
Workload PruneHostileWorkload(size_t length) {
  Workload w;
  w.name = "prune_hostile";
  GeneratorSpec spec;
  spec.name = "eab-prune-hostile";
  spec.train_size = 48;
  spec.test_size = 96;
  spec.length = length;
  w.data = GenerateDataset(spec);
  for (size_t i = 0; i < 16; ++i) {
    w.shapelets.push_back(ExtractSubsequence(
        w.data.train[i % w.data.train.size()], (29 * i) % (length - 64),
        48 + (i % 16)));
  }
  return w;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_eab.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
  }

  constexpr size_t kLength = 512;
  const std::vector<Workload> workloads = {FavourableWorkload(kLength),
                                           PruneHostileWorkload(kLength)};

  const obs::MetricsSnapshot metrics_before =
      obs::MetricsRegistry::Instance().Snapshot();
  const obs::TraceSnapshot trace_before =
      obs::TraceRegistry::Instance().Snapshot();
  std::vector<EabCase> results;
  bool all_identical = true;
  for (const Workload& w : workloads) {
    for (size_t m = 0; m < kMetricCount; ++m) {
      for (size_t threads : {size_t{1}, size_t{8}}) {
        results.push_back(BenchOne(w, static_cast<MetricId>(m), threads));
        const EabCase& r = results.back();
        all_identical =
            all_identical && r.transform_identical && r.predict_identical;
        std::printf(
            "%-13s %-18s t=%zu  transform %10.0f -> %10.0f ns (%.2fx)  "
            "predict %10.0f -> %10.0f ns (%.2fx)  skipped %.1f%%  "
            "backoff %zu%s\n",
            r.workload.c_str(), r.metric.c_str(), r.threads,
            r.transform_exhaustive_ns, r.transform_pruned_ns,
            r.TransformSpeedup(), r.predict_exhaustive_ns,
            r.predict_pruned_ns, r.PredictSpeedup(),
            r.eab_candidates == 0
                ? 0.0
                : 100.0 *
                      static_cast<double>(r.eab_lb_pruned + r.eab_abandoned) /
                      static_cast<double>(r.eab_candidates),
            r.eab_backoff_skips,
            r.transform_identical && r.predict_identical ? ""
                                                         : "  MISMATCH");
      }
    }
  }

  obs::JsonValue shapes = obs::JsonValue::Array();
  for (const Workload& w : workloads) {
    obs::JsonValue e = obs::JsonValue::Object();
    e.Set("workload", w.name);
    e.Set("train", w.data.train.size());
    e.Set("test", w.data.test.size());
    e.Set("length", kLength);
    e.Set("shapelets", w.shapelets.size());
    shapes.Append(std::move(e));
  }
  obs::JsonValue cases = obs::JsonValue::Array();
  for (const EabCase& r : results) cases.Append(r.ToJson());
  obs::JsonValue doc = obs::JsonValue::Object();
  doc.Set("experiment", "early_abandon");
  doc.Set("env", bench::BenchEnvJson());
  doc.Set("workloads", std::move(shapes));
  doc.Set("cases", std::move(cases));
  doc.Set("report",
          obs::ReportToJson(
              obs::TraceRegistry::Instance().DeltaSince(trace_before),
              obs::MetricsRegistry::Instance().DeltaSince(metrics_before)));
  if (!obs::WriteJsonFile(doc, out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: pruned and exhaustive outputs differ (the cascade "
                 "must be bitwise exact)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ips

int main(int argc, char** argv) { return ips::Main(argc, argv); }
