// Regenerates Table V: the per-stage breakdown of IPS discovery time --
// candidate generation, pruning with vs without DABF, and top-k selection
// with vs without the DT & CR optimisations -- on ArrowHead, Computers,
// ShapeletSim and UWaveGestureLibraryY.
//
// Every stage runs under an obs span and the per-dataset numbers are read
// back from the trace delta, so the printed table, the span tree, and the
// JSON artifact (BENCH_table5.json, or --json=PATH) are three views of the
// same registry data. The artifact uses the obs/export.h report schema
// shared by every BENCH_*.json. Per dataset, the sum of top-level stage
// spans is checked against an independent end-to-end wall clock (within
// 5%): the trace is accounting for the run, not sampling it. The paper's
// claim is checked too: DABF pruning and DT+CR selection must each take
// at most half the time of their exhaustive counterparts. The binary
// exits 1 when either check fails.

#include <cmath>
#include <cstdio>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/distance_engine.h"
#include "dabf/dabf.h"
#include "ips/candidate_gen.h"
#include "ips/pipeline.h"
#include "ips/pruning.h"
#include "ips/top_k.h"
#include "ips/utility.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace ips::bench {
namespace {

int Run(const BenchArgs& args) {
  const std::vector<std::string> datasets = SelectDatasets(
      args,
      {"ArrowHead", "Computers", "ShapeletSim", "UWaveGestureLibraryY"});

  std::printf(
      "Table V: per-stage time (s) -- candidate generation, pruning "
      "+/-DABF, top-k +/-DT&CR\n\n");
  if (!obs::kTracingEnabled) {
    std::printf(
        "note: built with IPS_DISABLE_TRACING -- stage times read 0; "
        "counters remain live.\n\n");
  }

  TablePrinter table;
  table.SetHeader({"Dataset", "CandidateGen", "Prune w/o DABF",
                   "Prune w/ DABF", "TopK w/o DT+CR", "TopK w/ DT+CR"});

  // Candidate pools at the paper's Q_N upper range so the pruning and
  // selection stages dominate as they do in the published breakdown.
  IpsOptions options;
  options.sample_count = 30;
  options.candidates_per_profile = 3;
  // Auto threads (0 = HardwareThreads()): candidate generation runs on the
  // persistent pool. Results are bitwise thread-count independent, so the
  // table matches a serial run; only the timings change.
  options.num_threads = 0;
  DistanceEngine engine(1);

  obs::JsonValue dataset_reports = obs::JsonValue::Array();
  const obs::MetricsSnapshot run_metrics_before =
      obs::MetricsRegistry::Instance().Snapshot();
  const obs::TraceSnapshot run_trace_before =
      obs::TraceRegistry::Instance().Snapshot();
  bool wall_check_failed = false;
  // Per dataset: prune_dabf / prune_naive and topk_dtcr / topk_exact.
  struct StageRatios {
    std::string dataset;
    double dabf = 0.0;
    double dtcr = 0.0;
  };
  std::vector<StageRatios> ratios;

  for (const std::string& name : datasets) {
    const TrainTestSplit data = GetDataset(name, args);

    const obs::MetricsSnapshot metrics_before =
        obs::MetricsRegistry::Instance().Snapshot();
    const obs::TraceSnapshot trace_before =
        obs::TraceRegistry::Instance().Snapshot();
    Timer wall;

    Rng rng(options.seed);
    CandidatePool pool;
    {
      IPS_SPAN("candidate_gen");
      pool = GenerateCandidates(data.train, options, rng);
    }

    // DABF shared by the DABF-pruning and DT-scoring measurements.
    std::map<int, std::vector<Subsequence>> by_class;
    const Dabf* dabf = nullptr;
    std::unique_ptr<Dabf> dabf_storage;
    {
      IPS_SPAN("dabf_build");
      for (const auto& [label, motifs] : pool.motifs) {
        auto merged = pool.AllOfClass(label);
        if (!merged.empty()) by_class.emplace(label, std::move(merged));
      }
      dabf_storage = std::make_unique<Dabf>(by_class, options.dabf);
      dabf = dabf_storage.get();
    }

    CandidatePool naive_pool;
    {
      IPS_SPAN("prune_naive");
      naive_pool = pool;
      PruneNaive(naive_pool, options.shapelets_per_class,
                 /*majority_fraction=*/0.5, &engine);
    }

    CandidatePool dabf_pool;
    {
      IPS_SPAN("prune_dabf");
      dabf_pool = pool;
      PruneWithDabf(dabf_pool, *dabf, options.shapelets_per_class);
    }

    {
      IPS_SPAN("topk_exact");
      const auto exact_scores = ScoreAllCandidates(
          dabf_pool, data.train, UtilityMode::kExactNaive, nullptr, &engine);
      SelectTopKShapelets(dabf_pool, exact_scores,
                          options.shapelets_per_class);
    }

    {
      IPS_SPAN("topk_dtcr");
      const auto dt_scores = ScoreAllCandidates(dabf_pool, data.train,
                                                UtilityMode::kDtCr, dabf);
      SelectTopKShapelets(dabf_pool, dt_scores, options.shapelets_per_class);
    }

    const double wall_s = wall.ElapsedSeconds();
    const obs::TraceReport trace =
        obs::TraceRegistry::Instance().DeltaSince(trace_before);
    const obs::MetricsSnapshot metrics =
        obs::MetricsRegistry::Instance().DeltaSince(metrics_before);

    const double prune_naive_s = trace.LeafSeconds("prune_naive");
    const double prune_dabf_s = trace.LeafSeconds("prune_dabf");
    const double topk_exact_s = trace.LeafSeconds("topk_exact");
    const double topk_dtcr_s = trace.LeafSeconds("topk_dtcr");
    table.AddRow({name, TablePrinter::Num(trace.LeafSeconds("candidate_gen"), 4),
                  TablePrinter::Num(prune_naive_s, 4),
                  TablePrinter::Num(prune_dabf_s, 4),
                  TablePrinter::Num(topk_exact_s, 4),
                  TablePrinter::Num(topk_dtcr_s, 4)});
    if (obs::kTracingEnabled) {
      ratios.push_back({name, prune_dabf_s / prune_naive_s,
                        topk_dtcr_s / topk_exact_s});
    }

    // Top-level spans (depth 0) partition the measured section: their sum
    // must track the independent wall clock. Child spans (instance_profile,
    // pool_region, engine batches) overlap their parents and are excluded.
    double staged_s = 0.0;
    for (const obs::TraceSpan& span : trace.spans) {
      if (span.Depth() == 0) staged_s += span.seconds;
    }
    obs::JsonValue entry = obs::JsonValue::Object();
    entry.Set("dataset", name);
    entry.Set("wall_seconds", wall_s);
    entry.Set("staged_seconds", staged_s);
    entry.Set("report", obs::ReportToJson(trace, metrics));
    dataset_reports.Append(std::move(entry));

    if (obs::kTracingEnabled && wall_s > 0.0) {
      const double rel = std::fabs(staged_s - wall_s) / wall_s;
      if (rel > 0.05) {
        wall_check_failed = true;
        std::fprintf(stderr,
                     "WARNING: %s stage sum %.4fs vs wall %.4fs (%.1f%% off, "
                     "> 5%%)\n",
                     name.c_str(), staged_s, wall_s, 100.0 * rel);
      }
    }
  }
  table.Print();
  std::printf(
      "\nPaper claim: DABF and DT+CR each cut their stage's time by >= 50%%; "
      "candidate generation is a small share of the total.\n");
  bool claim_failed = false;
  for (const StageRatios& r : ratios) {
    const bool failed = !(r.dabf <= 0.5 && r.dtcr <= 0.5);
    claim_failed = claim_failed || failed;
    std::printf(
        "  %s: prune_dabf / prune_naive = %.3f, topk_dtcr / topk_exact = "
        "%.3f%s\n",
        r.dataset.c_str(), r.dabf, r.dtcr, failed ? "  (above 0.5)" : "");
  }
  if (claim_failed) {
    std::fprintf(stderr, "FAIL: a stage ratio is above 0.5\n");
  }

  // Whole-run registry deltas: the counter summary the table used to print
  // by hand, now one stats view plus the rendered span tree.
  const obs::TraceReport run_trace =
      obs::TraceRegistry::Instance().DeltaSince(run_trace_before);
  const obs::MetricsSnapshot run_metrics =
      obs::MetricsRegistry::Instance().DeltaSince(run_metrics_before);
  const IpsRunStats stats = IpsRunStats::FromRegistry(run_metrics, run_trace);
  std::printf("\nDistanceEngine: %zu Def. 4 evaluations\n",
              stats.profiles_computed);
  std::printf(
      "MatrixProfileEngine: %.3fs in instance profiles, %zu joins from %zu "
      "QT sweeps (%zu saved by pair symmetry)\n",
      stats.profile_seconds, stats.mp_joins_computed, stats.mp_qt_sweeps,
      stats.mp_joins_halved);
  std::printf(
      "Join scheduler: %zu artifact tables built (%zu entries); arena %zu "
      "acquisitions backed by %zu slabs / %zu KiB\n",
      stats.artifact_tables_built, stats.artifact_entries,
      stats.arena_acquires, stats.arena_slab_allocs,
      stats.arena_slab_bytes / 1024);
  std::printf(
      "ThreadPool: %zu regions dispatched / %zu inline, %zu tasks run, %zu "
      "chunk steals\n",
      stats.pool_regions, stats.pool_inline_regions, stats.pool_tasks_run,
      stats.pool_steals);
  if (obs::kTracingEnabled) {
    std::printf("\nSpan tree (whole run):\n%s",
                obs::FormatTraceTree(run_trace).c_str());
  }

  obs::JsonValue doc = obs::JsonValue::Object();
  doc.Set("experiment", "table5_breakdown");
  doc.Set("tracing_enabled", obs::kTracingEnabled);
  doc.Set("datasets", std::move(dataset_reports));
  doc.Set("run_report", obs::ReportToJson(run_trace, run_metrics));
  const std::string json_path =
      args.json_path.empty() ? "BENCH_table5.json" : args.json_path;
  if (!obs::WriteJsonFile(doc, json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return wall_check_failed || claim_failed ? 1 : 0;
}

}  // namespace
}  // namespace ips::bench

int main(int argc, char** argv) {
  return ips::bench::Run(ips::bench::ParseArgs(argc, argv));
}
