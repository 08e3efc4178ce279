// The result of one IPS run: discovered shapelets plus the run's
// observability record (stats view + span trace).
//
// IpsRunStats used to be a bag of out-param fields every stage mutated in
// place; it is now an immutable view computed once per run from the
// process-wide registries (obs/metrics.h, obs/trace.h). The pipeline takes
// a snapshot of both registries before the run, runs the stages (which
// open spans and bump named counters), and derives the stats from the
// deltas -- see IpsRunStats::FromRegistry for the exact field-to-metric
// mapping. Persist a RunResult with ips/serialization.h's SaveRunResult.

#ifndef IPS_IPS_RUN_RESULT_H_
#define IPS_IPS_RUN_RESULT_H_

#include <cstddef>
#include <vector>

#include "core/metric.h"
#include "core/time_series.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ips {

/// Wall-clock and size instrumentation of one discovery run (Table V).
/// Built by FromRegistry; the fields are a stable, flat view over the
/// registry deltas so consumers need not know metric names or span paths.
struct IpsRunStats {
  /// Stage wall-clock, from the span trace. All zero when the library is
  /// built with -DIPS_DISABLE_TRACING (obs::kTracingEnabled == false);
  /// the event counters below stay live in both configurations.
  double candidate_gen_seconds = 0.0;
  double dabf_build_seconds = 0.0;
  double pruning_seconds = 0.0;
  double selection_seconds = 0.0;

  /// Classifier-only stages (non-zero only after IpsClassifier::Fit, not a
  /// bare DiscoverShapelets): shapelet-transforming the training set, and
  /// fitting the back-end on the transformed features.
  double transform_seconds = 0.0;
  double backend_fit_seconds = 0.0;

  size_t motifs_generated = 0;
  size_t discords_generated = 0;
  size_t motifs_after_prune = 0;
  size_t discords_after_prune = 0;
  size_t shapelets = 0;

  /// DistanceEngine activity over the run: Def. 4 evaluations (min
  /// queries).
  size_t profiles_computed = 0;
  /// Kept so the run-artifact format is unchanged. The engine has no
  /// artefact caches any more and nothing publishes engine.stats_cache_*,
  /// so both read 0.
  size_t stats_cache_hits = 0;
  size_t stats_cache_misses = 0;

  /// The instance-profile stage of candidate generation (a sub-interval of
  /// candidate_gen_seconds: Alg. 1 line 5 across all sampling tasks) and
  /// the MatrixProfileEngine totals over the per-task engines.
  /// mp_joins_halved counts directed joins served by a pair-symmetric
  /// sweep's far side -- work the pre-engine code computed from scratch.
  double profile_seconds = 0.0;
  size_t mp_joins_computed = 0;
  size_t mp_qt_sweeps = 0;
  size_t mp_joins_halved = 0;
  /// Kept so the run-artifact format is unchanged. The engine has no
  /// artefact caches any more and nothing publishes mp.cache_*, so both
  /// read 0.
  size_t mp_cache_hits = 0;
  size_t mp_cache_misses = 0;

  /// Artifact-table accounting (docs/memory.md): immutable tables built by
  /// the engine's parallel precompute pass and entries materialised in
  /// those tables.
  size_t artifact_tables_built = 0;
  size_t artifact_entries = 0;

  /// Scratch-arena traffic (util/scratch_arena.h): spans handed out of the
  /// thread-local bump arenas, and the heap slabs (count / bytes) actually
  /// allocated to back them -- flat after warmup, which is what makes the
  /// sweep hot loop allocation-free.
  size_t arena_acquires = 0;
  size_t arena_slab_allocs = 0;
  size_t arena_slab_bytes = 0;

  /// Persistent-pool activity over the run (deltas of the process-wide
  /// pool.* counters): regions dispatched to the pool, regions run inline
  /// (serial fast path or the nested-inline rule), indices executed inside
  /// pooled regions, and chunks claimed from another participant's shard
  /// by work stealing.
  size_t pool_regions = 0;
  size_t pool_inline_regions = 0;
  size_t pool_tasks_run = 0;
  size_t pool_steals = 0;

  double TotalDiscoverySeconds() const {
    return candidate_gen_seconds + dabf_build_seconds + pruning_seconds +
           selection_seconds;
  }

  /// Derives the stats of one observation window from its registry deltas.
  /// Stage seconds come from the trace by span *leaf* name (so any entry
  /// point works: "fit/discover/pruning" and "discover/pruning" both feed
  /// pruning_seconds); counters come from the metrics delta by name.
  static IpsRunStats FromRegistry(const obs::MetricsSnapshot& metrics,
                                  const obs::TraceReport& trace);
};

/// What one discovery (or fit) returns: the shapelets plus the run's
/// observability record. `trace` is empty under -DIPS_DISABLE_TRACING.
struct RunResult {
  std::vector<Subsequence> shapelets;
  /// The distance metric the run's joins and transform were parameterised
  /// with (IpsOptions::metric); recorded in v2.1 artifacts.
  MetricId metric = MetricId::kZNormEuclidean;
  IpsRunStats stats;
  obs::TraceReport trace;
};

}  // namespace ips

#endif  // IPS_IPS_RUN_RESULT_H_
