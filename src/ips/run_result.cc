#include "ips/run_result.h"

namespace ips {

IpsRunStats IpsRunStats::FromRegistry(const obs::MetricsSnapshot& metrics,
                                      const obs::TraceReport& trace) {
  IpsRunStats s;

  s.candidate_gen_seconds = trace.LeafSeconds("candidate_gen");
  s.dabf_build_seconds = trace.LeafSeconds("dabf_build");
  s.pruning_seconds = trace.LeafSeconds("pruning");
  s.selection_seconds = trace.LeafSeconds("selection");
  s.transform_seconds = trace.LeafSeconds("transform");
  s.backend_fit_seconds = trace.LeafSeconds("backend_fit");
  s.profile_seconds = trace.LeafSeconds("instance_profile");

  s.motifs_generated = metrics.CounterValue("ips.motifs_generated");
  s.discords_generated = metrics.CounterValue("ips.discords_generated");
  s.motifs_after_prune = metrics.CounterValue("ips.motifs_after_prune");
  s.discords_after_prune = metrics.CounterValue("ips.discords_after_prune");
  s.shapelets = metrics.CounterValue("ips.shapelets_selected");

  s.profiles_computed = metrics.CounterValue("engine.profiles_computed");
  s.stats_cache_hits = metrics.CounterValue("engine.stats_cache_hits");
  s.stats_cache_misses = metrics.CounterValue("engine.stats_cache_misses");

  s.mp_joins_computed = metrics.CounterValue("mp.joins_computed");
  s.mp_qt_sweeps = metrics.CounterValue("mp.qt_sweeps");
  s.mp_joins_halved = metrics.CounterValue("mp.joins_halved");
  s.mp_cache_hits = metrics.CounterValue("mp.cache_hits");
  s.mp_cache_misses = metrics.CounterValue("mp.cache_misses");

  s.artifact_tables_built = metrics.CounterValue("engine.artifact_table.builds");
  s.artifact_entries = metrics.CounterValue("engine.artifact_table.entries");

  s.arena_acquires = metrics.CounterValue("engine.arena.acquires");
  s.arena_slab_allocs = metrics.CounterValue("engine.arena.slab_allocs");
  s.arena_slab_bytes = metrics.CounterValue("engine.arena.slab_bytes");

  s.pool_regions = metrics.CounterValue("pool.regions_dispatched");
  s.pool_inline_regions = metrics.CounterValue("pool.regions_inline");
  s.pool_tasks_run = metrics.CounterValue("pool.tasks_run");
  s.pool_steals = metrics.CounterValue("pool.chunk_steals");

  return s;
}

}  // namespace ips
