// IpsRunStats::FromRegistry: the mapping from registry deltas (named
// counters + trace leaves) to the flat stats view, plus the guarantee that
// the mapping works identically through the live registries.

#include "ips/run_result.h"

#include <gtest/gtest.h>

#include "data/generator.h"
#include "ips/pipeline.h"

namespace ips {
namespace {

TEST(FromRegistryTest, MapsEveryCounterByName) {
  obs::MetricsSnapshot metrics;
  metrics.counters["ips.motifs_generated"] = 10;
  metrics.counters["ips.discords_generated"] = 9;
  metrics.counters["ips.motifs_after_prune"] = 4;
  metrics.counters["ips.discords_after_prune"] = 3;
  metrics.counters["ips.shapelets_selected"] = 6;
  metrics.counters["engine.profiles_computed"] = 100;
  metrics.counters["engine.stats_cache_hits"] = 20;
  metrics.counters["engine.stats_cache_misses"] = 5;
  metrics.counters["mp.joins_computed"] = 50;
  metrics.counters["mp.qt_sweeps"] = 25;
  metrics.counters["mp.joins_halved"] = 12;
  metrics.counters["mp.cache_hits"] = 7;
  metrics.counters["mp.cache_misses"] = 2;
  metrics.counters["pool.regions_dispatched"] = 11;
  metrics.counters["pool.regions_inline"] = 13;
  metrics.counters["pool.tasks_run"] = 1000;
  metrics.counters["pool.chunk_steals"] = 17;

  const IpsRunStats s = IpsRunStats::FromRegistry(metrics, {});
  EXPECT_EQ(s.motifs_generated, 10u);
  EXPECT_EQ(s.discords_generated, 9u);
  EXPECT_EQ(s.motifs_after_prune, 4u);
  EXPECT_EQ(s.discords_after_prune, 3u);
  EXPECT_EQ(s.shapelets, 6u);
  EXPECT_EQ(s.profiles_computed, 100u);
  EXPECT_EQ(s.mp_joins_computed, 50u);
  EXPECT_EQ(s.mp_qt_sweeps, 25u);
  EXPECT_EQ(s.mp_joins_halved, 12u);
  EXPECT_EQ(s.pool_regions, 11u);
  EXPECT_EQ(s.pool_inline_regions, 13u);
  EXPECT_EQ(s.pool_tasks_run, 1000u);
  EXPECT_EQ(s.pool_steals, 17u);
  // No trace -> no timings.
  EXPECT_EQ(s.TotalDiscoverySeconds(), 0.0);
}

TEST(FromRegistryTest, MapsStageSecondsByLeafName) {
  obs::TraceReport trace;
  // Both a bare-discovery path and a classifier path must feed the same
  // field: the mapping is by leaf name, not full path.
  trace.spans.push_back({"discover/candidate_gen", 1, 1.0});
  trace.spans.push_back({"fit/discover/candidate_gen", 1, 0.5});
  trace.spans.push_back({"fit/discover/candidate_gen/instance_profile", 1,
                         0.25});
  trace.spans.push_back({"fit/discover/dabf_build", 1, 0.125});
  trace.spans.push_back({"fit/discover/pruning", 1, 2.0});
  trace.spans.push_back({"fit/discover/selection", 1, 4.0});
  trace.spans.push_back({"fit/transform", 1, 8.0});
  trace.spans.push_back({"fit/backend_fit", 1, 16.0});

  const IpsRunStats s = IpsRunStats::FromRegistry({}, trace);
  EXPECT_EQ(s.candidate_gen_seconds, 1.5);
  EXPECT_EQ(s.profile_seconds, 0.25);
  EXPECT_EQ(s.dabf_build_seconds, 0.125);
  EXPECT_EQ(s.pruning_seconds, 2.0);
  EXPECT_EQ(s.selection_seconds, 4.0);
  EXPECT_EQ(s.transform_seconds, 8.0);
  EXPECT_EQ(s.backend_fit_seconds, 16.0);
  EXPECT_EQ(s.TotalDiscoverySeconds(), 1.5 + 0.125 + 2.0 + 4.0);
}

TEST(FromRegistryTest, EmptyDeltaYieldsZeroStats) {
  const IpsRunStats s = IpsRunStats::FromRegistry({}, {});
  EXPECT_EQ(s.motifs_generated, 0u);
  EXPECT_EQ(s.pool_tasks_run, 0u);
  EXPECT_EQ(s.TotalDiscoverySeconds(), 0.0);
}

TEST(FromRegistryTest, LiveRegistryWindowMatchesMapping) {
  // Drive the real registries the way the pipeline does: snapshot, bump,
  // delta, map. Works identically with tracing compiled out because
  // TraceRegistry::Record is registry-level, not Span-level.
  auto& metrics_reg = obs::MetricsRegistry::Instance();
  auto& trace_reg = obs::TraceRegistry::Instance();
  const obs::MetricsSnapshot m0 = metrics_reg.Snapshot();
  const obs::TraceSnapshot t0 = trace_reg.Snapshot();

  metrics_reg.GetCounter("ips.motifs_generated").Add(21);
  metrics_reg.GetCounter("engine.profiles_computed").Add(34);
  trace_reg.Record("discover/pruning", 0.75);

  const IpsRunStats s = IpsRunStats::FromRegistry(
      metrics_reg.DeltaSince(m0), trace_reg.DeltaSince(t0));
  EXPECT_EQ(s.motifs_generated, 21u);
  EXPECT_EQ(s.profiles_computed, 34u);
  EXPECT_EQ(s.pruning_seconds, 0.75);
}

TEST(RunResultTest, CountersMatchRegardlessOfTracingConfig) {
  // The event counters feeding IpsRunStats are live in both build configs;
  // only the *_seconds fields go dark under -DIPS_DISABLE_TRACING. Discovery
  // output itself must not depend on the config either -- CI diffs the
  // discovery_fingerprint binary across builds; here we pin the runtime
  // invariants that diff relies on.
  GeneratorSpec spec;
  spec.name = "run_result_neutrality";
  spec.num_classes = 2;
  spec.train_size = 10;
  spec.test_size = 2;
  spec.length = 64;
  const Dataset train = GenerateDataset(spec).train;
  IpsOptions options;
  options.sample_count = 3;
  options.length_ratios = {0.2};

  const RunResult a = DiscoverShapelets(train, options);
  const RunResult b = DiscoverShapelets(train, options);

  // Work counters are deterministic for a fixed dataset/config (unlike
  // pool scheduling counters, which depend on timing).
  EXPECT_EQ(a.stats.motifs_generated, b.stats.motifs_generated);
  EXPECT_EQ(a.stats.discords_generated, b.stats.discords_generated);
  EXPECT_EQ(a.stats.motifs_after_prune, b.stats.motifs_after_prune);
  EXPECT_EQ(a.stats.discords_after_prune, b.stats.discords_after_prune);
  EXPECT_EQ(a.stats.profiles_computed, b.stats.profiles_computed);
  EXPECT_EQ(a.stats.mp_joins_computed, b.stats.mp_joins_computed);
  EXPECT_EQ(a.stats.shapelets, a.shapelets.size());
  EXPECT_GT(a.stats.motifs_generated, 0u);
  // Candidate generation always runs matrix-profile joins; the
  // DistanceEngine profile counters depend on the utility/pruning config,
  // so equality across runs (above) is all we pin for them.
  EXPECT_GT(a.stats.mp_joins_computed, 0u);

  if (obs::kTracingEnabled) {
    EXPECT_FALSE(a.trace.empty());
  } else {
    EXPECT_TRUE(a.trace.empty());
    EXPECT_EQ(a.stats.TotalDiscoverySeconds(), 0.0);
  }
}

}  // namespace
}  // namespace ips
