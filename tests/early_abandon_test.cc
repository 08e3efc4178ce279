// Early-abandon cascade parity suite (docs/pruning.md): the cascade is a
// pure performance knob, so EVERYTHING observable must be bitwise
// identical with it on and off -- transform features, batch minima,
// pairwise matrices, predictions and discovery fingerprints (DABF and
// naive pruning alike), for every registered metric, at 1, 2 and 8
// threads, on every SIMD backend the CPU supports (each test body runs
// once per backend in this one binary). The adversarial cases aim at the
// lower bounds themselves: constant (flat) windows and queries, exact
// embedded matches (best hits the kernels' zero short-circuit),
// single-alignment and single-element queries, and out-of-range seed
// hints. A prune-hostile case (generator noise, where the cascade bails
// out) covers the bail-out fallback and the bank's dense route.

#include <cmath>
#include <cstdint>

#include <algorithm>

#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance_engine.h"
#include "core/metric.h"
#include "core/simd.h"
#include "core/time_series.h"
#include "core/znorm.h"
#include "data/generator.h"
#include "ips/pipeline.h"
#include "simd_backends.h"
#include "transform/shapelet_transform.h"

namespace ips {
namespace {

// Deterministic value noise so every platform builds the same fixture.
double Noise(uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<double>(state >> 11) / 9007199254740992.0 - 0.5;
}

// A fixture series: sine carrier + amplitude ramp + noise, with a flat
// plateau (windows of zero variance) and, for odd indices, an exact copy
// of the values 40..60 of series idx-1 (embedded exact matches across
// series).
std::vector<double> FixtureSeries(size_t idx, size_t length) {
  std::vector<double> v(length);
  uint64_t rng = 0x9E3779B97F4A7C15ull ^ (idx + 1);
  for (size_t t = 0; t < length; ++t) {
    const double ramp =
        0.5 + 1.5 * static_cast<double>(t) / static_cast<double>(length);
    v[t] = ramp * std::sin(0.37 * static_cast<double>(t) +
                           static_cast<double>(idx)) +
           0.1 * Noise(rng);
  }
  for (size_t t = 100; t < 120 && t < length; ++t) v[t] = 2.5;  // plateau
  if (idx % 2 == 1) {
    const std::vector<double> prev = FixtureSeries(idx - 1, length);
    for (size_t t = 40; t < 60 && t < length; ++t) v[t] = prev[t];
  }
  return v;
}

Dataset FixtureDataset(size_t count, size_t length) {
  Dataset d;
  for (size_t i = 0; i < count; ++i) {
    d.Add(TimeSeries(FixtureSeries(i, length), static_cast<int>(i % 2)));
  }
  return d;
}

// Shapelets that poke every corner: a flat (constant) query, an extract
// whose exact copy is embedded in other series, a length-1 query, and a
// near-series-length query (few alignments).
std::vector<Subsequence> FixtureShapelets(const Dataset& data) {
  std::vector<Subsequence> out;
  out.push_back(ExtractSubsequence(data[0], 10, 31));
  out.push_back(ExtractSubsequence(data[0], 102, 16));  // flat plateau
  out.push_back(ExtractSubsequence(data[0], 40, 20));   // embedded copy
  out.push_back(ExtractSubsequence(data[1], 70, 1));    // m == 1
  out.push_back(ExtractSubsequence(data[2], 0, data[2].length() - 1));
  return out;
}

std::vector<std::span<const double>> Views(const Dataset& data) {
  std::vector<std::span<const double>> views;
  for (const TimeSeries& t : data.series()) views.push_back(t.view());
  return views;
}

class EarlyAbandonParityTest
    : public ::testing::TestWithParam<std::tuple<MetricId, size_t>> {};

TEST_P(EarlyAbandonParityTest, BatchApisBitwiseIdentical) {
  ForEachSimdBackend([&] {
    const MetricId metric = std::get<0>(GetParam());
    const size_t threads = std::get<1>(GetParam());
    const Dataset data = FixtureDataset(6, 160);
    const std::vector<Subsequence> shapelets = FixtureShapelets(data);
    const std::vector<std::span<const double>> views = Views(data);

    std::vector<IndexPair> pairs;
    for (uint32_t i = 0; i < views.size(); ++i) {
      for (uint32_t j = 0; j < views.size(); ++j) pairs.emplace_back(i, j);
    }

    DistanceEngine pruned(threads);
    pruned.set_early_abandon(true);
    DistanceEngine dense(threads);
    dense.set_early_abandon(false);

    const auto rows_p =
        ShapeletTransform(data, shapelets, metric, 1, &pruned).features;
    const auto rows_d =
        ShapeletTransform(data, shapelets, metric, 1, &dense).features;
    ASSERT_EQ(rows_p.size(), rows_d.size());
    for (size_t i = 0; i < rows_p.size(); ++i) {
      EXPECT_EQ(rows_p[i], rows_d[i]) << "transform row " << i;
      EXPECT_EQ(rows_p[i], TransformSeries(data[i], shapelets, metric)) << i;
    }

    EXPECT_EQ(pruned.MinForPairs(views, pairs, metric),
              dense.MinForPairs(views, pairs, metric));

    // Shapelets against each other: every length pairing, both orders.
    std::vector<std::span<const double>> shapelet_views;
    for (const Subsequence& s : shapelets) shapelet_views.push_back(s.view());
    std::vector<IndexPair> shapelet_pairs;
    for (uint32_t i = 0; i < shapelets.size(); ++i) {
      for (uint32_t j = 0; j < shapelets.size(); ++j) {
        shapelet_pairs.emplace_back(i, j);
      }
    }
    EXPECT_EQ(pruned.MinForPairs(shapelet_views, shapelet_pairs, metric),
              dense.MinForPairs(shapelet_views, shapelet_pairs, metric));

    // The cascade's work accounting must balance, and the fingerprint
    // counter (profiles_computed) must not see the cascade at all.
    const EngineCounters cp = pruned.counters();
    const EngineCounters cd = dense.counters();
    EXPECT_EQ(cp.eab_candidates,
              cp.eab_lb_pruned + cp.eab_abandoned + cp.eab_full);
    EXPECT_EQ(cd.eab_candidates, 0u);
    EXPECT_EQ(cp.profiles_computed, cd.profiles_computed);
  });
}

// The hostile regime: generator-default noise, where windows barely
// differ in energy and no shapelet has a near-twin, so the cascade prunes
// almost nothing and bails out. The pairs then fall back to the dense
// path mid-flight, and the transform's bank routes the bailing shapelets
// dense; both must stay bitwise equal to the dense path. The shapelets
// include m == 1, where the first and last LB_Kim terms coincide.
TEST_P(EarlyAbandonParityTest, PruneHostileTransformBitwiseIdentical) {
  ForEachSimdBackend([&] {
    const MetricId metric = std::get<0>(GetParam());
    const size_t threads = std::get<1>(GetParam());
    GeneratorSpec spec;
    spec.name = "eab-hostile";
    spec.train_size = 48;
    spec.test_size = 2;
    spec.length = 128;
    const Dataset data = GenerateDataset(spec).train;
    std::vector<Subsequence> shapelets;
    for (size_t len : {1, 9, 17, 33, 51}) {
      shapelets.push_back(ExtractSubsequence(data[len % 7], 3 * len % 64, len));
    }

    DistanceEngine pruned(threads);
    pruned.set_early_abandon(true);
    DistanceEngine dense(threads);
    dense.set_early_abandon(false);
    const auto rows_p =
        ShapeletTransform(data, shapelets, metric, 1, &pruned).features;
    const auto rows_d =
        ShapeletTransform(data, shapelets, metric, 1, &dense).features;
    ASSERT_EQ(rows_p.size(), rows_d.size());
    for (size_t i = 0; i < rows_p.size(); ++i) {
      EXPECT_EQ(rows_p[i], rows_d[i]) << "transform row " << i;
    }

    // Every series against every shapelet through MinForPairs: the cascade
    // runs on each pair and bails out on most.
    std::vector<std::span<const double>> views = Views(data);
    std::vector<IndexPair> pairs;
    for (uint32_t s = 0; s < shapelets.size(); ++s) {
      views.push_back(shapelets[s].view());
      for (uint32_t i = 0; i < data.size(); ++i) {
        pairs.emplace_back(static_cast<uint32_t>(data.size()) + s, i);
      }
    }
    EXPECT_EQ(pruned.MinForPairs(views, pairs, metric),
              dense.MinForPairs(views, pairs, metric));

    const EngineCounters cp = pruned.counters();
    EXPECT_EQ(cp.eab_candidates,
              cp.eab_lb_pruned + cp.eab_abandoned + cp.eab_full);
    EXPECT_EQ(dense.counters().eab_candidates, 0u);
    if (GetMetric(metric).eab_profitable) {
      EXPECT_GT(cp.eab_candidates, 0u) << "the cascade never ran";
    }
  });
}

TEST_P(EarlyAbandonParityTest, SingleAlignmentAndFlatInputs) {
  ForEachSimdBackend([&] {
    const MetricId metric = std::get<0>(GetParam());
    const size_t threads = std::get<1>(GetParam());
    DistanceEngine pruned(threads);
    pruned.set_early_abandon(true);
    DistanceEngine dense(threads);
    dense.set_early_abandon(false);

    const std::vector<double> flat(48, 3.25);
    const std::vector<double> wave = FixtureSeries(4, 96);
    std::vector<double> embedded = FixtureSeries(5, 96);
    const std::vector<double> query(wave.begin() + 20, wave.begin() + 52);
    std::copy(query.begin(), query.end(), embedded.begin() + 37);

    const std::vector<std::vector<double>> lhs = {flat, query,
                                                  {wave.begin(), wave.end()}};
    const std::vector<std::vector<double>> rhs = {
        wave, flat, embedded, {flat.begin(), flat.begin() + 48}};
    for (const auto& a : lhs) {
      for (const auto& b : rhs) {
        EXPECT_EQ(pruned.SubsequenceMinMetric(a, b, metric),
                  dense.SubsequenceMinMetric(a, b, metric))
            << MetricName(metric);
      }
    }
    // count == 1 (same length) and a query longer than the series (the
    // engine swaps so the shorter side is the query).
    EXPECT_EQ(pruned.SubsequenceMinMetric(wave, wave, metric),
              dense.SubsequenceMinMetric(wave, wave, metric));
    EXPECT_EQ(pruned.SubsequenceMinMetric(wave, query, metric),
              dense.SubsequenceMinMetric(wave, query, metric));
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllMetricsAllThreads, EarlyAbandonParityTest,
    ::testing::Combine(::testing::Values(MetricId::kZNormEuclidean,
                                         MetricId::kRawSquaredEuclidean,
                                         MetricId::kEuclidean,
                                         MetricId::kCosine),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{8})),
    [](const ::testing::TestParamInfo<std::tuple<MetricId, size_t>>& info) {
      return std::string(MetricName(std::get<0>(info.param))) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

// Discovery + classification fingerprints: shapelet values, prune counts
// and predictions from the full pipeline must not change when the cascade
// is disabled -- under the paper's defaults (DABF pruning, DT+CR utility)
// and under naive pruning with exact utility, where every Def. 4 distance
// of discovery runs through the engine's cascade.
TEST(EarlyAbandonPipelineTest, DiscoveryAndPredictionsIdentical) {
  ForEachSimdBackend([&] {
    Dataset train = FixtureDataset(8, 160);
    Dataset test = FixtureDataset(10, 160);

    for (const bool naive : {false, true}) {
      for (size_t m = 0; m < kMetricCount; ++m) {
        IpsOptions o;
        o.sample_count = 3;
        o.sample_size = 2;
        o.length_ratios = {0.15, 0.3};
        o.shapelets_per_class = 3;
        o.metric = static_cast<MetricId>(m);
        o.num_threads = 2;
        if (naive) {
          o.use_dabf_pruning = false;
          o.utility_mode = UtilityMode::kExactWithCr;
        }
        SCOPED_TRACE(std::string(MetricName(o.metric)) +
                     (naive ? " naive/exact" : " defaults"));

        o.enable_early_abandon = true;
        const RunResult run_p = DiscoverShapelets(train, o);
        IpsClassifier clf_p(o);
        clf_p.Fit(train);

        o.enable_early_abandon = false;
        const RunResult run_d = DiscoverShapelets(train, o);
        IpsClassifier clf_d(o);
        clf_d.Fit(train);

        EXPECT_EQ(run_p.stats.motifs_after_prune,
                  run_d.stats.motifs_after_prune);
        EXPECT_EQ(run_p.stats.discords_after_prune,
                  run_d.stats.discords_after_prune);
        ASSERT_EQ(run_p.shapelets.size(), run_d.shapelets.size());
        for (size_t s = 0; s < run_p.shapelets.size(); ++s) {
          EXPECT_EQ(run_p.shapelets[s].values, run_d.shapelets[s].values)
              << "shapelet " << s;
        }
        EXPECT_EQ(clf_p.PredictBatch(test), clf_d.PredictBatch(test));
      }
    }
  });
}

// ------------------------------------------------------- kernel-level cases
//
// Direct kernel calls against the dense reference (dispatched SlidingDots
// + the metric's min_from_dots), aimed at the bounds' blind spots. The
// identity contract says: any inputs, any seed, bitwise-equal minimum
// unless the kernel bails out.

struct DenseRef {
  double min = 0.0;
  std::vector<double> sqp;
  std::vector<double> dots;
};

DenseRef DenseMin(const MetricPolicy& policy, const std::vector<double>& q,
                  const std::vector<double>& s,
                  const std::vector<double>& zq, const RollingStats* stats) {
  DenseRef ref;
  const size_t m = q.size();
  const size_t count = s.size() - m + 1;
  ref.sqp.resize(s.size() + 1);
  ref.sqp[0] = 0.0;
  for (size_t i = 0; i < s.size(); ++i) {
    ref.sqp[i + 1] = ref.sqp[i] + s[i] * s[i];
  }
  ref.dots.resize(count);
  const std::vector<double>& query =
      policy.id == MetricId::kZNormEuclidean ? zq : q;
  simd::SlidingDots(query.data(), m, s.data(), s.size(), ref.dots.data());
  double qq = 0.0;
  for (double v : query) qq += v * v;

  if (policy.id == MetricId::kZNormEuclidean) {
    const bool query_flat =
        std::all_of(zq.begin(), zq.end(), [](double v) { return v == 0.0; });
    ref.min = simd::ZNormMinFromDots(ref.dots.data(), stats->stds.data(),
                                     count, m, query_flat);
  } else {
    MetricProfileArgs args;
    args.dots = ref.dots.data();
    args.count = count;
    args.window = m;
    args.qq = qq;
    args.sqp = ref.sqp.data();
    ref.min = policy.kernels.min_from_dots(args);
  }
  return ref;
}

// Runs the metric's early-abandon kernel with the given seed and, unless
// it bailed, checks the bitwise identity and the counter invariant.
void CheckKernel(MetricId id, const std::vector<double>& q,
                 const std::vector<double>& s, size_t seed) {
  SCOPED_TRACE(std::string(MetricName(id)) + " seed=" + std::to_string(seed));
  const MetricPolicy& policy = GetMetric(id);
  ASSERT_NE(policy.min_early_abandon, nullptr);
  const size_t m = q.size();
  const size_t count = s.size() - m + 1;

  const std::vector<double> zq = ZNormalize(q);
  RollingStats stats;
  if (id == MetricId::kZNormEuclidean) stats = ComputeRollingStats(s, m);
  const DenseRef ref = DenseMin(policy, q, s, zq, &stats);

  std::vector<double> qpre(m + 1, 0.0);
  for (size_t i = 0; i < m; ++i) qpre[i + 1] = qpre[i] + q[i] * q[i];

  simd::EabArgs a;
  a.query = id == MetricId::kZNormEuclidean ? zq.data() : q.data();
  a.window = m;
  a.series = s.data();
  a.count = count;
  a.qq = qpre.back();
  a.sqp = ref.sqp.data();
  a.qpre = qpre.data();
  if (id == MetricId::kZNormEuclidean) {
    a.means = stats.means.data();
    a.stds = stats.stds.data();
    a.query_flat =
        std::all_of(zq.begin(), zq.end(), [](double v) { return v == 0.0; });
    for (double v : zq) {
      a.zq_sum += v;
      a.zq_sumsq += v * v;
    }
  }
  a.seed = seed;

  simd::EabCounters c;
  const simd::EabResult res = policy.min_early_abandon(a, c);
  EXPECT_EQ(c.candidates, c.lb_pruned + c.abandoned + c.full);
  if (res.bailed_out) return;  // dense fallback territory; nothing to check
  EXPECT_EQ(res.min, ref.min);
  if (res.argmin != simd::kEabNoSeed) {
    EXPECT_LT(res.argmin, count);
  }
}

TEST(EarlyAbandonKernelTest, AdversarialInputsAndSeeds) {
  ForEachSimdBackend([&] {
    const std::vector<double> wave = FixtureSeries(2, 128);
    const std::vector<double> flat_series(128, -1.5);
    std::vector<double> plateau = wave;
    for (size_t t = 30; t < 80; ++t) plateau[t] = 0.75;

    const std::vector<double> q_wave(wave.begin() + 64, wave.begin() + 96);
    const std::vector<double> q_flat(32, 0.75);
    const std::vector<double> q_one = {wave[5]};
    const std::vector<double> q_full(wave.begin(), wave.end());  // count == 1

    const std::vector<const std::vector<double>*> queries = {&q_wave, &q_flat,
                                                             &q_one};
    const std::vector<const std::vector<double>*> series = {&wave, &flat_series,
                                                            &plateau};
    const size_t oob = static_cast<size_t>(-2);  // out of range, not the
                                                 // kEabNoSeed sentinel
    for (size_t mi = 0; mi < kMetricCount; ++mi) {
      const MetricId id = static_cast<MetricId>(mi);
      for (const auto* q : queries) {
        for (const auto* s : series) {
          for (size_t seed : {simd::kEabNoSeed, size_t{0}, size_t{17}, oob}) {
            CheckKernel(id, *q, *s, seed);
          }
        }
      }
      CheckKernel(id, q_full, wave, simd::kEabNoSeed);  // single alignment
      CheckKernel(id, q_full, wave, size_t{0});
      CheckKernel(id, q_wave, wave, size_t{64});  // seed IS the exact match
    }
  });
}

}  // namespace
}  // namespace ips
