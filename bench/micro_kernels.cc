// Microbenchmarks of the numeric kernels (google-benchmark): distance
// profiles (naive vs FFT crossover), STOMP matrix profile, instance
// profile, LSH hashing and DABF queries, and the DT vs exact utility
// scoring -- the engineering ablations DESIGN.md §4 calls out.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/distance.h"
#include "core/fft.h"
#include "core/rng.h"
#include "core/simd.h"
#include "core/znorm.h"
#include "dabf/dabf.h"
#include "data/generator.h"
#include "ips/candidate_gen.h"
#include "ips/instance_profile.h"
#include "ips/pipeline.h"
#include "ips/utility.h"
#include "lsh/lsh.h"
#include "matrix_profile/matrix_profile.h"
#include "matrix_profile/mp_engine.h"
#include "transform/shapelet_transform.h"
#include "util/parallel.h"

namespace ips {
namespace {

std::vector<double> RandomSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = rng.Gaussian();
  return out;
}

void BM_SlidingDotsNaive(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const auto query = RandomSeries(m, 1);
  const auto series = RandomSeries(4096, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SlidingDotProductsNaive(query, series));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SlidingDotsNaive)->RangeMultiplier(2)->Range(8, 512);

void BM_SlidingDotsFft(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const auto query = RandomSeries(m, 1);
  const auto series = RandomSeries(4096, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SlidingDotProducts(query, series));
  }
}
BENCHMARK(BM_SlidingDotsFft)->RangeMultiplier(2)->Range(8, 512);

void BM_DistanceProfileZNorm(benchmark::State& state) {
  const auto query = RandomSeries(static_cast<size_t>(state.range(0)), 3);
  const auto series = RandomSeries(4096, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DistanceProfileZNorm(query, series));
  }
}
BENCHMARK(BM_DistanceProfileZNorm)->Arg(32)->Arg(128)->Arg(512);

void BM_SelfJoinProfile(benchmark::State& state) {
  const auto series = RandomSeries(static_cast<size_t>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelfJoinProfile(series, 64));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SelfJoinProfile)->RangeMultiplier(2)->Range(512, 4096)
    ->Complexity(benchmark::oNSquared);

void BM_SelfJoinProfileParallel(benchmark::State& state) {
  const auto series = RandomSeries(4096, 5);
  const size_t threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SelfJoinProfileParallel(series, 64, threads));
  }
}
BENCHMARK(BM_SelfJoinProfileParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_AbJoinProfile(benchmark::State& state) {
  const auto a = RandomSeries(static_cast<size_t>(state.range(0)), 6);
  const auto b = RandomSeries(static_cast<size_t>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AbJoinProfile(a, b, 64));
  }
}
BENCHMARK(BM_AbJoinProfile)->Arg(512)->Arg(1024)->Arg(2048);

void BM_InstanceProfile(benchmark::State& state) {
  GeneratorSpec spec;
  spec.name = "micro_ip";
  spec.num_classes = 2;
  spec.train_size = static_cast<size_t>(state.range(0));
  spec.test_size = 2;
  spec.length = 256;
  const Dataset train = GenerateDataset(spec).train;
  std::vector<TimeSeries> sample;
  for (size_t i = 0; i < train.size(); ++i) sample.push_back(train[i]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeInstanceProfile(sample, 32));
  }
}
BENCHMARK(BM_InstanceProfile)->Arg(2)->Arg(4)->Arg(8);

void BM_LshHash(benchmark::State& state) {
  LshParams params;
  params.scheme = static_cast<LshScheme>(state.range(0));
  params.input_dim = 32;
  params.num_hashes = 8;
  const auto family = MakeLshFamily(params);
  const auto v = RandomSeries(32, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(family->HashKey(v));
  }
}
BENCHMARK(BM_LshHash)->Arg(0)->Arg(1)->Arg(2);  // L2 / Cosine / Hamming

struct DabfFixture {
  CandidatePool pool;
  Dataset train;
  std::unique_ptr<Dabf> dabf;

  DabfFixture() {
    GeneratorSpec spec;
    spec.name = "micro_dabf";
    spec.num_classes = 2;
    spec.train_size = 20;
    spec.test_size = 2;
    spec.length = 128;
    train = GenerateDataset(spec).train;
    IpsOptions options;
    options.sample_count = 6;
    Rng rng(1);
    pool = GenerateCandidates(train, options, rng);
    dabf = std::make_unique<Dabf>(pool.MergedByClass(), DabfOptions{});
  }
};

void BM_DabfQuery(benchmark::State& state) {
  static const DabfFixture fixture;
  const Subsequence& probe = fixture.pool.motifs.begin()->second.front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.dabf->CloseToAnyOtherClass(probe.view(), probe.label));
  }
}
BENCHMARK(BM_DabfQuery);

void BM_NaivePruneScan(benchmark::State& state) {
  static const DabfFixture fixture;
  const Subsequence& probe = fixture.pool.motifs.begin()->second.front();
  const auto others = fixture.pool.AllOfClass(1);
  for (auto _ : state) {
    double sum = 0.0;
    for (const auto& o : others) {
      sum += SubsequenceDistance(probe.view(), o.view());
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_NaivePruneScan);

void BM_UtilityExactNaive(benchmark::State& state) {
  static const DabfFixture fixture;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScoreAllCandidates(
        fixture.pool, fixture.train, UtilityMode::kExactNaive, nullptr));
  }
}
BENCHMARK(BM_UtilityExactNaive);

void BM_UtilityExactCr(benchmark::State& state) {
  static const DabfFixture fixture;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScoreAllCandidates(
        fixture.pool, fixture.train, UtilityMode::kExactWithCr, nullptr));
  }
}
BENCHMARK(BM_UtilityExactCr);

void BM_UtilityDtCr(benchmark::State& state) {
  static const DabfFixture fixture;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ScoreAllCandidates(fixture.pool, fixture.train, UtilityMode::kDtCr,
                           fixture.dabf.get()));
  }
}
BENCHMARK(BM_UtilityDtCr);

// ------------------------------------------------------ matrix-profile engine
//
// Before/after pair for the MatrixProfileEngine on a Table V-shaped
// instance-profile task: one sample of Q_S instances at UWave-like length,
// window = 10% of the series (the paper's smallest length ratio). The Seed
// variant reproduces the pre-engine ComputeInstanceProfile exactly -- one
// serial AbJoinProfile per ORDERED pair, per-window inner vectors for the
// k-NN step; the Engine variant runs the pair-symmetric batched sweep at 1
// and 8 threads. Values are bitwise identical (tests/mp_engine_test.cc);
// the joins/sweeps counters quantify the pair-symmetric halving.

struct InstanceProfileFixture {
  std::vector<TimeSeries> sample;
  static constexpr size_t kWindow = 32;

  InstanceProfileFixture() {
    GeneratorSpec spec;
    spec.name = "micro_mp_engine";
    spec.num_classes = 2;
    spec.train_size = 12;
    spec.test_size = 2;
    spec.length = 315;  // UWaveGestureLibraryY-like (Table V)
    const Dataset train = GenerateDataset(spec).train;
    for (size_t i = 0; i < 3; ++i) sample.push_back(train[i]);  // Q_S = 3
  }
};

void BM_InstanceProfileSeed(benchmark::State& state) {
  static const InstanceProfileFixture fixture;
  const auto& sample = fixture.sample;
  const size_t window = InstanceProfileFixture::kWindow;
  size_t joins = 0;
  for (auto _ : state) {
    InstanceProfile ip;
    for (size_t m = 0; m < sample.size(); ++m) {
      const size_t num_windows = sample[m].length() - window + 1;
      std::vector<std::vector<double>> per_other(num_windows);
      for (size_t other = 0; other < sample.size(); ++other) {
        if (other == m) continue;
        const MatrixProfile join =
            AbJoinProfile(sample[m].view(), sample[other].view(), window);
        ++joins;
        for (size_t i = 0; i < num_windows; ++i) {
          per_other[i].push_back(join.values[i]);
        }
      }
      for (size_t i = 0; i < num_windows; ++i) {
        std::nth_element(per_other[i].begin(), per_other[i].begin(),
                         per_other[i].end());
        ip.values.push_back(per_other[i].front());
        ip.instances.push_back(m);
        ip.offsets.push_back(i);
      }
    }
    benchmark::DoNotOptimize(ip);
  }
  state.counters["joins"] =
      benchmark::Counter(static_cast<double>(joins) /
                         static_cast<double>(state.iterations()));
}
BENCHMARK(BM_InstanceProfileSeed);

void BM_InstanceProfileEngine(benchmark::State& state) {
  static const InstanceProfileFixture fixture;
  const size_t threads = static_cast<size_t>(state.range(0));
  MpEngineCounters last;
  for (auto _ : state) {
    // A fresh engine per iteration: cache construction is measured work.
    MatrixProfileEngine engine(threads);
    benchmark::DoNotOptimize(ComputeInstanceProfile(
        fixture.sample, InstanceProfileFixture::kWindow, 1, &engine));
    last = engine.counters();
  }
  state.counters["qt_sweeps"] = static_cast<double>(last.qt_sweeps);
  state.counters["joins_served"] = static_cast<double>(last.joins_computed);
  state.counters["joins_halved"] = static_cast<double>(last.joins_halved);
}
BENCHMARK(BM_InstanceProfileEngine)->Arg(1)->Arg(8);

// The full Table V profile stage: 2 classes x Q_N = 30 samples of Q_S = 3
// instances, as exp_table5_breakdown configures candidate generation. The
// Seed variant is the historic stage verbatim -- a serial loop over tasks,
// each built from per-ordered-pair AbJoinProfile calls. The Engine variant
// schedules tasks and sweep chunks exactly as GenerateCandidates does
// (outer tasks x inner engine threads). This is the workload behind the
// BENCH_mp.json before/after numbers.

struct ProfileStageFixture {
  std::vector<std::vector<TimeSeries>> tasks;
  static constexpr size_t kWindow = 32;

  ProfileStageFixture() {
    GeneratorSpec spec;
    spec.name = "micro_mp_stage";
    spec.num_classes = 2;
    spec.train_size = 20;
    spec.test_size = 2;
    spec.length = 315;
    const Dataset train = GenerateDataset(spec).train;
    Rng rng(17);
    for (size_t t = 0; t < 60; ++t) {  // 2 classes x Q_N = 30
      std::vector<TimeSeries> sample;
      const std::vector<size_t> picks =
          rng.SampleWithoutReplacement(train.size(), 3);  // Q_S = 3
      for (size_t p : picks) sample.push_back(train[p]);
      tasks.push_back(std::move(sample));
    }
  }
};

void BM_TableVProfileStageSeed(benchmark::State& state) {
  static const ProfileStageFixture fixture;
  const size_t window = ProfileStageFixture::kWindow;
  size_t joins = 0;
  for (auto _ : state) {
    std::vector<InstanceProfile> profiles;
    for (const auto& sample : fixture.tasks) {
      InstanceProfile ip;
      for (size_t m = 0; m < sample.size(); ++m) {
        const size_t num_windows = sample[m].length() - window + 1;
        std::vector<std::vector<double>> per_other(num_windows);
        for (size_t other = 0; other < sample.size(); ++other) {
          if (other == m) continue;
          const MatrixProfile join =
              AbJoinProfile(sample[m].view(), sample[other].view(), window);
          ++joins;
          for (size_t i = 0; i < num_windows; ++i) {
            per_other[i].push_back(join.values[i]);
          }
        }
        for (size_t i = 0; i < num_windows; ++i) {
          std::nth_element(per_other[i].begin(), per_other[i].begin(),
                           per_other[i].end());
          ip.values.push_back(per_other[i].front());
          ip.instances.push_back(m);
          ip.offsets.push_back(i);
        }
      }
      profiles.push_back(std::move(ip));
    }
    benchmark::DoNotOptimize(profiles);
  }
  state.counters["joins"] =
      benchmark::Counter(static_cast<double>(joins) /
                         static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TableVProfileStageSeed);

void BM_TableVProfileStageEngine(benchmark::State& state) {
  static const ProfileStageFixture fixture;
  const size_t threads = static_cast<size_t>(state.range(0));
  const size_t outer = std::min(threads, fixture.tasks.size());
  const size_t inner = std::max<size_t>(1, threads / outer);
  size_t sweeps = 0;
  size_t joins = 0;
  for (auto _ : state) {
    std::vector<InstanceProfile> profiles(fixture.tasks.size());
    std::vector<MpEngineCounters> counters(fixture.tasks.size());
    ParallelFor(fixture.tasks.size(), outer, [&](size_t t) {
      MatrixProfileEngine engine(inner);
      profiles[t] = ComputeInstanceProfile(
          fixture.tasks[t], ProfileStageFixture::kWindow, 1, &engine);
      counters[t] = engine.counters();
    });
    sweeps = joins = 0;
    for (const auto& c : counters) {
      sweeps += c.qt_sweeps;
      joins += c.joins_computed;
    }
    benchmark::DoNotOptimize(profiles);
  }
  state.counters["qt_sweeps"] = static_cast<double>(sweeps);
  state.counters["joins_served"] = static_cast<double>(joins);
}
BENCHMARK(BM_TableVProfileStageEngine)->Arg(1)->Arg(8);

// ------------------------------------------------------------- SIMD kernels
//
// Before/after pairs for the core/simd.h kernel layer. The *Scalar variants
// run the always-compiled scalar reference (simd::scalar::*, the historic
// loops verbatim); the *Simd variants run the dispatched entry points on the
// backend active at start-up, the widest the CPU supports (its width is the
// "width" counter). Both paths are bitwise identical
// (tests/simd_kernel_test.cc); only wall-clock differs. bench_simd emits the
// same comparison for every backend as BENCH_simd.json.

void BM_SimdSlidingDotsScalar(benchmark::State& state) {
  const auto query = RandomSeries(48, 11);
  const auto series = RandomSeries(8192, 12);
  std::vector<double> out(series.size() - query.size() + 1);
  for (auto _ : state) {
    simd::scalar::SlidingDots(query.data(), query.size(), series.data(),
                              series.size(), out.data());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SimdSlidingDotsScalar);

void BM_SimdSlidingDotsSimd(benchmark::State& state) {
  const auto query = RandomSeries(48, 11);
  const auto series = RandomSeries(8192, 12);
  std::vector<double> out(series.size() - query.size() + 1);
  for (auto _ : state) {
    simd::SlidingDots(query.data(), query.size(), series.data(),
                      series.size(), out.data());
    benchmark::DoNotOptimize(out);
  }
  state.counters["width"] = static_cast<double>(simd::Lanes());
}
BENCHMARK(BM_SimdSlidingDotsSimd);

struct SimdProfileFixture {
  static constexpr size_t kWindow = 64;
  static constexpr size_t kLength = 65536;
  std::vector<double> series;
  std::vector<double> dots;
  std::vector<double> prefix_sq;
  RollingStats stats;
  double qq = 0.0;

  SimdProfileFixture() {
    series = RandomSeries(kLength, 13);
    const auto query = RandomSeries(kWindow, 14);
    for (double v : query) qq += v * v;
    prefix_sq.assign(kLength + 1, 0.0);
    for (size_t i = 0; i < kLength; ++i) {
      prefix_sq[i + 1] = prefix_sq[i] + series[i] * series[i];
    }
    dots = RandomSeries(kLength - kWindow + 1, 15);
    stats = ComputeRollingStats(series, kWindow);
  }
};

void BM_SimdRawProfileScalar(benchmark::State& state) {
  static const SimdProfileFixture f;
  std::vector<double> out(f.dots.size());
  for (auto _ : state) {
    simd::scalar::RawProfileFromDots(f.qq, f.prefix_sq.data(),
                                     SimdProfileFixture::kWindow,
                                     f.dots.data(), out.size(), out.data());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SimdRawProfileScalar);

void BM_SimdRawProfileSimd(benchmark::State& state) {
  static const SimdProfileFixture f;
  std::vector<double> out(f.dots.size());
  for (auto _ : state) {
    simd::RawProfileFromDots(f.qq, f.prefix_sq.data(),
                             SimdProfileFixture::kWindow, f.dots.data(),
                             out.size(), out.data());
    benchmark::DoNotOptimize(out);
  }
  state.counters["width"] = static_cast<double>(simd::Lanes());
}
BENCHMARK(BM_SimdRawProfileSimd);

void BM_SimdZNormProfileScalar(benchmark::State& state) {
  static const SimdProfileFixture f;
  std::vector<double> out(f.dots.size());
  for (auto _ : state) {
    simd::scalar::ZNormProfileFromDots(f.dots.data(), f.stats.stds.data(),
                                       out.size(),
                                       SimdProfileFixture::kWindow, false,
                                       out.data());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SimdZNormProfileScalar);

void BM_SimdZNormProfileSimd(benchmark::State& state) {
  static const SimdProfileFixture f;
  std::vector<double> out(f.dots.size());
  for (auto _ : state) {
    simd::ZNormProfileFromDots(f.dots.data(), f.stats.stds.data(), out.size(),
                               SimdProfileFixture::kWindow, false, out.data());
    benchmark::DoNotOptimize(out);
  }
  state.counters["width"] = static_cast<double>(simd::Lanes());
}
BENCHMARK(BM_SimdZNormProfileSimd);

// One chained STOMP row sweep: QtRowAdvance + StompRowDistances per row,
// the RowSweep inner loops of the matrix-profile engine.
struct SimdQtFixture {
  static constexpr size_t kWindow = 64;
  static constexpr size_t kRows = 256;
  std::vector<double> a, b, qt0;
  RollingStats sa, sb;

  SimdQtFixture() {
    a = RandomSeries(kRows + kWindow, 16);
    b = RandomSeries(4096, 17);
    sa = ComputeRollingStats(a, kWindow);
    sb = ComputeRollingStats(b, kWindow);
    qt0.resize(b.size() - kWindow + 1);
    simd::scalar::SlidingDots(a.data(), kWindow, b.data(), b.size(),
                              qt0.data());
  }
};

template <bool kUseSimd>
void SimdQtSweepBody(benchmark::State& state) {
  static const SimdQtFixture f;
  const size_t l = f.qt0.size();
  std::vector<double> qt(l), dist(l);
  for (auto _ : state) {
    qt = f.qt0;
    for (size_t i = 1; i < SimdQtFixture::kRows; ++i) {
      if constexpr (kUseSimd) {
        simd::QtRowAdvance(qt.data(), l, f.b.data(), SimdQtFixture::kWindow,
                           f.a[i - 1], f.a[i + SimdQtFixture::kWindow - 1]);
        simd::StompRowDistances(qt.data(), f.sb.means.data(),
                                f.sb.stds.data(), l, SimdQtFixture::kWindow,
                                f.sa.means[i], f.sa.stds[i], dist.data());
      } else {
        simd::scalar::QtRowAdvance(qt.data(), l, f.b.data(),
                                   SimdQtFixture::kWindow, f.a[i - 1],
                                   f.a[i + SimdQtFixture::kWindow - 1]);
        simd::scalar::StompRowDistances(
            qt.data(), f.sb.means.data(), f.sb.stds.data(), l,
            SimdQtFixture::kWindow, f.sa.means[i], f.sa.stds[i], dist.data());
      }
    }
    benchmark::DoNotOptimize(dist);
  }
  if (kUseSimd) state.counters["width"] = static_cast<double>(simd::Lanes());
}

void BM_SimdQtSweepScalar(benchmark::State& state) {
  SimdQtSweepBody<false>(state);
}
BENCHMARK(BM_SimdQtSweepScalar);

void BM_SimdQtSweepSimd(benchmark::State& state) {
  SimdQtSweepBody<true>(state);
}
BENCHMARK(BM_SimdQtSweepSimd);

// Centred prefix sums shared by both rolling-stats variants, so the pair
// times the moment-extraction kernel alone (the prefix build is a scalar
// chain in both configurations).
struct SimdRollingFixture {
  std::vector<double> sum, sq;
  double grand_mean = 0.0;

  SimdRollingFixture() {
    static const SimdProfileFixture f;
    for (double v : f.series) grand_mean += v;
    grand_mean /= static_cast<double>(f.series.size());
    sum.assign(f.series.size() + 1, 0.0);
    sq.assign(f.series.size() + 1, 0.0);
    for (size_t i = 0; i < f.series.size(); ++i) {
      const double c = f.series[i] - grand_mean;
      sum[i + 1] = sum[i] + c;
      sq[i + 1] = sq[i] + c * c;
    }
  }
};

void BM_SimdRollingStatsScalar(benchmark::State& state) {
  static const SimdRollingFixture f;
  const size_t count = f.sum.size() - SimdProfileFixture::kWindow;
  std::vector<double> means(count), stds(count);
  for (auto _ : state) {
    simd::scalar::RollingMomentsFromPrefix(
        f.sum.data(), f.sq.data(), count, SimdProfileFixture::kWindow,
        f.grand_mean, means.data(), stds.data());
    benchmark::DoNotOptimize(means);
    benchmark::DoNotOptimize(stds);
  }
}
BENCHMARK(BM_SimdRollingStatsScalar);

void BM_SimdRollingStatsSimd(benchmark::State& state) {
  static const SimdRollingFixture f;
  const size_t count = f.sum.size() - SimdProfileFixture::kWindow;
  std::vector<double> means(count), stds(count);
  for (auto _ : state) {
    simd::RollingMomentsFromPrefix(
        f.sum.data(), f.sq.data(), count, SimdProfileFixture::kWindow,
        f.grand_mean, means.data(), stds.data());
    benchmark::DoNotOptimize(means);
    benchmark::DoNotOptimize(stds);
  }
  state.counters["width"] = static_cast<double>(simd::Lanes());
}
BENCHMARK(BM_SimdRollingStatsSimd);

// ------------------------------------------------------- batched prediction
//
// PredictBatch vs the per-series Predict loop at equal predictions. The
// batch path shares one ShapeletTransform call (series-side artefacts cached
// across shapelets, rows parallelised); the loop re-enters the engine once
// per series.

struct PredictFixture {
  TrainTestSplit data;
  std::map<size_t, IpsClassifier> by_threads;

  PredictFixture() {
    GeneratorSpec spec;
    spec.name = "micro_predict";
    spec.num_classes = 2;
    spec.train_size = 20;
    spec.test_size = 64;
    spec.length = 256;
    data = GenerateDataset(spec);
    for (size_t threads : {1, 8}) {
      IpsOptions o;
      o.sample_count = 5;
      o.sample_size = 3;
      o.length_ratios = {0.2, 0.3};
      o.shapelets_per_class = 4;
      o.num_threads = threads;
      by_threads.try_emplace(threads, o).first->second.Fit(data.train);
    }
  }
};

void BM_PredictLoop(benchmark::State& state) {
  static const PredictFixture fixture;
  const IpsClassifier& clf =
      fixture.by_threads.at(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<int> labels(fixture.data.test.size());
    for (size_t i = 0; i < fixture.data.test.size(); ++i) {
      labels[i] = clf.Predict(fixture.data.test[i]);
    }
    benchmark::DoNotOptimize(labels);
  }
}
BENCHMARK(BM_PredictLoop)->Arg(1)->Arg(8);

void BM_PredictBatch(benchmark::State& state) {
  static const PredictFixture fixture;
  const IpsClassifier& clf =
      fixture.by_threads.at(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(clf.PredictBatch(fixture.data.test));
  }
}
BENCHMARK(BM_PredictBatch)->Arg(1)->Arg(8);

}  // namespace
}  // namespace ips

BENCHMARK_MAIN();
