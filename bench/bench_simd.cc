// Per-backend before/after numbers for the kernel layer (core/simd.h),
// emitted as machine-readable JSON (BENCH_simd.json) in the obs report
// schema.
//
// One row per backend the CPU supports (simd::SupportedBackends(), switched
// with simd::UseBackend in this one process). In each row every kernel is
// timed as the dispatched entry point against the always-compiled scalar
// reference on the same inputs, best-of-trials, with a checksum over the
// outputs to confirm the two paths computed the same values (they are
// bitwise identical; tests/simd_kernel_test.cc is the strict assertion,
// the checksum here guards the benchmark itself; qt_sweep, the whole STOMP
// row, compares every row and column minimum and index bit for bit
// instead, and qt_sweep_fused, the all-pairs join's fused row, every
// minimum and the final QT row; transform_group, the transform row's
// grouped kernel, also times and gates the per-query path it replaces).
// On top of the kernels,
// each row times IpsClassifier::PredictBatch on that backend, at one thread
// and at every hardware thread, and checks its labels against the scalar
// backend's. The run exits nonzero on any checksum or label mismatch.
//
// Output: {"experiment", "env" (bench_env.h; the start-up backend),
// "backends": [...], "report": obs::ReportToJson over the whole run}.
//
// Usage: bench_simd [--out=PATH]   (default ./BENCH_simd.json)

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_env.h"
#include "core/rng.h"
#include "core/simd.h"
#include "core/znorm.h"
#include "data/generator.h"
#include "ips/pipeline.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace ips {
namespace {

struct KernelResult {
  std::string kernel;
  double scalar_ns = 0.0;
  double simd_ns = 0.0;
  bool checksum_equal = false;
  /// transform_group only: the same minima one query at a time on this
  /// backend (SlidingDots, then the min tail), which the grouped kernel
  /// replaces.
  double per_query_ns = 0.0;

  double Speedup() const { return simd_ns > 0.0 ? scalar_ns / simd_ns : 0.0; }

  obs::JsonValue ToJson() const {
    obs::JsonValue e = obs::JsonValue::Object();
    e.Set("kernel", kernel);
    e.Set("scalar_ns", scalar_ns);
    e.Set("backend_ns", simd_ns);
    e.Set("speedup", Speedup());
    if (per_query_ns > 0.0) {
      e.Set("per_query_ns", per_query_ns);
      e.Set("group_speedup", per_query_ns / simd_ns);
    }
    e.Set("checksum_equal", checksum_equal);
    return e;
  }
};

double BestOfNs(const std::function<void()>& fn, int trials, int reps) {
  double best = 1e300;
  for (int t = 0; t < trials; ++t) {
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) fn();
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count() /
        static_cast<double>(reps);
    if (ns < best) best = ns;
  }
  return best;
}

double Checksum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

bool BitEqual(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

std::vector<double> RandomSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) v = rng.Gaussian();
  return out;
}

// Naive distance profile core: sliding dot products of a short query, the
// regime below the FFT cutoff where the O(nm) loop runs.
KernelResult BenchSlidingDots() {
  const size_t m = 48, n = 8192, count = n - m + 1;
  const auto q = RandomSeries(m, 1);
  const auto s = RandomSeries(n, 2);
  std::vector<double> out_simd(count), out_scalar(count);

  KernelResult r;
  r.kernel = "sliding_dots";
  r.simd_ns = BestOfNs(
      [&] { simd::SlidingDots(q.data(), m, s.data(), n, out_simd.data()); }, 5,
      3);
  r.scalar_ns = BestOfNs(
      [&] {
        simd::scalar::SlidingDots(q.data(), m, s.data(), n, out_scalar.data());
      },
      5, 3);
  r.checksum_equal = Checksum(out_simd) == Checksum(out_scalar);
  return r;
}

// The raw-profile tail on precomputed dots (the DistanceEngine min-reduce
// shape, materialised so the checksum can compare outputs).
KernelResult BenchRawProfile() {
  const size_t m = 64, n = 65536, count = n - m + 1;
  const auto s = RandomSeries(n, 3);
  const auto q = RandomSeries(m, 4);
  double qq = 0.0;
  for (double v : q) qq += v * v;
  std::vector<double> sq(n + 1, 0.0);
  for (size_t i = 0; i < n; ++i) sq[i + 1] = sq[i] + s[i] * s[i];
  const auto dots = RandomSeries(count, 5);
  std::vector<double> out_simd(count), out_scalar(count);

  KernelResult r;
  r.kernel = "raw_profile";
  r.simd_ns = BestOfNs(
      [&] {
        simd::RawProfileFromDots(qq, sq.data(), m, dots.data(), count,
                                 out_simd.data());
      },
      5, 10);
  r.scalar_ns = BestOfNs(
      [&] {
        simd::scalar::RawProfileFromDots(qq, sq.data(), m, dots.data(), count,
                                         out_scalar.data());
      },
      5, 10);
  r.checksum_equal = Checksum(out_simd) == Checksum(out_scalar);
  return r;
}

// The z-norm profile tail (MASS) with realistic rolling stats.
KernelResult BenchZNormProfile() {
  const size_t m = 64, n = 65536, count = n - m + 1;
  const auto s = RandomSeries(n, 6);
  const RollingStats stats = ComputeRollingStats(s, m);
  const auto dots = RandomSeries(count, 7);
  std::vector<double> out_simd(count), out_scalar(count);

  KernelResult r;
  r.kernel = "znorm_profile";
  r.simd_ns = BestOfNs(
      [&] {
        simd::ZNormProfileFromDots(dots.data(), stats.stds.data(), count, m,
                                   false, out_simd.data());
      },
      5, 10);
  r.scalar_ns = BestOfNs(
      [&] {
        simd::scalar::ZNormProfileFromDots(dots.data(), stats.stds.data(),
                                           count, m, false, out_scalar.data());
      },
      5, 10);
  r.checksum_equal = Checksum(out_simd) == Checksum(out_scalar);
  return r;
}

// The z-norm min tail on the same inputs: the transform's min query, which
// selects over squared distances and roots the minimum once. Gated on the
// minimum bit for bit.
KernelResult BenchZNormMin() {
  const size_t m = 64, n = 65536, count = n - m + 1;
  const auto s = RandomSeries(n, 6);
  const RollingStats stats = ComputeRollingStats(s, m);
  const auto dots = RandomSeries(count, 7);
  double min_simd = 0.0, min_scalar = 0.0;

  KernelResult r;
  r.kernel = "znorm_min";
  r.simd_ns = BestOfNs(
      [&] {
        min_simd = simd::ZNormMinFromDots(dots.data(), stats.stds.data(), count,
                                          m, false);
      },
      5, 10);
  r.scalar_ns = BestOfNs(
      [&] {
        min_scalar = simd::scalar::ZNormMinFromDots(
            dots.data(), stats.stds.data(), count, m, false);
      },
      5, 10);
  r.checksum_equal = BitEqual({min_simd}, {min_scalar});
  return r;
}

// One full STOMP AB-join row sweep, the engine's RowSweep inner loops:
// chained QT updates, the per-row squared-distance evaluation and the
// two-sided min scan (the row's nearest column, and each column's nearest
// row).
// Gated on every row and column minimum and index, bit for bit.
KernelResult BenchQtSweep() {
  const size_t w = 64, n = 4096, l = n - w + 1, rows = 256;
  const auto a = RandomSeries(rows + w, 8);
  const auto b = RandomSeries(n, 9);
  const RollingStats sb = ComputeRollingStats(b, w);
  const RollingStats sa = ComputeRollingStats(a, w);
  std::vector<double> qt0(l);
  simd::scalar::SlidingDots(a.data(), w, b.data(), n, qt0.data());

  struct Profiles {
    std::vector<double> row_val, row_idx, col_val, col_row;
  };
  std::vector<double> qt(l), dist(l);
  Profiles out_simd, out_scalar;

  const auto sweep = [&](bool use_simd, Profiles& o) {
    qt = qt0;
    o.row_val.assign(rows, 0.0);
    o.row_idx.assign(rows, -1.0);
    o.col_val.assign(l, std::numeric_limits<double>::infinity());
    o.col_row.assign(l, -1.0);
    const simd::RowMin none{std::numeric_limits<double>::infinity(), -1.0};
    for (size_t i = 1; i < rows; ++i) {
      const double row = static_cast<double>(i);
      simd::RowMin best;
      if (use_simd) {
        simd::QtRowAdvance(qt.data(), l, b.data(), w, a[i - 1], a[i + w - 1]);
        simd::StompRowDistances(qt.data(), sb.means.data(), sb.stds.data(), l,
                                w, sa.means[i], sa.stds[i], dist.data());
        best = simd::StompRowMins(dist.data(), l, 0.0, row, none,
                                  o.col_val.data(), o.col_row.data());
      } else {
        simd::scalar::QtRowAdvance(qt.data(), l, b.data(), w, a[i - 1],
                                   a[i + w - 1]);
        simd::scalar::StompRowDistances(qt.data(), sb.means.data(),
                                        sb.stds.data(), l, w, sa.means[i],
                                        sa.stds[i], dist.data());
        best = simd::scalar::StompRowMins(dist.data(), l, 0.0, row, none,
                                          o.col_val.data(), o.col_row.data());
      }
      o.row_val[i] = best.value;
      o.row_idx[i] = best.index;
    }
  };

  KernelResult r;
  r.kernel = "qt_sweep";
  r.simd_ns = BestOfNs([&] { sweep(true, out_simd); }, 3, 2);
  r.scalar_ns = BestOfNs([&] { sweep(false, out_scalar); }, 3, 2);
  r.checksum_equal = BitEqual(out_simd.row_val, out_scalar.row_val) &&
                     BitEqual(out_simd.row_idx, out_scalar.row_idx) &&
                     BitEqual(out_simd.col_val, out_scalar.col_val) &&
                     BitEqual(out_simd.col_row, out_scalar.col_row);
  return r;
}

// The same sweep as the all-pairs join runs it: one fused pass per row
// (StompRowFusedZNorm) that advances QT and folds each squared distance
// into the row and column minima, values only. Gated on every row and
// column minimum and the final QT row, bit for bit, against the scalar
// instantiation.
KernelResult BenchQtSweepFused() {
  const size_t w = 64, n = 4096, l = n - w + 1, rows = 256;
  const auto a = RandomSeries(rows + w, 8);
  const auto b = RandomSeries(n, 9);
  const RollingStats sb = ComputeRollingStats(b, w);
  const RollingStats sa = ComputeRollingStats(a, w);
  std::vector<double> qt0(l);
  simd::scalar::SlidingDots(a.data(), w, b.data(), n, qt0.data());

  struct Minima {
    std::vector<double> qt, row_val, col_val;
  };
  Minima out_simd, out_scalar;

  const auto sweep = [&](bool use_simd, Minima& o) {
    o.qt = qt0;
    o.row_val.assign(rows, 0.0);
    o.col_val.assign(l, std::numeric_limits<double>::infinity());
    for (size_t i = 1; i < rows; ++i) {
      const simd::QtStep step{true, b.data(), a[i - 1], a[i + w - 1], qt0[0]};
      o.row_val[i] =
          use_simd
              ? simd::StompRowFusedZNorm(o.qt.data(), l, w, step,
                                         sb.means.data(), sb.stds.data(),
                                         sa.means[i], sa.stds[i],
                                         o.col_val.data())
              : simd::scalar::StompRowFusedZNorm(
                    o.qt.data(), l, w, step, sb.means.data(), sb.stds.data(),
                    sa.means[i], sa.stds[i], o.col_val.data());
    }
  };

  KernelResult r;
  r.kernel = "qt_sweep_fused";
  r.simd_ns = BestOfNs([&] { sweep(true, out_simd); }, 3, 2);
  r.scalar_ns = BestOfNs([&] { sweep(false, out_scalar); }, 3, 2);
  r.checksum_equal = BitEqual(out_simd.qt, out_scalar.qt) &&
                     BitEqual(out_simd.row_val, out_scalar.row_val) &&
                     BitEqual(out_simd.col_val, out_scalar.col_val);
  return r;
}

// The transform row on the store_reload shape: 64 series of length 256
// against 40 z-normalised shapelets, 8 of each length 25, 51, 76, 102 and
// 128, answered kGroupSize at a time by SlidingMinGroup (backend_ns; the
// scalar instantiation is scalar_ns) and one query at a time by
// SlidingDots + ZNormMinFromDots on the same backend (per_query_ns). The
// rolling stds are built outside the timing. Gated on every minimum of all
// three, bit for bit.
KernelResult BenchTransformGroup() {
  constexpr size_t G = simd::kGroupSize;
  const size_t n = 256, num_series = 64, per_length = 8;
  const size_t lengths[] = {25, 51, 76, 102, 128};
  std::vector<std::vector<double>> series;
  for (size_t i = 0; i < num_series; ++i) {
    series.push_back(RandomSeries(n, 100 + i));
  }
  std::vector<std::vector<double>> queries;
  std::vector<std::vector<double>> stds;  // per series, then length
  for (size_t m : lengths) {
    for (size_t k = 0; k < per_length; ++k) {
      queries.push_back(ZNormalize(RandomSeries(m, 1000 + m + k)));
    }
  }
  for (const std::vector<double>& s : series) {
    for (size_t m : lengths) stds.push_back(ComputeRollingStats(s, m).stds);
  }
  const size_t num_queries = queries.size();
  std::vector<double> grouped(num_series * num_queries);
  std::vector<double> reference(grouped.size());
  std::vector<double> per_query(grouped.size());
  std::vector<double> dots(n);

  const auto run_grouped = [&](bool use_simd, std::vector<double>& out) {
    for (size_t i = 0; i < num_series; ++i) {
      for (size_t l = 0; l < std::size(lengths); ++l) {
        const size_t m = lengths[l];
        const double* sig = stds[i * std::size(lengths) + l].data();
        for (size_t k = 0; k < per_length; k += G) {
          const double* q[G];
          for (size_t g = 0; g < G; ++g) {
            q[g] = queries[l * per_length + k + g].data();
          }
          double* dst = &out[i * num_queries + l * per_length + k];
          if (use_simd) {
            simd::SlidingMinGroup(simd::MinTail::kZNorm, q, nullptr, m,
                                  series[i].data(), n, sig, nullptr, dst);
          } else {
            simd::scalar::SlidingMinGroup(simd::MinTail::kZNorm, q, nullptr,
                                          m, series[i].data(), n, sig,
                                          nullptr, dst);
          }
        }
      }
    }
  };
  const auto run_per_query = [&] {
    for (size_t i = 0; i < num_series; ++i) {
      for (size_t l = 0; l < std::size(lengths); ++l) {
        const size_t m = lengths[l];
        const double* sig = stds[i * std::size(lengths) + l].data();
        for (size_t k = 0; k < per_length; ++k) {
          const size_t j = l * per_length + k;
          simd::SlidingDots(queries[j].data(), m, series[i].data(), n,
                            dots.data());
          per_query[i * num_queries + j] =
              simd::ZNormMinFromDots(dots.data(), sig, n - m + 1, m, false);
        }
      }
    }
  };

  KernelResult r;
  r.kernel = "transform_group";
  r.simd_ns = BestOfNs([&] { run_grouped(true, grouped); }, 5, 3);
  r.scalar_ns = BestOfNs([&] { run_grouped(false, reference); }, 3, 1);
  r.per_query_ns = BestOfNs(run_per_query, 5, 3);
  r.checksum_equal =
      BitEqual(grouped, reference) && BitEqual(grouped, per_query);
  return r;
}

// Rolling mean/std from centred prefix sums (ComputeRollingStats' kernel).
KernelResult BenchRollingStats() {
  const size_t w = 64, n = 65536, count = n - w + 1;
  const auto x = RandomSeries(n, 10);
  double gm = 0.0;
  for (double v : x) gm += v;
  gm /= static_cast<double>(n);
  std::vector<double> sum(n + 1, 0.0), sq(n + 1, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double c = x[i] - gm;
    sum[i + 1] = sum[i] + c;
    sq[i + 1] = sq[i] + c * c;
  }
  std::vector<double> mg(count), sg(count), mr(count), sr(count);

  KernelResult r;
  r.kernel = "rolling_stats";
  r.simd_ns = BestOfNs(
      [&] {
        simd::RollingMomentsFromPrefix(sum.data(), sq.data(), count, w, gm,
                                       mg.data(), sg.data());
      },
      5, 10);
  r.scalar_ns = BestOfNs(
      [&] {
        simd::scalar::RollingMomentsFromPrefix(sum.data(), sq.data(), count, w,
                                               gm, mr.data(), sr.data());
      },
      5, 10);
  r.checksum_equal =
      Checksum(mg) == Checksum(mr) && Checksum(sg) == Checksum(sr);
  return r;
}

struct PredictResult {
  size_t threads = 0;
  double batch_ns = 0.0;
  bool labels_equal_scalar = false;

  obs::JsonValue ToJson() const {
    obs::JsonValue e = obs::JsonValue::Object();
    e.Set("threads", threads);
    e.Set("batch_ns", batch_ns);
    e.Set("labels_equal_scalar", labels_equal_scalar);
    return e;
  }
};

// A fitted classifier and its held-out set; fitting is backend-independent
// (bitwise), so each thread count fits once and every backend predicts.
struct PredictFixture {
  TrainTestSplit data;
  std::vector<size_t> thread_counts;
  std::vector<std::unique_ptr<IpsClassifier>> classifiers;  // per count
  std::vector<std::vector<int>> scalar_labels;              // per count

  PredictFixture() {
    GeneratorSpec spec;
    spec.name = "bench_simd_predict";
    spec.num_classes = 2;
    spec.train_size = 20;
    spec.test_size = 64;
    spec.length = 256;
    data = GenerateDataset(spec);

    IpsOptions options;
    options.sample_count = 5;
    options.sample_size = 3;
    options.length_ratios = {0.2, 0.3};
    options.shapelets_per_class = 4;

    // Single-threaded and all-cores; on single-core hosts the two
    // coincide, so the list is deduplicated up front.
    thread_counts.push_back(1);
    if (HardwareThreads() > 1) thread_counts.push_back(HardwareThreads());
    for (size_t threads : thread_counts) {
      IpsOptions o = options;
      o.num_threads = threads;
      classifiers.push_back(std::make_unique<IpsClassifier>(o));
      classifiers.back()->Fit(data.train);
    }
  }
};

// PredictBatch on the active backend at every fixture thread count. The
// scalar backend runs first and records the reference labels.
std::vector<PredictResult> BenchPredictBatch(PredictFixture& f) {
  const bool is_scalar = simd::ActiveBackend() == simd::Backend::kScalar;
  std::vector<PredictResult> results;
  for (size_t k = 0; k < f.classifiers.size(); ++k) {
    const IpsClassifier& clf = *f.classifiers[k];
    std::vector<int> labels;
    PredictResult r;
    r.threads = f.thread_counts[k];
    r.batch_ns = BestOfNs([&] { labels = clf.PredictBatch(f.data.test); }, 3,
                          1);
    if (is_scalar) f.scalar_labels.push_back(labels);
    r.labels_equal_scalar =
        k < f.scalar_labels.size() && labels == f.scalar_labels[k];
    results.push_back(r);
  }
  return results;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_simd.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
  }

  const obs::MetricsSnapshot metrics_before =
      obs::MetricsRegistry::Instance().Snapshot();
  const obs::TraceSnapshot trace_before =
      obs::TraceRegistry::Instance().Snapshot();
  const simd::Backend start_up = simd::ActiveBackend();
  PredictFixture fixture;

  bool ok = true;
  obs::JsonValue rows = obs::JsonValue::Array();
  for (const simd::Backend backend : simd::SupportedBackends()) {
    if (!simd::UseBackend(backend)) return 1;
    const std::vector<KernelResult> kernels = {
        BenchSlidingDots(), BenchRawProfile(), BenchZNormProfile(),
        BenchZNormMin(), BenchQtSweep(), BenchQtSweepFused(),
        BenchTransformGroup(), BenchRollingStats()};
    const std::vector<PredictResult> predict = BenchPredictBatch(fixture);

    std::printf("backend=%s width=%zu\n", simd::BackendName(),
                simd::Lanes());
    obs::JsonValue kernel_rows = obs::JsonValue::Array();
    for (const KernelResult& k : kernels) {
      std::printf(
          "  %-14s scalar %10.0f ns  %-6s %10.0f ns  speedup %5.2fx  %s\n",
          k.kernel.c_str(), k.scalar_ns, simd::BackendName(), k.simd_ns,
          k.Speedup(), k.checksum_equal ? "checksum OK" : "CHECKSUM MISMATCH");
      if (k.per_query_ns > 0.0) {
        std::printf("  %-14s per-query %8.0f ns  grouped speedup %5.2fx\n",
                    "", k.per_query_ns, k.per_query_ns / k.simd_ns);
      }
      ok = ok && k.checksum_equal;
      kernel_rows.Append(k.ToJson());
    }
    obs::JsonValue predict_rows = obs::JsonValue::Array();
    for (const PredictResult& p : predict) {
      std::printf("  predict_batch  threads=%zu  %10.0f ns  %s\n", p.threads,
                  p.batch_ns,
                  p.labels_equal_scalar ? "labels OK" : "LABEL MISMATCH");
      ok = ok && p.labels_equal_scalar;
      predict_rows.Append(p.ToJson());
    }
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("backend", simd::BackendName());
    row.Set("width", simd::Lanes());
    row.Set("kernels", std::move(kernel_rows));
    row.Set("predict_batch", std::move(predict_rows));
    rows.Append(std::move(row));
  }
  if (!simd::UseBackend(start_up)) return 1;

  obs::JsonValue doc = obs::JsonValue::Object();
  doc.Set("experiment", "simd");
  doc.Set("env", bench::BenchEnvJson());
  doc.Set("backends", std::move(rows));
  doc.Set("report",
          obs::ReportToJson(
              obs::TraceRegistry::Instance().DeltaSince(trace_before),
              obs::MetricsRegistry::Instance().DeltaSince(metrics_before)));
  if (!obs::WriteJsonFile(doc, out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: a backend disagreed with the scalar reference\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ips

int main(int argc, char** argv) { return ips::Main(argc, argv); }
