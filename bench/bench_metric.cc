// Per-metric cost and accuracy comparison for the metric-policy layer
// (core/metric.h), emitted as machine-readable JSON (BENCH_metric.json).
//
// Every registered metric runs the same three workloads:
//   - one MatrixProfileEngine self-join (the QT sweep with the metric's
//     O(1) distance step) on a fixed series;
//   - one whole-dataset ShapeletTransform (the min-reduce kernels) on a
//     fixed dataset;
//   - one end-to-end IpsClassifier fit + test accuracy, so the JSON also
//     records what the metric choice does to classification quality.
// Timings are best-of-trials; checksums confirm each timed loop computed
// real values (parity itself is asserted in tests/metric_test.cc).
//
// Usage: bench_metric [--out=PATH]   (default ./BENCH_metric.json)

#include <chrono>
#include <cstdio>

#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/metric.h"
#include "core/rng.h"
#include "data/generator.h"
#include "ips/pipeline.h"
#include "matrix_profile/mp_engine.h"
#include "transform/shapelet_transform.h"

namespace ips {
namespace {

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

struct MetricResult {
  std::string metric;
  double self_join_ns = 0.0;
  double transform_ns = 0.0;
  double fit_ns = 0.0;
  double accuracy = 0.0;
  double self_join_checksum = 0.0;
  double transform_checksum = 0.0;
  size_t shapelets = 0;
};

MetricResult BenchOneMetric(MetricId metric, const std::vector<double>& series,
                            const TrainTestSplit& data,
                            const std::vector<Subsequence>& shapelets) {
  MetricResult r;
  r.metric = MetricName(metric);

  // QT sweep: one self-join per timing rep; every call builds its own
  // artifact table, so each rep pays the full sweep cost.
  {
    MatrixProfileEngine engine(1);
    MatrixProfile mp;
    r.self_join_ns = BestOfNs(
        [&] {
          mp = engine.SelfJoin(series, /*window=*/64, /*exclusion=*/0, metric);
        },
        3, 2);
    r.self_join_checksum = Checksum(mp.values);
  }

  // Profile tails: the whole-dataset shapelet transform.
  {
    std::vector<std::vector<double>> rows;
    r.transform_ns = BestOfNs(
        [&] {
          rows = ShapeletTransform(data.train, shapelets, metric).features;
        },
        3, 2);
    for (const auto& row : rows) r.transform_checksum += Checksum(row);
  }

  // End to end: discovery, transform and back-end under this metric.
  {
    IpsOptions options;
    options.sample_count = 4;
    options.sample_size = 3;
    options.length_ratios = {0.2, 0.3};
    options.shapelets_per_class = 3;
    options.metric = metric;
    IpsClassifier clf(options);
    r.fit_ns = BestOfNs([&] { clf.Fit(data.train); }, 2, 1);
    r.accuracy = clf.Accuracy(data.test);
    r.shapelets = clf.shapelets().size();
  }
  return r;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_metric.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
  }

  Rng rng(5);
  std::vector<double> series(4096);
  for (double& v : series) v = rng.Gaussian();

  GeneratorSpec spec;
  spec.name = "bench_metric";
  spec.num_classes = 2;
  spec.train_size = 24;
  spec.test_size = 32;
  spec.length = 192;
  const TrainTestSplit data = GenerateDataset(spec);

  std::vector<Subsequence> shapelets;
  for (size_t i = 0; i < 6; ++i) {
    shapelets.push_back(
        ExtractSubsequence(data.train[i], 4 * i, 24 + 3 * (i % 3)));
  }

  std::vector<MetricResult> results;
  for (size_t m = 0; m < kMetricCount; ++m) {
    results.push_back(BenchOneMetric(static_cast<MetricId>(m), series, data,
                                     shapelets));
  }

  std::ofstream out(out_path);
  out << "{\n  \"metrics\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const MetricResult& r = results[i];
    out << "    {\"metric\": \"" << r.metric
        << "\", \"self_join_ns\": " << r.self_join_ns
        << ", \"transform_ns\": " << r.transform_ns
        << ", \"fit_ns\": " << r.fit_ns << ", \"accuracy\": " << r.accuracy
        << ", \"shapelets\": " << r.shapelets
        << ", \"self_join_checksum\": " << r.self_join_checksum
        << ", \"transform_checksum\": " << r.transform_checksum << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.close();

  for (const MetricResult& r : results) {
    std::printf(
        "%-18s self_join %10.0f ns  transform %10.0f ns  fit %12.0f ns  "
        "accuracy %.3f  shapelets %zu\n",
        r.metric.c_str(), r.self_join_ns, r.transform_ns, r.fit_ns,
        r.accuracy, r.shapelets);
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace ips

int main(int argc, char** argv) { return ips::Main(argc, argv); }
