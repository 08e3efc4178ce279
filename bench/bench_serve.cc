// Serving before/after harness, emitted as machine-readable JSON
// (BENCH_serve.json).
//
// Two modes:
//
// In-process (default): builds a fixture (two genuinely different run
// artifacts over one train split), boots a real Server on an ephemeral
// loopback port, and
//   1. sweeps the closed-loop client threads {1, 8}, measuring throughput
//      and client-side p50/p99 latency, plus the server's queue-wait,
//      batch-compute and reply-write histograms;
//   2. runs a hot-swap soak: classify traffic from every thread while the
//      main thread keeps swapping the artifact file and reloading.
// EVERY response in both phases is checked against the offline
// PredictBatch labels of the model version the response reports, and the
// run is additionally guarded by an FNV-1a checksum over (series index,
// label) pairs: served vs offline must be bitwise identical, at every
// client count and across hot swaps. Any divergence fails the run
// (nonzero exit) -- the same contract the tests assert, proven here at
// serving scale. The JSON carries the bench_env.h env block and an
// obs::ReportToJson report of the metrics the run moved.
//
// Connect mode (--connect=HOST:PORT --fixture=DIR [--model=NAME]): the CI
// soak. Drives an externally-booted ips_serve daemon over the fixture
// written by `ips_serve --make_fixture=DIR`: mixed classify/reload traffic,
// with the same per-version offline parity gate (odd versions = the
// fixture's model.ipsrun, even = model_alt.ipsrun, because each reload
// round swaps the artifact file between the two).
//
// Usage: bench_serve [--json=PATH] [--threads=N] [--requests=N]
//                    [--connect=HOST:PORT --fixture=DIR [--model=NAME]]

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_env.h"
#include "data/generator.h"
#include "data/ucr_loader.h"
#include "ips/config.h"
#include "ips/pipeline.h"
#include "ips/serialization.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/model_registry.h"
#include "serve/server.h"

namespace ips {
namespace {

// ------------------------------------------------------------ checksums

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline void FnvMix(uint64_t& h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

// ------------------------------------------------------------- workload

struct Fixture {
  TrainTestSplit data;
  std::string artifact_a;        // serialized primary artifact
  std::string artifact_b;        // serialized alternate artifact
  std::vector<int> expected_a;   // offline PredictBatch over data.test
  std::vector<int> expected_b;
};

IpsOptions DiscoveryOptions(uint64_t seed, int shapelets_per_class) {
  IpsOptions o;
  o.sample_count = 6;
  o.sample_size = 3;
  o.length_ratios = {0.15, 0.25};
  o.shapelets_per_class = shapelets_per_class;
  o.seed = seed;
  return o;
}

/// Offline ground truth: rebuild exactly the way the registry does.
std::vector<int> OfflineLabels(const Dataset& train, const Dataset& test,
                               const RunResult& artifact) {
  IpsClassifier clf{IpsOptions{}};
  clf.FitFromRunResult(train, artifact);
  return clf.PredictBatch(test);
}

Fixture BuildFixture() {
  GeneratorSpec spec;
  spec.name = "bench_serve";
  spec.num_classes = 2;
  spec.train_size = 16;
  spec.test_size = 40;
  spec.length = 96;
  Fixture f;
  f.data = GenerateDataset(spec);

  IpsClassifier a(DiscoveryOptions(42, 4));
  a.Fit(f.data.train);
  f.artifact_a = SerializeRunResult(a.result());
  f.expected_a = OfflineLabels(f.data.train, f.data.test, a.result());

  IpsClassifier b(DiscoveryOptions(1234, 3));
  b.Fit(f.data.train);
  f.artifact_b = SerializeRunResult(b.result());
  f.expected_b = OfflineLabels(f.data.train, f.data.test, b.result());
  return f;
}

/// Versions alternate artifacts: odd = A (loaded first), even = B.
const std::vector<int>& ExpectedForVersion(const Fixture& f, uint32_t v) {
  return v % 2 == 1 ? f.expected_a : f.expected_b;
}

// ------------------------------------------------------- traffic driver

struct DriveResult {
  uint64_t requests = 0;
  uint64_t mismatches = 0;
  uint64_t errors = 0;
  double seconds = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t served_checksum = kFnvOffset;
  uint64_t offline_checksum = kFnvOffset;

  bool ok() const {
    return mismatches == 0 && errors == 0 &&
           served_checksum == offline_checksum;
  }
};

/// `threads` clients each fire `requests_per_thread` single-series
/// classifies round-robin over the test set, validating every label
/// against the offline run of the version the response reports. The two
/// checksums fold (series index, label) in identical order, one from the
/// served labels and one from the offline labels -- equal iff serving is
/// bitwise faithful.
DriveResult DriveTraffic(const std::string& host, int port,
                         const std::string& model, const Fixture& fixture,
                         int threads, int requests_per_thread) {
  struct PerThread {
    uint64_t served = kFnvOffset;
    uint64_t offline = kFnvOffset;
    uint64_t mismatches = 0;
    uint64_t errors = 0;
    std::vector<double> latencies_us;
  };
  std::vector<PerThread> per_thread(static_cast<size_t>(threads));
  const auto start = std::chrono::steady_clock::now();

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      PerThread& mine = per_thread[static_cast<size_t>(t)];
      serve::Client client;
      std::string error;
      if (!client.Connect(host, port, &error)) {
        mine.errors = static_cast<uint64_t>(requests_per_thread);
        return;
      }
      mine.latencies_us.reserve(static_cast<size_t>(requests_per_thread));
      for (int i = 0; i < requests_per_thread; ++i) {
        const size_t index =
            (static_cast<size_t>(t) * 7919 + static_cast<size_t>(i)) %
            fixture.data.test.size();
        const auto sent = std::chrono::steady_clock::now();
        const auto response = client.Classify(
            model, {fixture.data.test[index].values}, &error);
        const auto done = std::chrono::steady_clock::now();
        if (!response || response->labels.size() != 1) {
          ++mine.errors;
          continue;
        }
        mine.latencies_us.push_back(
            std::chrono::duration<double, std::micro>(done - sent).count());
        const int served = response->labels[0];
        const int offline =
            ExpectedForVersion(fixture, response->model_version)[index];
        if (served != offline) ++mine.mismatches;
        FnvMix(mine.served, index);
        FnvMix(mine.served, static_cast<uint64_t>(static_cast<int64_t>(served)));
        FnvMix(mine.offline, index);
        FnvMix(mine.offline,
               static_cast<uint64_t>(static_cast<int64_t>(offline)));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  DriveResult result;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::vector<double> latencies;
  for (const PerThread& p : per_thread) {
    result.requests += p.latencies_us.size();
    result.mismatches += p.mismatches;
    result.errors += p.errors;
    FnvMix(result.served_checksum, p.served);
    FnvMix(result.offline_checksum, p.offline);
    latencies.insert(latencies.end(), p.latencies_us.begin(),
                     p.latencies_us.end());
  }
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    result.p50_us = latencies[latencies.size() / 2];
    result.p99_us = latencies[latencies.size() * 99 / 100];
  }
  return result;
}

obs::JsonValue ResultToJson(const DriveResult& r) {
  obs::JsonValue e = obs::JsonValue::Object();
  e.Set("requests", r.requests);
  e.Set("errors", r.errors);
  e.Set("mismatches", r.mismatches);
  e.Set("seconds", r.seconds);
  e.Set("qps", r.seconds > 0 ? static_cast<double>(r.requests) / r.seconds
                             : 0.0);
  e.Set("p50_us", r.p50_us);
  e.Set("p99_us", r.p99_us);
  e.Set("served_vs_offline", r.ok() ? "ok" : "CHECKSUM MISMATCH");
  return e;
}

// ----------------------------------------------------- in-process bench

int RunInProcess(const std::string& json_path, int threads_override,
                 int requests_override) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("bench_serve_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string artifact_path = (dir / "model.ipsrun").string();
  const std::string train_path = (dir / "train.tsv").string();

  std::printf("building fixture...\n");
  const Fixture fixture = BuildFixture();
  if (!SaveUcrFile(fixture.data.train, train_path)) {
    std::fprintf(stderr, "cannot write %s\n", train_path.c_str());
    return 1;
  }
  const auto write_artifact = [&](const std::string& text) {
    std::ofstream out(artifact_path, std::ios::trunc);
    out << text;
  };

  obs::JsonValue doc = obs::JsonValue::Object();
  doc.Set("bench", "serve");
  doc.Set("env", bench::BenchEnvJson());
  const obs::TraceSnapshot trace_before =
      obs::TraceRegistry::Instance().Snapshot();
  const obs::MetricsSnapshot metrics_before =
      obs::MetricsRegistry::Instance().Snapshot();
  bool all_ok = true;

  // Phase 1: client-thread sweep. A fresh registry + server per config so
  // versions start clean; the server histograms are this config's delta.
  const std::vector<int> thread_counts =
      threads_override > 0 ? std::vector<int>{threads_override}
                           : std::vector<int>{1, 8};
  const int requests = requests_override > 0 ? requests_override : 250;
  obs::JsonValue sweep = obs::JsonValue::Array();
  for (const int threads : thread_counts) {
    write_artifact(fixture.artifact_a);
    serve::ModelRegistry registry;
    std::string error;
    if (registry.Load("bench",
                      serve::ModelSource{artifact_path, train_path,
                                         IpsOptions{}},
                      &error) == 0) {
      std::fprintf(stderr, "load failed: %s\n", error.c_str());
      return 1;
    }
    serve::Server server(&registry, serve::ServerOptions{});
    if (!server.Start(&error)) {
      std::fprintf(stderr, "start failed: %s\n", error.c_str());
      return 1;
    }
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::Instance().Snapshot();
    const DriveResult r = DriveTraffic("127.0.0.1", server.port(), "bench",
                                       fixture, threads, requests);
    server.Stop();
    const obs::MetricsSnapshot delta =
        obs::MetricsRegistry::Instance().DeltaSince(before);
    all_ok = all_ok && r.ok();
    obs::JsonValue e = ResultToJson(r);
    e.Set("threads", threads);
    for (const char* name : {"batch_size", "queue_wait_us",
                             "batch_compute_us", "reply_write_us"}) {
      const auto it = delta.histograms.find(std::string("serve.") + name);
      e.Set(name, obs::HistogramStatsToJson(
                      it == delta.histograms.end() ? obs::HistogramSnapshot{}
                                                   : it->second));
    }
    sweep.Append(std::move(e));
    std::printf("%d thread(s): %6.0f qps  p50 %7.1f us  p99 %7.1f us  %s\n",
                threads,
                r.seconds > 0 ? static_cast<double>(r.requests) / r.seconds
                              : 0.0,
                r.p50_us, r.p99_us, r.ok() ? "ok" : "CHECKSUM MISMATCH");
  }
  doc.Set("thread_sweep", std::move(sweep));

  // Phase 2: hot-swap soak -- traffic while the artifact file flips
  // between A and B with a reload per flip.
  {
    write_artifact(fixture.artifact_a);
    serve::ModelRegistry registry;
    std::string error;
    if (registry.Load("bench",
                      serve::ModelSource{artifact_path, train_path,
                                         IpsOptions{}},
                      &error) == 0) {
      std::fprintf(stderr, "load failed: %s\n", error.c_str());
      return 1;
    }
    serve::Server server(&registry, serve::ServerOptions{});
    if (!server.Start(&error)) {
      std::fprintf(stderr, "start failed: %s\n", error.c_str());
      return 1;
    }

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> reloads{0};
    std::thread swapper([&] {
      int s = 0;
      while (!stop.load(std::memory_order_acquire)) {
        write_artifact(s++ % 2 == 0 ? fixture.artifact_b
                                    : fixture.artifact_a);
        std::string reload_error;
        serve::Client control;
        if (control.Connect("127.0.0.1", server.port(), &reload_error) &&
            control.Reload("bench", &reload_error)) {
          reloads.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    const DriveResult r = DriveTraffic("127.0.0.1", server.port(), "bench",
                                       fixture, 8, requests);
    stop.store(true, std::memory_order_release);
    swapper.join();
    server.Stop();
    all_ok = all_ok && r.ok() && reloads.load() > 0;
    obs::JsonValue e = ResultToJson(r);
    e.Set("reloads", reloads.load());
    doc.Set("hot_swap_soak", std::move(e));
    std::printf("hot-swap soak: %llu requests across %llu reloads: %s\n",
                static_cast<unsigned long long>(r.requests),
                static_cast<unsigned long long>(reloads.load()),
                r.ok() ? "ok" : "CHECKSUM MISMATCH");
  }

  doc.Set("served_vs_offline", all_ok ? "ok" : "CHECKSUM MISMATCH");
  doc.Set("report",
          obs::ReportToJson(
              obs::TraceRegistry::Instance().DeltaSince(trace_before),
              obs::MetricsRegistry::Instance().DeltaSince(metrics_before)));
  fs::remove_all(dir);
  if (!obs::WriteJsonFile(doc, json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return all_ok ? 0 : 1;
}

// --------------------------------------------------------- connect mode

int RunConnect(const std::string& host, int port, const std::string& fixture_dir,
               const std::string& model, const std::string& json_path,
               int threads, int requests) {
  // The daemon serves model.ipsrun as v1; each soak round flips the file
  // between the fixture's two artifacts and reloads, so odd versions must
  // answer like model.ipsrun and even like model_alt.ipsrun.
  Fixture fixture;
  const auto train = LoadUcrFile(fixture_dir + "/train.tsv");
  const auto test = LoadUcrFile(fixture_dir + "/test.tsv");
  std::string error;
  const auto artifact_a =
      LoadRunResult(fixture_dir + "/model.ipsrun", &error);
  const auto artifact_b =
      LoadRunResult(fixture_dir + "/model_alt.ipsrun", &error);
  if (!train || !test || !artifact_a || !artifact_b) {
    std::fprintf(stderr, "cannot load fixture from %s: %s\n",
                 fixture_dir.c_str(), error.c_str());
    return 1;
  }
  fixture.data.train = *train;
  fixture.data.test = *test;
  fixture.artifact_a = SerializeRunResult(*artifact_a);
  fixture.artifact_b = SerializeRunResult(*artifact_b);
  fixture.expected_a = OfflineLabels(*train, *test, *artifact_a);
  fixture.expected_b = OfflineLabels(*train, *test, *artifact_b);

  serve::Client control;
  if (!control.Connect(host, port, &error)) {
    std::fprintf(stderr, "cannot connect to %s:%d: %s\n", host.c_str(), port,
                 error.c_str());
    return 1;
  }
  const auto health = control.Health(&error);
  if (!health) {
    std::fprintf(stderr, "health probe failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("connected to %s:%d (%u model(s))\n", host.c_str(), port,
              *health);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reloads{0};
  std::atomic<uint64_t> reload_failures{0};
  std::thread swapper([&] {
    const std::string live = fixture_dir + "/model.ipsrun";
    int s = 0;
    while (!stop.load(std::memory_order_acquire)) {
      {
        std::ofstream out(live, std::ios::trunc);
        out << (s++ % 2 == 0 ? fixture.artifact_b : fixture.artifact_a);
      }
      std::string reload_error;
      if (control.Reload(model, &reload_error)) {
        reloads.fetch_add(1);
      } else {
        reload_failures.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  const DriveResult r = DriveTraffic(host, port, model, fixture,
                                     threads > 0 ? threads : 4,
                                     requests > 0 ? requests : 200);
  stop.store(true, std::memory_order_release);
  swapper.join();
  // Leave the fixture as the daemon found it.
  {
    std::ofstream out(fixture_dir + "/model.ipsrun", std::ios::trunc);
    out << fixture.artifact_a;
  }

  const bool ok = r.ok() && reloads.load() > 0 && reload_failures.load() == 0;
  obs::JsonValue doc = obs::JsonValue::Object();
  doc.Set("bench", "serve_soak");
  doc.Set("env", bench::BenchEnvJson());
  obs::JsonValue e = ResultToJson(r);
  e.Set("reloads", reloads.load());
  e.Set("reload_failures", reload_failures.load());
  doc.Set("soak", std::move(e));
  doc.Set("served_vs_offline", ok ? "ok" : "CHECKSUM MISMATCH");
  if (!obs::WriteJsonFile(doc, json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("soak: %llu requests, %llu reloads (%llu failed): %s\n",
              static_cast<unsigned long long>(r.requests),
              static_cast<unsigned long long>(reloads.load()),
              static_cast<unsigned long long>(reload_failures.load()),
              ok ? "ok" : "CHECKSUM MISMATCH");
  std::printf("wrote %s\n", json_path.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace ips

int main(int argc, char** argv) {
  std::string json_path = "BENCH_serve.json";
  std::string connect, fixture_dir;
  std::string model = "demo";
  int threads = 0, requests = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--connect=", 0) == 0) {
      connect = arg.substr(10);
    } else if (arg.rfind("--fixture=", 0) == 0) {
      fixture_dir = arg.substr(10);
    } else if (arg.rfind("--model=", 0) == 0) {
      model = arg.substr(8);
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--requests=", 0) == 0) {
      requests = std::atoi(arg.c_str() + 11);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (!connect.empty()) {
    const size_t colon = connect.rfind(':');
    if (colon == std::string::npos || fixture_dir.empty()) {
      std::fprintf(stderr,
                   "--connect=HOST:PORT requires --fixture=DIR\n");
      return 2;
    }
    return ips::RunConnect(connect.substr(0, colon),
                           std::atoi(connect.c_str() + colon + 1),
                           fixture_dir, model, json_path, threads, requests);
  }
  return ips::RunInProcess(json_path, threads, requests);
}
