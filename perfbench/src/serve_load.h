// Load against the real ips_serve daemon: process control, the open-loop
// Poisson generator, the closed-loop bulk client and timed reloads. Every
// reply is checked against the offline PredictBatch labels of the model
// version it reports.

#ifndef IPS_PERFBENCH_SERVE_LOAD_H_
#define IPS_PERFBENCH_SERVE_LOAD_H_

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/time_series.h"
#include "serve/client.h"
#include "util.h"

namespace perfbench {

inline constexpr char kModelName[] = "bench";

/// One `ips_serve` child process serving `kModelName`. Stopped (SIGTERM,
/// then SIGKILL after a grace period) and reaped by Stop() or the
/// destructor; the child also dies with this process (PR_SET_PDEATHSIG).
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns `binary --model=bench,<artifact>,<train> --port=0` and waits
  /// for its "listening on" line. False with `*error` set on failure.
  bool Start(const std::string& binary, const std::string& artifact_path,
             const std::string& train_path, std::string* error);
  void Stop();
  int port() const { return port_; }
  /// The daemon's high-water RSS in MiB (0 when not running).
  double VmHwmMiB() const;

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

/// Offline ground truth over the served series pool: labels of artifact A
/// (served at odd versions) and of artifact B (even versions). Each reload
/// swaps the artifact file, so versions alternate A, B, A, ...
struct Expected {
  std::vector<int> a;
  std::vector<int> b;
  const std::vector<int>& ForVersion(uint32_t version) const {
    return version % 2 == 1 ? a : b;
  }
};

/// The two artifacts a reload alternates between, and where the daemon
/// reads them from.
struct ArtifactSwap {
  std::string path;
  std::string a_bytes;
  std::string b_bytes;
};

struct Counts {
  uint64_t sent = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;  ///< transport/error-frame failures and wrong labels
};

/// Times reload round trips on one control connection, tracking the
/// version the daemon reports.
class Reloader {
 public:
  Reloader(const ArtifactSwap& swap, uint32_t current_version)
      : swap_(swap), version_(current_version) {}
  bool Connect(int port, std::string* error);
  /// Writes the artifact the next version must serve, sends Reload and
  /// returns the round trip in seconds. A failed call or an unexpected
  /// version counts as failed and returns nothing.
  std::optional<double> ReloadOnce();
  const Counts& counts() const { return counts_; }

 private:
  const ArtifactSwap& swap_;
  uint32_t version_;
  ips::serve::Client client_;
  Counts counts_;
};

struct OpenLoopOptions {
  double rate_hz = 100.0;
  double seconds = 5.0;
  uint64_t seed = 1;
  /// Sender threads, one connection each.
  int workers = 3;
  /// With a reloader, the calling thread sends one Reload this many
  /// seconds in, while the generator runs (the store_reload workload).
  double reload_at_s = 0.0;
};

struct ServeResult {
  Counts requests;
  /// Per request, from its due time; failed requests are +inf. The open
  /// loop keeps them in due-time order.
  std::vector<double> latency_us;
  /// How late each send started relative to its due time (open loop).
  std::vector<double> late_us;
  /// FNV-1a over (series index, label), served vs offline: equal iff
  /// every served label matched.
  uint64_t served_checksum = kFnvOffset;
  uint64_t offline_checksum = kFnvOffset;
};

/// Pools `from` into `into`: counts, samples and both checksums.
void Append(ServeResult& into, const ServeResult& from);

/// Open-loop single-series classify requests with Poisson arrivals drawn
/// from `options.seed`. `reloader` may be null when no reloads are due.
ServeResult RunOpenLoop(int port, const std::vector<ips::SeriesView>& pool,
                        const Expected& expected,
                        const OpenLoopOptions& options, Reloader* reloader);

/// Closed loop on one connection: each frame carries `batch` consecutive
/// pool series; runs at least `min_frames` frames and until `seconds`
/// elapse. latency_us holds per-frame round trips.
ServeResult RunBulk(int port, const std::vector<ips::SeriesView>& pool,
                    const Expected& expected, size_t batch, double seconds,
                    size_t min_frames, uint64_t seed);

/// Server-side view from the daemon's stats frame.
struct ServerStats {
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double batch_size_mean = 0.0;
  bool ok = false;
};
ServerStats FetchServerStats(int port);

}  // namespace perfbench

#endif  // IPS_PERFBENCH_SERVE_LOAD_H_
