// The shapelet model server: a long-lived daemon core serving classify /
// reload / stats / health over the length-prefixed frame protocol
// (serve/protocol.h) against a hot-swappable ModelRegistry.
//
// Threading: one accept thread plus one thread per live connection, which
// the accept loop joins once closed, and no other: a classify frame goes to
// the AdmissionQueue whole, and its connection's thread runs batches when no
// other one is. Reload also runs on the connection's own thread -- in-flight
// classifies keep the model pointer they were admitted with, so a reload
// never stalls or corrupts them.
//
// Error contract: every decodable-but-unservable request is answered with
// an explicit kError frame on the same connection (unknown op, unknown
// model, empty batch, empty series, a series holding NaN or +-Inf, failed
// reload). Only unrecoverable
// framing (bad magic, unsupported protocol version, oversized declared
// payload) closes the connection, because nothing after a corrupt header
// can be trusted.
//
// Observability: serve.<model>.requests / .latency_us and serve.batch_size
// / .queue_wait_us / .batch_compute_us come from the admission queue; the
// server adds serve.connections / .frames / .errors / .reply_write_us and
// an optional size-rotated access log (serve/log_rotate.h). StatsJson()
// exports the lot in the shared obs JSON schema (docs/serving.md).

#ifndef IPS_SERVE_SERVER_H_
#define IPS_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/admission_queue.h"
#include "serve/log_rotate.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"

namespace ips::serve {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 asks the kernel for an ephemeral port (read
  /// it back with port() -- the tests and bench run this way).
  int port = 0;
  AdmissionQueue::Options queue;
  /// Access-log destination; empty disables logging.
  std::string access_log_path;
  size_t access_log_max_bytes = 1u << 20;
  int access_log_keep = 3;
};

class Server {
 public:
  /// The registry outlives the server; it may be shared (e.g. a control
  /// plane reloading models while the server serves).
  Server(ModelRegistry* registry, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1:<port> and starts the accept loop. False + error on
  /// bind/listen failure.
  bool Start(std::string* error = nullptr);

  /// Stops accepting, unblocks and joins every connection thread. Safe to
  /// call twice; the destructor calls it.
  void Stop();

  /// The bound port (valid after Start()).
  int port() const { return port_; }

  /// The stats document served to kStatsRequest, as a JSON string:
  /// uptime, per-model request/latency/version blocks and the shared
  /// serve.* histograms. Exposed for tests.
  std::string StatsJson() const;

  /// Connection-thread handles not yet joined (test visibility).
  size_t retained_connection_threads() const;

 private:
  void AcceptLoop();
  /// Joins the threads of closed connections.
  void JoinFinishedConnections();
  void HandleConnection(int fd);
  /// Dispatches one request frame to its handler; returns the reply.
  Frame HandleFrame(const Frame& request);

  Frame HandleClassify(const Frame& request);
  Frame HandleReload(const Frame& request);
  Frame HandleStats();
  Frame HandleHealth();

  ModelRegistry* const registry_;
  const ServerOptions options_;

  /// Written by Start()/Stop(), read by the accept thread every wake --
  /// atomic so Stop() can retire the fd while accept() is blocked on it.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  mutable std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;  ///< live connection handlers
  std::vector<std::thread> finished_;      ///< handlers done, to be joined
  std::vector<int> conn_fds_;  ///< open sockets, shutdown() on Stop

  AdmissionQueue queue_;
  RotatingLog access_log_;
  std::chrono::steady_clock::time_point started_;
};

}  // namespace ips::serve

#endif  // IPS_SERVE_SERVER_H_
