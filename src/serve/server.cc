#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

#include <algorithm>
#include <string_view>
#include <utility>

#include "core/metric.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace ips::serve {

namespace {

struct ServerMetrics {
  obs::Counter& connections;
  obs::Counter& frames;
  obs::Counter& errors;
  obs::Histogram& reply_write_us;
};

ServerMetrics& Metrics() {
  static ServerMetrics* metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
    return new ServerMetrics{registry.GetCounter("serve.connections"),
                             registry.GetCounter("serve.frames"),
                             registry.GetCounter("serve.errors"),
                             registry.GetHistogram("serve.reply_write_us")};
  }();
  return *metrics;
}

uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// Appends an access-log line of `parts`, built only when the log is on.
std::string LogPart(std::string_view part) { return std::string(part); }
std::string LogPart(uint64_t number) { return std::to_string(number); }

template <typename... Parts>
void Log(RotatingLog& log, const Parts&... parts) {
  if (log.enabled()) log.Append((LogPart(parts) + ...));
}

Frame MakeError(ErrorCode code, std::string message) {
  Metrics().errors.Add();
  Frame frame;
  frame.op = FrameOp::kError;
  frame.payload = EncodeErrorFrame(ErrorFrame{code, std::move(message)});
  return frame;
}

}  // namespace

Server::Server(ModelRegistry* registry, ServerOptions options)
    : registry_(registry),
      options_(std::move(options)),
      queue_(options_.queue),
      access_log_(options_.access_log_path.empty()
                      ? RotatingLog()
                      : RotatingLog(options_.access_log_path,
                                    options_.access_log_max_bytes,
                                    options_.access_log_keep)) {}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  int fd = -1;
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = what + ": " + std::strerror(errno);
    }
    if (fd >= 0) ::close(fd);
    return false;
  };

  fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return fail("bind");
  }
  if (::listen(fd, SOMAXCONN) < 0) return fail("listen");

  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return fail("getsockname");
  }
  listen_fd_.store(fd, std::memory_order_release);
  port_ = ntohs(addr.sin_port);

  started_ = std::chrono::steady_clock::now();
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void Server::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // shutdown() alone does not unblock accept() on all kernels; closing
    // the fd does. The accept loop re-checks stopping_ on every wake.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) t.join();
  JoinFinishedConnections();
}

size_t Server::retained_connection_threads() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return conn_threads_.size() + finished_.size();
}

void Server::JoinFinishedConnections() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    finished.swap(finished_);
  }
  for (std::thread& t : finished) t.join();
}

void Server::AcceptLoop() {
  for (;;) {
    const int lfd = listen_fd_.load(std::memory_order_acquire);
    if (lfd < 0) return;  // Stop() retired the socket
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (stopping_.load(std::memory_order_acquire)) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listening socket gone
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Metrics().connections.Add();
    JoinFinishedConnections();
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { HandleConnection(fd); });
  }
}

void Server::HandleConnection(int fd) {
  for (;;) {
    std::string read_error;
    std::optional<Frame> request = ReadFrame(fd, &read_error);
    if (!request) {
      // Unrecoverable framing gets a parting error frame when the header
      // itself was corrupt (best effort -- the peer may be gone).
      if (!read_error.empty() && read_error != "connection closed mid-frame") {
        WriteFrame(fd, MakeError(read_error == "unsupported protocol version"
                                     ? ErrorCode::kUnsupportedVersion
                                     : ErrorCode::kBadFrame,
                                 read_error));
      }
      break;
    }
    Metrics().frames.Add();
    const Frame reply = HandleFrame(*request);
    const auto write_start = std::chrono::steady_clock::now();
    const bool written = WriteFrame(fd, reply);
    if (reply.op == FrameOp::kClassifyResponse) {
      Metrics().reply_write_us.Observe(MicrosSince(write_start));
    }
    if (!written) break;
  }
  // Unregister before closing: once closed, the descriptor number may be
  // reused by another open, and Stop() must never shutdown() that one.
  // Then hand this thread's handle to the accept loop to join (unless
  // Stop() has already taken it).
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.erase(std::find(conn_fds_.begin(), conn_fds_.end(), fd));
    const auto self = std::find_if(
        conn_threads_.begin(), conn_threads_.end(), [](const std::thread& t) {
          return t.get_id() == std::this_thread::get_id();
        });
    if (self != conn_threads_.end()) {
      finished_.push_back(std::move(*self));
      conn_threads_.erase(self);
    }
  }
  ::close(fd);
}

Frame Server::HandleFrame(const Frame& request) {
  switch (request.op) {
    case FrameOp::kClassifyRequest:
      return HandleClassify(request);
    case FrameOp::kReloadRequest:
      return HandleReload(request);
    case FrameOp::kStatsRequest:
      return HandleStats();
    case FrameOp::kHealthRequest:
      return HandleHealth();
    default:
      // Unknown or response-typed op: answer, keep the connection -- the
      // framing is sound, only the op is not ours to serve.
      Log(access_log_, "op=", uint16_t(request.op), " status=unknown_op");
      return MakeError(ErrorCode::kUnknownOp,
                       "unknown op " + std::to_string(uint16_t(request.op)));
  }
}

Frame Server::HandleClassify(const Frame& request) {
  ClassifyRequest req;
  if (!DecodeClassifyRequest(request.payload, &req)) {
    return MakeError(ErrorCode::kBadFrame, "malformed classify payload");
  }
  const auto logged_error = [&](ErrorCode code, const std::string& message) {
    Log(access_log_, "op=classify model=", req.model, " n=",
        req.series.size(), " status=error msg=", message);
    return MakeError(code, message);
  };
  if (req.series.empty()) {
    return logged_error(ErrorCode::kBadRequest, "empty classify batch");
  }
  for (const std::vector<double>& s : req.series) {
    if (s.empty()) {
      return logged_error(ErrorCode::kBadRequest, "empty series in batch");
    }
    if (!std::all_of(s.begin(), s.end(),
                     [](double v) { return std::isfinite(v); })) {
      return logged_error(ErrorCode::kBadRequest,
                          "non-finite value in series");
    }
  }
  const std::shared_ptr<const ServedModel> model = registry_->Get(req.model);
  if (model == nullptr) {
    return logged_error(ErrorCode::kUnknownModel,
                        "unknown model \"" + req.model + "\"");
  }

  // Submit the frame whole; its results come back in order, all from the
  // SAME model instance (captured above), so a concurrent hot-swap cannot
  // split this response across versions.
  const auto start = std::chrono::steady_clock::now();
  ClassifyResponse resp;
  resp.model_version = model->version();
  for (const auto& r : queue_.Submit(model, std::move(req.series))) {
    resp.labels.push_back(r.label);
  }
  Log(access_log_, "op=classify model=", req.model, " n=", resp.labels.size(),
      " version=", resp.model_version,
      " status=ok latency_us=", MicrosSince(start));

  Frame reply;
  reply.op = FrameOp::kClassifyResponse;
  reply.payload = EncodeClassifyResponse(resp);
  return reply;
}

Frame Server::HandleReload(const Frame& request) {
  ReloadRequest req;
  if (!DecodeReloadRequest(request.payload, &req)) {
    return MakeError(ErrorCode::kBadFrame, "malformed reload payload");
  }
  std::string error;
  const uint32_t version = registry_->Reload(req.model, &error);
  if (version == 0) {
    Log(access_log_, "op=reload model=", req.model, " status=error msg=",
        error);
    const bool unknown = error.rfind("unknown model", 0) == 0;
    return MakeError(unknown ? ErrorCode::kUnknownModel
                             : ErrorCode::kReloadFailed,
                     error);
  }
  Log(access_log_, "op=reload model=", req.model, " version=", version,
      " status=ok");
  Frame reply;
  reply.op = FrameOp::kReloadResponse;
  reply.payload = EncodeReloadResponse(ReloadResponse{version});
  return reply;
}

std::string Server::StatsJson() const {
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Instance().Snapshot();
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();

  const auto histogram = [&](const std::string& name) {
    const auto it = snapshot.histograms.find(name);
    return obs::HistogramStatsToJson(
        it == snapshot.histograms.end() ? obs::HistogramSnapshot{}
                                        : it->second);
  };

  obs::JsonValue models = obs::JsonValue::Object();
  for (const std::string& name : registry_->Names()) {
    const std::shared_ptr<const ServedModel> model = registry_->Get(name);
    if (model == nullptr) continue;
    obs::JsonValue entry = obs::JsonValue::Object();
    entry.Set("version", model->version());
    entry.Set("metric", MetricName(model->metric()));
    entry.Set("shapelets", model->shapelet_count());
    entry.Set("train_size", model->train_size());
    const uint64_t requests =
        snapshot.CounterValue("serve." + name + ".requests");
    entry.Set("requests", requests);
    entry.Set("qps", uptime > 0.0 ? static_cast<double>(requests) / uptime
                                  : 0.0);
    entry.Set("latency_us", histogram("serve." + name + ".latency_us"));
    models.Set(name, std::move(entry));
  }

  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("uptime_seconds", uptime);
  out.Set("connections", snapshot.CounterValue("serve.connections"));
  out.Set("frames", snapshot.CounterValue("serve.frames"));
  out.Set("errors", snapshot.CounterValue("serve.errors"));
  for (const char* name : {"batch_size", "queue_wait_us", "batch_compute_us",
                           "reply_write_us"}) {
    out.Set(name, histogram(std::string("serve.") + name));
  }
  out.Set("models", std::move(models));
  return out.Dump();
}

Frame Server::HandleStats() {
  Frame reply;
  reply.op = FrameOp::kStatsResponse;
  reply.payload = EncodeStatsResponse(StatsResponse{StatsJson()});
  Log(access_log_, "op=stats status=ok");
  return reply;
}

Frame Server::HandleHealth() {
  Frame reply;
  reply.op = FrameOp::kHealthResponse;
  reply.payload = EncodeHealthResponse(
      HealthResponse{static_cast<uint32_t>(registry_->size())});
  Log(access_log_, "op=health status=ok");
  return reply;
}

}  // namespace ips::serve
