#include "serve_load.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <random>
#include <thread>

#include "obs/json.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Folds one (index, label) pair into both checksums.
void Fold(ServeResult& r, size_t index, int served, int offline) {
  FnvMix(r.served_checksum, index);
  FnvMix(r.served_checksum, static_cast<uint64_t>(static_cast<int64_t>(served)));
  FnvMix(r.offline_checksum, index);
  FnvMix(r.offline_checksum,
         static_cast<uint64_t>(static_cast<int64_t>(offline)));
}

}  // namespace

// ----------------------------------------------------------------- Daemon

bool Daemon::Start(const std::string& binary, const std::string& artifact_path,
                   const std::string& train_path, std::string* error) {
  Stop();
  int fds[2];
  if (::pipe(fds) != 0) {
    *error = "pipe failed";
    return false;
  }
  const std::string model_flag = std::string("--model=") + kModelName + "," +
                                 artifact_path + "," + train_path;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    const char* argv[] = {binary.c_str(), model_flag.c_str(), "--port=0",
                          nullptr};
    ::execv(binary.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;
  out_fd_ = fds[0];

  // Read stdout until the "listening on 127.0.0.1:<port>" line.
  const std::string marker = "listening on 127.0.0.1:";
  std::string out;
  const auto deadline = Clock::now() + std::chrono::seconds(120);
  while (Clock::now() < deadline) {
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, 200) <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) break;  // daemon exited before listening
    out.append(buf, static_cast<size_t>(n));
    const size_t at = out.find(marker);
    if (at != std::string::npos && out.find('\n', at) != std::string::npos) {
      port_ = std::atoi(out.c_str() + at + marker.size());
      if (port_ > 0) return true;
    }
  }
  *error = "daemon did not start listening: " + out;
  Stop();
  return false;
}

void Daemon::Stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
  port_ = 0;
}

double Daemon::VmHwmMiB() const {
  return pid_ > 0 ? perfbench::VmHwmMiB(pid_) : 0.0;
}

// --------------------------------------------------------------- Reloader

bool Reloader::Connect(int port, std::string* error) {
  return client_.Connect("127.0.0.1", port, error);
}

std::optional<double> Reloader::ReloadOnce() {
  const uint32_t next = version_ + 1;
  ++counts_.sent;
  if (!WriteFileAtomic(swap_.path, next % 2 == 1 ? swap_.a_bytes
                                                 : swap_.b_bytes)) {
    ++counts_.failed;
    return std::nullopt;
  }
  const auto start = Clock::now();
  const auto version = client_.Reload(kModelName);
  const double seconds = SecondsBetween(start, Clock::now());
  if (!version || *version != next) {
    ++counts_.failed;
    if (version) version_ = *version;
    return std::nullopt;
  }
  version_ = next;
  ++counts_.succeeded;
  return seconds;
}

void Append(ServeResult& into, const ServeResult& from) {
  into.requests.sent += from.requests.sent;
  into.requests.succeeded += from.requests.succeeded;
  into.requests.failed += from.requests.failed;
  into.latency_us.insert(into.latency_us.end(), from.latency_us.begin(),
                         from.latency_us.end());
  into.late_us.insert(into.late_us.end(), from.late_us.begin(),
                      from.late_us.end());
  FnvMix(into.served_checksum, from.served_checksum);
  FnvMix(into.offline_checksum, from.offline_checksum);
}

// -------------------------------------------------------------- open loop

ServeResult RunOpenLoop(int port, const std::vector<ips::SeriesView>& pool,
                        const Expected& expected,
                        const OpenLoopOptions& options, Reloader* reloader) {
  // The whole schedule is drawn up front from the seed, so every run with
  // that seed replays the same due times and series.
  std::mt19937_64 rng(options.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> due_s;
  std::vector<size_t> series;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - unit(rng)) / options.rate_hz;
    if (t >= options.seconds) break;
    due_s.push_back(t);
    series.push_back(static_cast<size_t>(rng() % pool.size()));
  }

  // Each schedule slot is written by the one worker that claimed it, so
  // latency_us and late_us stay in due-time order.
  ServeResult out;
  out.latency_us.assign(due_s.size(), std::numeric_limits<double>::infinity());
  out.late_us.assign(due_s.size(), 0.0);
  std::vector<ServeResult> per(static_cast<size_t>(options.workers));
  std::atomic<size_t> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto due_at = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s[i]));
  };

  std::vector<std::thread> workers;
  for (int w = 0; w < options.workers; ++w) {
    workers.emplace_back([&, w] {
      ServeResult& mine = per[static_cast<size_t>(w)];
      ips::serve::Client client;
      const bool connected = client.Connect("127.0.0.1", port);
      for (size_t i = next.fetch_add(1); i < due_s.size();
           i = next.fetch_add(1)) {
        const auto due = due_at(i);
        std::this_thread::sleep_until(due);
        ++mine.requests.sent;
        out.late_us[i] = SecondsBetween(due, Clock::now()) * 1e6;
        const size_t index = series[i];
        std::optional<ips::serve::ClassifyResponse> response;
        if (connected) {
          const auto v = pool[index].values;
          response = client.Classify(
              kModelName, {std::vector<double>(v.begin(), v.end())});
        }
        const auto done = Clock::now();
        if (!response || response->labels.size() != 1) {
          ++mine.requests.failed;
          continue;
        }
        const int served = response->labels[0];
        const int offline =
            expected.ForVersion(response->model_version)[index];
        Fold(mine, index, served, offline);
        if (served != offline) {
          ++mine.requests.failed;
          continue;
        }
        ++mine.requests.succeeded;
        out.latency_us[i] = SecondsBetween(due, done) * 1e6;
      }
    });
  }

  // The calling thread is the control plane.
  if (reloader != nullptr) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.reload_at_s)));
    reloader->ReloadOnce();
  }
  for (std::thread& w : workers) w.join();

  for (const ServeResult& r : per) {
    out.requests.sent += r.requests.sent;
    out.requests.succeeded += r.requests.succeeded;
    out.requests.failed += r.requests.failed;
    FnvMix(out.served_checksum, r.served_checksum);
    FnvMix(out.offline_checksum, r.offline_checksum);
  }
  return out;
}

// ------------------------------------------------------------------- bulk

ServeResult RunBulk(int port, const std::vector<ips::SeriesView>& pool,
                    const Expected& expected, size_t batch, double seconds,
                    size_t min_frames, uint64_t seed) {
  ServeResult out;
  ips::serve::Client client;
  const bool connected = client.Connect("127.0.0.1", port);
  size_t cursor = static_cast<size_t>(seed % pool.size());
  const auto start = Clock::now();
  for (size_t frame = 0;
       frame < min_frames || SecondsBetween(start, Clock::now()) < seconds;
       ++frame) {
    std::vector<std::vector<double>> payload;
    std::vector<size_t> indices;
    for (size_t k = 0; k < batch; ++k, cursor = (cursor + 1) % pool.size()) {
      const auto v = pool[cursor].values;
      payload.emplace_back(v.begin(), v.end());
      indices.push_back(cursor);
    }
    out.requests.sent += batch;
    const auto sent = Clock::now();
    const auto response =
        connected ? client.Classify(kModelName, payload) : std::nullopt;
    const double frame_us = SecondsBetween(sent, Clock::now()) * 1e6;
    if (!response || response->labels.size() != batch) {
      out.requests.failed += batch;
      out.latency_us.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    const std::vector<int>& truth =
        expected.ForVersion(response->model_version);
    bool frame_ok = true;
    for (size_t k = 0; k < batch; ++k) {
      const int served = response->labels[k];
      Fold(out, indices[k], served, truth[indices[k]]);
      if (served == truth[indices[k]]) {
        ++out.requests.succeeded;
      } else {
        ++out.requests.failed;
        frame_ok = false;
      }
    }
    out.latency_us.push_back(frame_ok
                                 ? frame_us
                                 : std::numeric_limits<double>::infinity());
  }
  return out;
}

// ------------------------------------------------------------------ stats

ServerStats FetchServerStats(int port) {
  ServerStats stats;
  ips::serve::Client client;
  if (!client.Connect("127.0.0.1", port)) return stats;
  const auto text = client.Stats();
  if (!text) return stats;
  const auto doc = ips::obs::JsonValue::Parse(*text);
  if (!doc) return stats;
  const ips::obs::JsonValue& latency =
      doc->Get("models").Get(kModelName).Get("latency_us");
  stats.latency_p50_us = latency.Get("p50").AsDouble();
  stats.latency_p99_us = latency.Get("p99").AsDouble();
  stats.batch_size_mean = doc->Get("batch_size").Get("mean").AsDouble();
  stats.ok = true;
  return stats;
}

}  // namespace perfbench
