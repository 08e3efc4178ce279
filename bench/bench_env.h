// The `env` block of a BENCH_*.json: what a recorded number was measured
// on. It names the commit, the host's hardware threads, the active SIMD
// backend and whether the tracer is compiled in, so two ledgers can be
// told apart before their numbers are compared.

#ifndef IPS_BENCH_BENCH_ENV_H_
#define IPS_BENCH_BENCH_ENV_H_

#include <cstdio>

#include <string>

#include "core/simd.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace ips::bench {

/// HEAD's commit id of the git checkout the bench runs in ("unknown"
/// outside one), plus "-dirty" when tracked files have local changes.
inline std::string GitRevision() {
  auto first_line = [](const char* cmd) {
    std::string out;
    if (FILE* pipe = ::popen(cmd, "r")) {
      char buf[128];
      if (std::fgets(buf, sizeof(buf), pipe) != nullptr) out = buf;
      ::pclose(pipe);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
      out.pop_back();
    }
    return out;
  };
  std::string sha = first_line("git rev-parse HEAD 2>/dev/null");
  if (sha.empty()) return "unknown";
  if (!first_line("git status --porcelain --untracked-files=no 2>/dev/null")
           .empty()) {
    sha += "-dirty";
  }
  return sha;
}

/// {"git_sha", "hardware_threads", "simd_backend", "tracing_enabled"}.
inline obs::JsonValue BenchEnvJson() {
  obs::JsonValue env = obs::JsonValue::Object();
  env.Set("git_sha", GitRevision());
  env.Set("hardware_threads", HardwareThreads());
  env.Set("simd_backend", simd::BackendName());
  env.Set("tracing_enabled", obs::kTracingEnabled);
  return env;
}

}  // namespace ips::bench

#endif  // IPS_BENCH_BENCH_ENV_H_
