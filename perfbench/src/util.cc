#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "ips/serialization.h"
#include "util/timer.h"

namespace perfbench {

void FnvMix(uint64_t& h, uint64_t v) {
  constexpr uint64_t kFnvPrime = 1099511628211ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

uint64_t ShapeletFingerprint(const std::vector<ips::Subsequence>& shapelets) {
  uint64_t h = kFnvOffset;
  for (const unsigned char c : ips::SerializeShapelets(shapelets)) {
    FnvMix(h, c);
  }
  return h;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (std::isinf(values[hi]) || frac == 0.0) {
    return frac == 0.0 ? values[lo] : values[hi];
  }
  return values[lo] + frac * (values[hi] - values[lo]);
}

double VmHwmMiB(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

bool ResetVmHwm() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

namespace {
volatile double probe_sink = 0.0;  // keeps the probe's result alive
}  // namespace

double HostProbeSeconds() {
  static const std::vector<double> series = [] {
    std::vector<double> v(4096);
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = std::sin(0.01 * static_cast<double>(i)) + 0.001 * (i % 7);
    }
    return v;
  }();
  static const std::vector<double> query = [] {
    std::vector<double> v(64);
    for (size_t j = 0; j < v.size(); ++j) v[j] = std::cos(0.1 * j);
    return v;
  }();
  ips::Timer timer;
  double best = HUGE_VAL;
  for (int rep = 0; rep < 16; ++rep) {
    for (size_t i = 0; i + query.size() <= series.size(); ++i) {
      double d = rep;
      for (size_t j = 0; j < query.size(); ++j) {
        const double t = series[i + j] - query[j];
        d += t * t;
      }
      best = std::min(best, d);
    }
  }
  probe_sink = best;
  return timer.ElapsedSeconds();
}

bool WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << bytes;
    if (!out.flush()) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace perfbench
