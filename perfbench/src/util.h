// Small helpers shared by the benchmark program: order statistics, FNV-1a
// fingerprints, /proc memory readings and file writes.

#ifndef IPS_PERFBENCH_UTIL_H_
#define IPS_PERFBENCH_UTIL_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/time_series.h"

namespace perfbench {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;

/// Folds the eight bytes of `v` into the FNV-1a hash `h`.
void FnvMix(uint64_t& h, uint64_t v);

/// FNV-1a over the serialized shapelet block (provenance + every value at
/// max_digits10), so any bitwise difference in discovery shows.
uint64_t ShapeletFingerprint(const std::vector<ips::Subsequence>& shapelets);

/// Linear-interpolated quantile `q` in [0, 1] of `values` (copied and
/// sorted). 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// VmHWM of process `pid` (0 = this process), in MiB; 0 when unreadable.
double VmHwmMiB(pid_t pid = 0);

/// Resets this process's VmHWM to its current RSS (writes "5" to
/// /proc/self/clear_refs). False when the kernel refuses.
bool ResetVmHwm();

/// Wall time of one fixed scalar sliding-distance kernel that uses no
/// library code. The host's speed drifts by up to 1.6x for tens of seconds
/// at a time, on every vCPU at once, and this kernel slows with it; see
/// README.md, Steadiness.
double HostProbeSeconds();

/// HostProbeSeconds() on a quiet host: the fastest state of the 4-vCPU
/// machine the benchmark was defined on. Host-normalized times are
/// `measured * kProbeQuietSeconds / probe`.
inline constexpr double kProbeQuietSeconds = 2.0e-3;

/// Writes `bytes` to `path` through a temporary file and rename(), so a
/// concurrent reader sees either the old or the new content.
bool WriteFileAtomic(const std::string& path, const std::string& bytes);

}  // namespace perfbench

#endif  // IPS_PERFBENCH_UTIL_H_
