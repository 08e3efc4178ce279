// The NEON backend of the SIMD kernel layer (2 lanes, AArch64): the shared
// kernel templates instantiated with NEON intrinsics, exported as one
// table. NEON is the AArch64 baseline, so no extra target flag; empty on
// other architectures.

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include "core/simd_kernels.h"

namespace ips {
namespace simd {
namespace {

struct NeonOps {
  static constexpr size_t kWidth = 2;
  using Vec = float64x2_t;
  using Mask = uint64x2_t;
  static Vec Load(const double* p) { return vld1q_f64(p); }
  static void Store(double* p, Vec v) { vst1q_f64(p, v); }
  static Vec Set(double x) { return vdupq_n_f64(x); }
  static Vec Add(Vec a, Vec b) { return vaddq_f64(a, b); }
  static Vec Sub(Vec a, Vec b) { return vsubq_f64(a, b); }
  static Vec Mul(Vec a, Vec b) { return vmulq_f64(a, b); }
  static Vec Div(Vec a, Vec b) { return vdivq_f64(a, b); }
  static Vec Sqrt(Vec a) { return vsqrtq_f64(a); }
  // vminq/vmaxq propagate NaN, so Min and Max select instead: b < a ? b : a
  // and a < b ? b : a, the scalar Min/Max on every input.
  static Vec Min(Vec a, Vec b) { return vbslq_f64(vcltq_f64(b, a), b, a); }
  static Vec Max(Vec a, Vec b) { return vbslq_f64(vcltq_f64(a, b), b, a); }
  static Mask CmpLt(Vec a, Vec b) { return vcltq_f64(a, b); }
  static Vec Select(Mask m, Vec a, Vec b) { return vbslq_f64(m, a, b); }
  static double ReduceMin(Vec a) {
    const double lo = vgetq_lane_f64(a, 0);
    const double hi = vgetq_lane_f64(a, 1);
    return hi < lo ? hi : lo;
  }
};

}  // namespace

constinit const KernelTable kNeonKernels =
    MakeKernelTable<NeonOps>(Backend::kNeon, "neon");

}  // namespace simd
}  // namespace ips

#endif
