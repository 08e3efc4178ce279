// The SSE2 backend of the SIMD kernel layer (2 lanes, the x86-64 baseline):
// the shared kernel templates instantiated with SSE2 intrinsics, exported
// as one table. Compiled at the baseline target on x86-64; empty elsewhere.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include "core/simd_kernels.h"

namespace ips {
namespace simd {
namespace {

struct Sse2Ops {
  static constexpr size_t kWidth = 2;
  using Vec = __m128d;
  using Mask = __m128d;
  static Vec Load(const double* p) { return _mm_loadu_pd(p); }
  static void Store(double* p, Vec v) { _mm_storeu_pd(p, v); }
  static Vec Set(double x) { return _mm_set1_pd(x); }
  static Vec Add(Vec a, Vec b) { return _mm_add_pd(a, b); }
  static Vec Sub(Vec a, Vec b) { return _mm_sub_pd(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm_mul_pd(a, b); }
  static Vec Div(Vec a, Vec b) { return _mm_div_pd(a, b); }
  static Vec Sqrt(Vec a) { return _mm_sqrt_pd(a); }
  // minpd/maxpd return their second operand on a NaN or a signed-zero
  // tie, so the operands go in swapped: b < a ? b : a and a < b ? b : a,
  // the scalar Min/Max on every input.
  static Vec Min(Vec a, Vec b) { return _mm_min_pd(b, a); }
  static Vec Max(Vec a, Vec b) { return _mm_max_pd(b, a); }
  static Mask CmpLt(Vec a, Vec b) { return _mm_cmplt_pd(a, b); }
  static Vec Select(Mask m, Vec a, Vec b) {
    // SSE2 has no blendv; the mask lanes are all-ones/all-zeros, so a bit
    // select is exact.
    return _mm_or_pd(_mm_and_pd(m, a), _mm_andnot_pd(m, b));
  }
  static double ReduceMin(Vec a) {
    const __m128d m1 = _mm_min_sd(a, _mm_unpackhi_pd(a, a));
    return _mm_cvtsd_f64(m1);
  }
};

}  // namespace

constinit const KernelTable kSse2Kernels =
    MakeKernelTable<Sse2Ops>(Backend::kSse2, "sse2");

}  // namespace simd
}  // namespace ips

#endif
