// The AVX-512 backend of the SIMD kernel layer (8 lanes): the shared kernel
// templates instantiated with AVX-512F intrinsics, exported as one table.
//
// This is the only unit built with -mavx512f (src/core/CMakeLists.txt;
// never -mfma or -march=native). -mavx512f lets GCC emit FMA instructions,
// so -ffp-contract=off is what keeps the adds and multiplies below
// separately rounded. simd.cc hands out this table only when the CPU
// reports both AVX2 and AVX-512F, so nothing here may be reachable any
// other way: every function is internal to this unit (see
// core/simd_kernels.h), and the simd_avx512_symbols test fails if the
// object defines a weak symbol the linker could pick over a baseline copy.
// Empty off x86-64.

#if defined(__x86_64__) || defined(_M_X64)

#if !defined(__AVX512F__)
#error "simd_avx512.cc must be compiled with -mavx512f"
#endif

#include <immintrin.h>

#include "core/simd_kernels.h"

namespace ips {
namespace simd {
namespace {

struct Avx512Ops {
  static constexpr size_t kWidth = 8;
  using Vec = __m512d;
  using Mask = __mmask8;
  static constexpr Mask kAll = 0xFF;
  static Vec Load(const double* p) { return _mm512_loadu_pd(p); }
  static void Store(double* p, Vec v) { _mm512_storeu_pd(p, v); }
  static Vec Set(double x) { return _mm512_set1_pd(x); }
  static Vec Add(Vec a, Vec b) { return _mm512_add_pd(a, b); }
  static Vec Sub(Vec a, Vec b) { return _mm512_sub_pd(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm512_mul_pd(a, b); }
  static Vec Div(Vec a, Vec b) { return _mm512_div_pd(a, b); }
  // Sqrt, Min, Max and the extracts in ReduceMin use the zero-masked
  // intrinsic with a full mask, which is the plain operation: GCC 12's
  // unmasked forms pass an uninitialised vector through and warn about it.
  static Vec Sqrt(Vec a) { return _mm512_maskz_sqrt_pd(kAll, a); }
  // Min and Max swap their operands: the scalar Min/Max on NaN and signed
  // zeros too (see Sse2Ops).
  static Vec Min(Vec a, Vec b) { return _mm512_maskz_min_pd(kAll, b, a); }
  static Vec Max(Vec a, Vec b) { return _mm512_maskz_max_pd(kAll, b, a); }
  static Mask CmpLt(Vec a, Vec b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
  }
  static Vec Select(Mask m, Vec a, Vec b) {
    return _mm512_mask_blend_pd(m, b, a);
  }
  static double ReduceMin(Vec a) {
    const __m256d lo = _mm512_maskz_extractf64x4_pd(kAll, a, 0);
    const __m256d hi = _mm512_maskz_extractf64x4_pd(kAll, a, 1);
    const __m256d m4 = _mm256_min_pd(lo, hi);
    const __m128d m2 = _mm_min_pd(_mm256_castpd256_pd128(m4),
                                  _mm256_extractf128_pd(m4, 1));
    const __m128d m1 = _mm_min_sd(m2, _mm_unpackhi_pd(m2, m2));
    return _mm_cvtsd_f64(m1);
  }
};

}  // namespace

constinit const KernelTable kAvx512Kernels =
    MakeKernelTable<Avx512Ops>(Backend::kAvx512, "avx512");

}  // namespace simd
}  // namespace ips

#endif
