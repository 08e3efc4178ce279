// The AVX2 backend of the SIMD kernel layer (4 lanes): the shared kernel
// templates instantiated with AVX2 intrinsics, exported as one table.
//
// This is the only unit built with -mavx2 (src/core/CMakeLists.txt; never
// -mfma, and -ffp-contract=off still applies). simd.cc hands out its table
// only when the CPU reports AVX2, so nothing here may be reachable any
// other way: every function is internal to this unit (see
// core/simd_kernels.h), and the simd_avx2_symbols test fails if the object
// defines a weak symbol the linker could pick over a baseline copy.
// Empty off x86-64.

#if defined(__x86_64__) || defined(_M_X64)

#if !defined(__AVX2__)
#error "simd_avx2.cc must be compiled with -mavx2"
#endif

#include <immintrin.h>

#include "core/simd_kernels.h"

namespace ips {
namespace simd {
namespace {

struct Avx2Ops {
  static constexpr size_t kWidth = 4;
  using Vec = __m256d;
  using Mask = __m256d;
  static Vec Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  static Vec Set(double x) { return _mm256_set1_pd(x); }
  static Vec Add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
  static Vec Sub(Vec a, Vec b) { return _mm256_sub_pd(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
  static Vec Div(Vec a, Vec b) { return _mm256_div_pd(a, b); }
  static Vec Sqrt(Vec a) { return _mm256_sqrt_pd(a); }
  // Operands swapped: the scalar Min/Max on NaN and signed zeros too (see
  // Sse2Ops).
  static Vec Min(Vec a, Vec b) { return _mm256_min_pd(b, a); }
  static Vec Max(Vec a, Vec b) { return _mm256_max_pd(b, a); }
  static Mask CmpLt(Vec a, Vec b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static Vec Select(Mask m, Vec a, Vec b) {
    return _mm256_blendv_pd(b, a, m);
  }
  static double ReduceMin(Vec a) {
    const __m128d lo = _mm256_castpd256_pd128(a);
    const __m128d hi = _mm256_extractf128_pd(a, 1);
    const __m128d m2 = _mm_min_pd(lo, hi);
    const __m128d m1 = _mm_min_sd(m2, _mm_unpackhi_pd(m2, m2));
    return _mm_cvtsd_f64(m1);
  }
};

}  // namespace

constinit const KernelTable kAvx2Kernels =
    MakeKernelTable<Avx2Ops>(Backend::kAvx2, "avx2");

}  // namespace simd
}  // namespace ips

#endif
