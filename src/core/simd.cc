#include "core/simd.h"

#include <cmath>

#include <algorithm>
#include <limits>

#include "core/znorm.h"

#if !defined(IPS_DISABLE_SIMD) && (defined(__AVX2__) || defined(__SSE2__) || \
                                   defined(_M_X64))
#include <immintrin.h>
#define IPS_SIMD_X86 1
#elif !defined(IPS_DISABLE_SIMD) && defined(__aarch64__) && \
    defined(__ARM_NEON)
#include <arm_neon.h>
#define IPS_SIMD_NEON 1
#endif

namespace ips {
namespace simd {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------- backends
//
// Each backend exposes the same static interface; the kernels below are
// templates over it. Semantics every backend must honour so lanes match the
// scalar code bit-for-bit:
//  * Add/Sub/Mul/Div/Sqrt: one correctly-rounded IEEE-754 operation per
//    lane -- exactly what the scalar expression performs. No FMA.
//  * Min(a, b) / Max(a, b): value-level selection matching std::min(a, b) /
//    std::max(a, b) for the non-NaN, non-(-0.0) inputs these kernels see.
//  * CmpLt + Select(mask, a, b): lane-wise `cmp ? a : b` with a full-width
//    mask, a pure bit-select (no arithmetic).

struct ScalarOps {
  static constexpr size_t kWidth = 1;
  using Vec = double;
  using Mask = bool;
  static Vec Load(const double* p) { return *p; }
  static void Store(double* p, Vec v) { *p = v; }
  static Vec Set(double x) { return x; }
  static Vec Add(Vec a, Vec b) { return a + b; }
  static Vec Sub(Vec a, Vec b) { return a - b; }
  static Vec Mul(Vec a, Vec b) { return a * b; }
  static Vec Div(Vec a, Vec b) { return a / b; }
  static Vec Sqrt(Vec a) { return std::sqrt(a); }
  static Vec Min(Vec a, Vec b) { return b < a ? b : a; }  // == std::min(a, b)
  static Vec Max(Vec a, Vec b) { return a < b ? b : a; }  // == std::max(a, b)
  static Mask CmpLt(Vec a, Vec b) { return a < b; }
  static Vec Select(Mask m, Vec a, Vec b) { return m ? a : b; }
  static double ReduceMin(Vec a) { return a; }
};

#if defined(IPS_SIMD_X86) && defined(__AVX2__)

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
  static Vec Min(Vec a, Vec b) { return _mm256_min_pd(a, b); }
  static Vec Max(Vec a, Vec b) { return _mm256_max_pd(a, b); }
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

#elif defined(IPS_SIMD_X86)

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
  static Vec Min(Vec a, Vec b) { return _mm_min_pd(a, b); }
  static Vec Max(Vec a, Vec b) { return _mm_max_pd(a, b); }
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

#elif defined(IPS_SIMD_NEON)

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
  static Vec Min(Vec a, Vec b) { return vminq_f64(a, b); }
  static Vec Max(Vec a, Vec b) { return vmaxq_f64(a, b); }
  static Mask CmpLt(Vec a, Vec b) { return vcltq_f64(a, b); }
  static Vec Select(Mask m, Vec a, Vec b) { return vbslq_f64(m, a, b); }
  static double ReduceMin(Vec a) {
    const double lo = vgetq_lane_f64(a, 0);
    const double hi = vgetq_lane_f64(a, 1);
    return hi < lo ? hi : lo;
  }
};

#endif

#if defined(IPS_DISABLE_SIMD)
using ActiveOps = ScalarOps;
constexpr const char* kName = "scalar";
#elif defined(IPS_SIMD_X86) && defined(__AVX2__)
using ActiveOps = Avx2Ops;
constexpr const char* kName = "avx2";
#elif defined(IPS_SIMD_X86)
using ActiveOps = Sse2Ops;
constexpr const char* kName = "sse2";
#elif defined(IPS_SIMD_NEON)
using ActiveOps = NeonOps;
constexpr const char* kName = "neon";
#else
using ActiveOps = ScalarOps;
constexpr const char* kName = "scalar";
#endif

static_assert(ActiveOps::kWidth == kLanes,
              "simd.h width constant out of sync with the active backend");

// ----------------------------------------------------------------- kernels
//
// Every template keeps the remainder loop textually identical to the
// historic scalar code; the vector block performs the same operation
// sequence per lane. With Ops = ScalarOps the vector block compiles away
// (kWidth == 1 never enters it), leaving exactly the pre-SIMD loops.

// The vector path is register-blocked: kSlidingDotsBlock / W independent
// accumulators cover adjacent alignment blocks and share each broadcast
// q[j], so the adds of different blocks overlap instead of waiting on one
// dependent chain. Every output still accumulates its own increasing-j
// chain, so the blocking changes throughput, never a bit of the result.
// Leftovers take the one-vector loop, then the scalar loop.
template <typename Ops>
void SlidingDotsT(const double* q, size_t m, const double* s, size_t n,
                  double* out) {
  const size_t count = n - m + 1;
  constexpr size_t W = Ops::kWidth;
  size_t i = 0;
  if constexpr (W > 1) {
    static_assert(kSlidingDotsBlock == 4 * W,
                  "SlidingDotsT runs four accumulators per block");
    for (; i + kSlidingDotsBlock <= count; i += kSlidingDotsBlock) {
      const double* p = s + i;
      auto a0 = Ops::Set(0.0);
      auto a1 = a0;
      auto a2 = a0;
      auto a3 = a0;
      for (size_t j = 0; j < m; ++j) {
        const auto qj = Ops::Set(q[j]);
        a0 = Ops::Add(a0, Ops::Mul(qj, Ops::Load(p + j)));
        a1 = Ops::Add(a1, Ops::Mul(qj, Ops::Load(p + j + W)));
        a2 = Ops::Add(a2, Ops::Mul(qj, Ops::Load(p + j + 2 * W)));
        a3 = Ops::Add(a3, Ops::Mul(qj, Ops::Load(p + j + 3 * W)));
      }
      Ops::Store(out + i, a0);
      Ops::Store(out + i + W, a1);
      Ops::Store(out + i + 2 * W, a2);
      Ops::Store(out + i + 3 * W, a3);
    }
    for (; i + W <= count; i += W) {
      auto acc = Ops::Set(0.0);
      for (size_t j = 0; j < m; ++j) {
        acc = Ops::Add(acc, Ops::Mul(Ops::Set(q[j]), Ops::Load(s + i + j)));
      }
      Ops::Store(out + i, acc);
    }
  }
  for (; i < count; ++i) {
    double acc = 0.0;
    for (size_t j = 0; j < m; ++j) acc += q[j] * s[i + j];
    out[i] = acc;
  }
}

template <typename Ops>
void RawProfileT(double qq, const double* sqp, size_t window,
                 const double* dots, size_t count, double* out) {
  const double md = static_cast<double>(window);
  constexpr size_t W = Ops::kWidth;
  size_t i = 0;
  if constexpr (W > 1) {
    const auto qqv = Ops::Set(qq);
    const auto two = Ops::Set(2.0);
    const auto mdv = Ops::Set(md);
    const auto zero = Ops::Set(0.0);
    for (; i + W <= count; i += W) {
      const auto wsq = Ops::Sub(Ops::Load(sqp + i + window), Ops::Load(sqp + i));
      const auto num = Ops::Add(Ops::Sub(qqv, Ops::Mul(two, Ops::Load(dots + i))), wsq);
      Ops::Store(out + i, Ops::Max(zero, Ops::Div(num, mdv)));
    }
  }
  for (; i < count; ++i) {
    const double window_sq = sqp[i + window] - sqp[i];
    out[i] = std::max(0.0, (qq - 2.0 * dots[i] + window_sq) / md);
  }
}

template <typename Ops>
double RawMinT(double qq, const double* sqp, size_t window, const double* dots,
               size_t count) {
  const double md = static_cast<double>(window);
  constexpr size_t W = Ops::kWidth;
  double best = kInf;
  size_t i = 0;
  if constexpr (W > 1) {
    const auto qqv = Ops::Set(qq);
    const auto two = Ops::Set(2.0);
    const auto mdv = Ops::Set(md);
    const auto zero = Ops::Set(0.0);
    auto acc = Ops::Set(kInf);
    for (; i + W <= count; i += W) {
      const auto wsq = Ops::Sub(Ops::Load(sqp + i + window), Ops::Load(sqp + i));
      const auto num = Ops::Add(Ops::Sub(qqv, Ops::Mul(two, Ops::Load(dots + i))), wsq);
      acc = Ops::Min(acc, Ops::Max(zero, Ops::Div(num, mdv)));
    }
    best = Ops::ReduceMin(acc);
  }
  for (; i < count; ++i) {
    const double window_sq = sqp[i + window] - sqp[i];
    const double d = std::max(0.0, (qq - 2.0 * dots[i] + window_sq) / md);
    best = std::min(best, d);
  }
  return best;
}

template <typename Ops>
void ZNormProfileT(const double* dots, const double* stds, size_t count,
                   size_t window, bool query_flat, double* out) {
  const double md = static_cast<double>(window);
  const double sqrt_md = std::sqrt(md);
  constexpr size_t W = Ops::kWidth;
  size_t i = 0;
  if (query_flat) {
    if constexpr (W > 1) {
      const auto eps = Ops::Set(kFlatStdEpsilon);
      const auto zero = Ops::Set(0.0);
      const auto smd = Ops::Set(sqrt_md);
      for (; i + W <= count; i += W) {
        const auto flat = Ops::CmpLt(Ops::Load(stds + i), eps);
        Ops::Store(out + i, Ops::Select(flat, zero, smd));
      }
    }
    for (; i < count; ++i) {
      out[i] = stds[i] < kFlatStdEpsilon ? 0.0 : sqrt_md;
    }
    return;
  }
  if constexpr (W > 1) {
    const auto eps = Ops::Set(kFlatStdEpsilon);
    const auto zero = Ops::Set(0.0);
    const auto two = Ops::Set(2.0);
    const auto twomd = Ops::Set(2.0 * md);
    const auto smd = Ops::Set(sqrt_md);
    for (; i + W <= count; i += W) {
      const auto sig = Ops::Load(stds + i);
      const auto flat = Ops::CmpLt(sig, eps);
      const auto d2 = Ops::Max(
          zero, Ops::Sub(twomd, Ops::Div(Ops::Mul(two, Ops::Load(dots + i)), sig)));
      Ops::Store(out + i, Ops::Select(flat, smd, Ops::Sqrt(d2)));
    }
  }
  for (; i < count; ++i) {
    const double sig = stds[i];
    if (sig < kFlatStdEpsilon) {
      out[i] = sqrt_md;
    } else {
      const double d2 = std::max(0.0, 2.0 * md - 2.0 * dots[i] / sig);
      out[i] = std::sqrt(d2);
    }
  }
}

template <typename Ops>
double ZNormMinT(const double* dots, const double* stds, size_t count,
                 size_t window, bool query_flat) {
  const double md = static_cast<double>(window);
  const double sqrt_md = std::sqrt(md);
  constexpr size_t W = Ops::kWidth;
  double best = kInf;
  size_t i = 0;
  if (query_flat) {
    if constexpr (W > 1) {
      const auto eps = Ops::Set(kFlatStdEpsilon);
      const auto zero = Ops::Set(0.0);
      const auto smd = Ops::Set(sqrt_md);
      auto acc = Ops::Set(kInf);
      for (; i + W <= count; i += W) {
        const auto flat = Ops::CmpLt(Ops::Load(stds + i), eps);
        acc = Ops::Min(acc, Ops::Select(flat, zero, smd));
      }
      best = Ops::ReduceMin(acc);
    }
    for (; i < count; ++i) {
      const double d = stds[i] < kFlatStdEpsilon ? 0.0 : sqrt_md;
      best = std::min(best, d);
    }
    return best;
  }
  if constexpr (W > 1) {
    const auto eps = Ops::Set(kFlatStdEpsilon);
    const auto zero = Ops::Set(0.0);
    const auto two = Ops::Set(2.0);
    const auto twomd = Ops::Set(2.0 * md);
    const auto smd = Ops::Set(sqrt_md);
    auto acc = Ops::Set(kInf);
    for (; i + W <= count; i += W) {
      const auto sig = Ops::Load(stds + i);
      const auto flat = Ops::CmpLt(sig, eps);
      const auto d2 = Ops::Max(
          zero, Ops::Sub(twomd, Ops::Div(Ops::Mul(two, Ops::Load(dots + i)), sig)));
      acc = Ops::Min(acc, Ops::Select(flat, smd, Ops::Sqrt(d2)));
    }
    best = Ops::ReduceMin(acc);
  }
  for (; i < count; ++i) {
    const double sig = stds[i];
    double d;
    if (sig < kFlatStdEpsilon) {
      d = sqrt_md;
    } else {
      const double d2 = std::max(0.0, 2.0 * md - 2.0 * dots[i] / sig);
      d = std::sqrt(d2);
    }
    best = std::min(best, d);
  }
  return best;
}

template <typename Ops>
void L2ProfileT(double qq, const double* sqp, size_t window,
                const double* dots, size_t count, double* out) {
  constexpr size_t W = Ops::kWidth;
  size_t i = 0;
  if constexpr (W > 1) {
    const auto qqv = Ops::Set(qq);
    const auto two = Ops::Set(2.0);
    const auto zero = Ops::Set(0.0);
    for (; i + W <= count; i += W) {
      const auto wsq = Ops::Sub(Ops::Load(sqp + i + window), Ops::Load(sqp + i));
      const auto num = Ops::Add(Ops::Sub(qqv, Ops::Mul(two, Ops::Load(dots + i))), wsq);
      Ops::Store(out + i, Ops::Sqrt(Ops::Max(zero, num)));
    }
  }
  for (; i < count; ++i) {
    const double window_sq = sqp[i + window] - sqp[i];
    out[i] = std::sqrt(std::max(0.0, qq - 2.0 * dots[i] + window_sq));
  }
}

template <typename Ops>
double L2MinT(double qq, const double* sqp, size_t window, const double* dots,
              size_t count) {
  constexpr size_t W = Ops::kWidth;
  double best = kInf;
  size_t i = 0;
  if constexpr (W > 1) {
    const auto qqv = Ops::Set(qq);
    const auto two = Ops::Set(2.0);
    const auto zero = Ops::Set(0.0);
    auto acc = Ops::Set(kInf);
    for (; i + W <= count; i += W) {
      const auto wsq = Ops::Sub(Ops::Load(sqp + i + window), Ops::Load(sqp + i));
      const auto num = Ops::Add(Ops::Sub(qqv, Ops::Mul(two, Ops::Load(dots + i))), wsq);
      acc = Ops::Min(acc, Ops::Sqrt(Ops::Max(zero, num)));
    }
    best = Ops::ReduceMin(acc);
  }
  for (; i < count; ++i) {
    const double window_sq = sqp[i + window] - sqp[i];
    const double d = std::sqrt(std::max(0.0, qq - 2.0 * dots[i] + window_sq));
    best = std::min(best, d);
  }
  return best;
}

// NOTE on the cosine kernels: the window energies are prefix differences of
// a non-decreasing prefix (each step adds a non-negative square under
// monotone rounding), so sqp[i+m] - sqp[i] >= 0 exactly and the Sqrt is
// always defined. Flat (near-zero-norm) lanes still evaluate the division
// in the vector block -- the quotient may be inf/nan but Select discards it
// bit-for-bit, the same convention ZNormProfileT uses for flat stds.

template <typename Ops>
void CosineProfileT(double qq, const double* sqp, size_t window,
                    const double* dots, size_t count, double* out) {
  const double qn = std::sqrt(qq);
  constexpr size_t W = Ops::kWidth;
  size_t i = 0;
  if (qn < kFlatStdEpsilon) {
    if constexpr (W > 1) {
      const auto eps = Ops::Set(kFlatStdEpsilon);
      const auto zero = Ops::Set(0.0);
      const auto one = Ops::Set(1.0);
      for (; i + W <= count; i += W) {
        const auto wn = Ops::Sqrt(
            Ops::Sub(Ops::Load(sqp + i + window), Ops::Load(sqp + i)));
        Ops::Store(out + i, Ops::Select(Ops::CmpLt(wn, eps), zero, one));
      }
    }
    for (; i < count; ++i) {
      const double wn = std::sqrt(sqp[i + window] - sqp[i]);
      out[i] = wn < kFlatStdEpsilon ? 0.0 : 1.0;
    }
    return;
  }
  if constexpr (W > 1) {
    const auto eps = Ops::Set(kFlatStdEpsilon);
    const auto zero = Ops::Set(0.0);
    const auto one = Ops::Set(1.0);
    const auto qnv = Ops::Set(qn);
    for (; i + W <= count; i += W) {
      const auto wn = Ops::Sqrt(
          Ops::Sub(Ops::Load(sqp + i + window), Ops::Load(sqp + i)));
      const auto flat = Ops::CmpLt(wn, eps);
      const auto sim = Ops::Div(Ops::Load(dots + i), Ops::Mul(qnv, wn));
      Ops::Store(out + i,
                 Ops::Select(flat, one, Ops::Max(zero, Ops::Sub(one, sim))));
    }
  }
  for (; i < count; ++i) {
    const double wn = std::sqrt(sqp[i + window] - sqp[i]);
    if (wn < kFlatStdEpsilon) {
      out[i] = 1.0;
    } else {
      const double sim = dots[i] / (qn * wn);
      out[i] = std::max(0.0, 1.0 - sim);
    }
  }
}

template <typename Ops>
double CosineMinT(double qq, const double* sqp, size_t window,
                  const double* dots, size_t count) {
  const double qn = std::sqrt(qq);
  constexpr size_t W = Ops::kWidth;
  double best = kInf;
  size_t i = 0;
  if (qn < kFlatStdEpsilon) {
    if constexpr (W > 1) {
      const auto eps = Ops::Set(kFlatStdEpsilon);
      const auto zero = Ops::Set(0.0);
      const auto one = Ops::Set(1.0);
      auto acc = Ops::Set(kInf);
      for (; i + W <= count; i += W) {
        const auto wn = Ops::Sqrt(
            Ops::Sub(Ops::Load(sqp + i + window), Ops::Load(sqp + i)));
        acc = Ops::Min(acc, Ops::Select(Ops::CmpLt(wn, eps), zero, one));
      }
      best = Ops::ReduceMin(acc);
    }
    for (; i < count; ++i) {
      const double wn = std::sqrt(sqp[i + window] - sqp[i]);
      const double d = wn < kFlatStdEpsilon ? 0.0 : 1.0;
      best = std::min(best, d);
    }
    return best;
  }
  if constexpr (W > 1) {
    const auto eps = Ops::Set(kFlatStdEpsilon);
    const auto zero = Ops::Set(0.0);
    const auto one = Ops::Set(1.0);
    const auto qnv = Ops::Set(qn);
    auto acc = Ops::Set(kInf);
    for (; i + W <= count; i += W) {
      const auto wn = Ops::Sqrt(
          Ops::Sub(Ops::Load(sqp + i + window), Ops::Load(sqp + i)));
      const auto flat = Ops::CmpLt(wn, eps);
      const auto sim = Ops::Div(Ops::Load(dots + i), Ops::Mul(qnv, wn));
      acc = Ops::Min(acc,
                     Ops::Select(flat, one, Ops::Max(zero, Ops::Sub(one, sim))));
    }
    best = Ops::ReduceMin(acc);
  }
  for (; i < count; ++i) {
    const double wn = std::sqrt(sqp[i + window] - sqp[i]);
    double d;
    if (wn < kFlatStdEpsilon) {
      d = 1.0;
    } else {
      const double sim = dots[i] / (qn * wn);
      d = std::max(0.0, 1.0 - sim);
    }
    best = std::min(best, d);
  }
  return best;
}

template <typename Ops>
void RollingMomentsT(const double* sum, const double* sq, size_t count,
                     size_t window, double grand_mean, double* means,
                     double* stds) {
  const double wd = static_cast<double>(window);
  constexpr size_t W = Ops::kWidth;
  size_t i = 0;
  if constexpr (W > 1) {
    const auto wdv = Ops::Set(wd);
    const auto gmv = Ops::Set(grand_mean);
    const auto zero = Ops::Set(0.0);
    for (; i + W <= count; i += W) {
      const auto s1 = Ops::Sub(Ops::Load(sum + i + window), Ops::Load(sum + i));
      const auto s2 = Ops::Sub(Ops::Load(sq + i + window), Ops::Load(sq + i));
      const auto mean_c = Ops::Div(s1, wdv);
      const auto var = Ops::Max(
          zero, Ops::Sub(Ops::Div(s2, wdv), Ops::Mul(mean_c, mean_c)));
      Ops::Store(means + i, Ops::Add(gmv, mean_c));
      Ops::Store(stds + i, Ops::Sqrt(var));
    }
  }
  for (; i < count; ++i) {
    const double s1 = sum[i + window] - sum[i];
    const double s2 = sq[i + window] - sq[i];
    const double mean_c = s1 / wd;
    const double var = std::max(0.0, s2 / wd - mean_c * mean_c);
    means[i] = grand_mean + mean_c;
    stds[i] = std::sqrt(var);
  }
}

template <typename Ops>
void QtRowAdvanceT(double* qt, size_t count, const double* b, size_t window,
                   double a_head, double a_tail) {
  // Right-to-left, in place: every new qt[j] reads only pre-update values
  // (qt[j - 1] sits left of the lowest index written so far), so whole
  // blocks are independent outputs as long as each block loads before it
  // stores and blocks are walked right to left.
  constexpr size_t W = Ops::kWidth;
  size_t j = count;  // exclusive upper bound of the un-updated range
  if constexpr (W > 1) {
    const auto ah = Ops::Set(a_head);
    const auto at = Ops::Set(a_tail);
    while (j >= 1 + W) {
      const size_t jb = j - W;  // block [jb, jb + W), jb >= 1
      const auto prev = Ops::Load(qt + jb - 1);
      const auto drop = Ops::Mul(ah, Ops::Load(b + jb - 1));
      const auto add = Ops::Mul(at, Ops::Load(b + jb + window - 1));
      Ops::Store(qt + jb, Ops::Add(Ops::Sub(prev, drop), add));
      j = jb;
    }
  }
  for (size_t k = j; k-- > 1;) {
    qt[k] = qt[k - 1] - a_head * b[k - 1] + a_tail * b[k + window - 1];
  }
}

template <typename Ops>
void StompRowDistancesT(const double* qt, const double* mu_b,
                        const double* sig_b, size_t count, size_t window,
                        double mu_a, double sig_a, double* out) {
  const double m = static_cast<double>(window);
  const double sqrt_m = std::sqrt(m);
  constexpr size_t W = Ops::kWidth;
  size_t j = 0;
  if (sig_a < kFlatStdEpsilon) {
    if constexpr (W > 1) {
      const auto eps = Ops::Set(kFlatStdEpsilon);
      const auto zero = Ops::Set(0.0);
      const auto sm = Ops::Set(sqrt_m);
      for (; j + W <= count; j += W) {
        const auto flat_b = Ops::CmpLt(Ops::Load(sig_b + j), eps);
        Ops::Store(out + j, Ops::Select(flat_b, zero, sm));
      }
    }
    for (; j < count; ++j) {
      out[j] = sig_b[j] < kFlatStdEpsilon ? 0.0 : sqrt_m;
    }
    return;
  }
  if constexpr (W > 1) {
    const auto eps = Ops::Set(kFlatStdEpsilon);
    const auto zero = Ops::Set(0.0);
    const auto one = Ops::Set(1.0);
    const auto mv = Ops::Set(m);
    const auto twom = Ops::Set(2.0 * m);
    const auto sm = Ops::Set(sqrt_m);
    const auto mua = Ops::Set(mu_a);
    const auto siga = Ops::Set(sig_a);
    for (; j + W <= count; j += W) {
      const auto sigb = Ops::Load(sig_b + j);
      const auto flat_b = Ops::CmpLt(sigb, eps);
      const auto num =
          Ops::Sub(Ops::Load(qt + j), Ops::Mul(mv, Ops::Mul(mua, Ops::Load(mu_b + j))));
      const auto den = Ops::Mul(mv, Ops::Mul(siga, sigb));
      const auto corr = Ops::Div(num, den);
      const auto d2 = Ops::Max(zero, Ops::Mul(twom, Ops::Sub(one, corr)));
      Ops::Store(out + j, Ops::Select(flat_b, sm, Ops::Sqrt(d2)));
    }
  }
  for (; j < count; ++j) {
    // The tail mirrors StompZNormDistance (stomp_common.h) with flat_a
    // already known false; tests pin the two to bitwise agreement.
    if (sig_b[j] < kFlatStdEpsilon) {
      out[j] = sqrt_m;
      continue;
    }
    const double corr = (qt[j] - m * (mu_a * mu_b[j])) / (m * (sig_a * sig_b[j]));
    const double d2 = std::max(0.0, 2.0 * m * (1.0 - corr));
    out[j] = std::sqrt(d2);
  }
}

template <typename Ops>
void StompRowRawT(const double* qt, const double* ssq_b, size_t count,
                  size_t window, double ssq_a, double* out) {
  const double m = static_cast<double>(window);
  constexpr size_t W = Ops::kWidth;
  size_t j = 0;
  if constexpr (W > 1) {
    const auto zero = Ops::Set(0.0);
    const auto two = Ops::Set(2.0);
    const auto mv = Ops::Set(m);
    const auto sa = Ops::Set(ssq_a);
    for (; j + W <= count; j += W) {
      const auto num = Ops::Sub(Ops::Add(sa, Ops::Load(ssq_b + j)),
                                Ops::Mul(two, Ops::Load(qt + j)));
      Ops::Store(out + j, Ops::Max(zero, Ops::Div(num, mv)));
    }
  }
  for (; j < count; ++j) {
    // Mirrors StompRawDistance (stomp_common.h); the (ssq_a + ssq_b)
    // grouping makes the value bitwise symmetric under exchanging sides.
    out[j] = std::max(0.0, ((ssq_a + ssq_b[j]) - 2.0 * qt[j]) / m);
  }
}

template <typename Ops>
void StompRowL2T(const double* qt, const double* ssq_b, size_t count,
                 double ssq_a, double* out) {
  constexpr size_t W = Ops::kWidth;
  size_t j = 0;
  if constexpr (W > 1) {
    const auto zero = Ops::Set(0.0);
    const auto two = Ops::Set(2.0);
    const auto sa = Ops::Set(ssq_a);
    for (; j + W <= count; j += W) {
      const auto num = Ops::Sub(Ops::Add(sa, Ops::Load(ssq_b + j)),
                                Ops::Mul(two, Ops::Load(qt + j)));
      Ops::Store(out + j, Ops::Sqrt(Ops::Max(zero, num)));
    }
  }
  for (; j < count; ++j) {
    // Mirrors StompL2Distance (stomp_common.h).
    out[j] = std::sqrt(std::max(0.0, (ssq_a + ssq_b[j]) - 2.0 * qt[j]));
  }
}

template <typename Ops>
void StompRowCosineT(const double* qt, const double* ssq_b, size_t count,
                     double ssq_a, double* out) {
  const double na = std::sqrt(ssq_a);
  constexpr size_t W = Ops::kWidth;
  size_t j = 0;
  if (na < kFlatStdEpsilon) {
    if constexpr (W > 1) {
      const auto eps = Ops::Set(kFlatStdEpsilon);
      const auto zero = Ops::Set(0.0);
      const auto one = Ops::Set(1.0);
      for (; j + W <= count; j += W) {
        const auto nb = Ops::Sqrt(Ops::Load(ssq_b + j));
        Ops::Store(out + j, Ops::Select(Ops::CmpLt(nb, eps), zero, one));
      }
    }
    for (; j < count; ++j) {
      out[j] = std::sqrt(ssq_b[j]) < kFlatStdEpsilon ? 0.0 : 1.0;
    }
    return;
  }
  if constexpr (W > 1) {
    const auto eps = Ops::Set(kFlatStdEpsilon);
    const auto zero = Ops::Set(0.0);
    const auto one = Ops::Set(1.0);
    const auto nav = Ops::Set(na);
    for (; j + W <= count; j += W) {
      const auto nb = Ops::Sqrt(Ops::Load(ssq_b + j));
      const auto flat = Ops::CmpLt(nb, eps);
      const auto sim = Ops::Div(Ops::Load(qt + j), Ops::Mul(nav, nb));
      Ops::Store(out + j,
                 Ops::Select(flat, one, Ops::Max(zero, Ops::Sub(one, sim))));
    }
  }
  for (; j < count; ++j) {
    // Mirrors StompCosineDistance (stomp_common.h) with flat_a known false.
    const double nb = std::sqrt(ssq_b[j]);
    if (nb < kFlatStdEpsilon) {
      out[j] = 1.0;
      continue;
    }
    const double sim = qt[j] / (na * nb);
    out[j] = std::max(0.0, 1.0 - sim);
  }
}

double SquaredEuclideanChainedT(const double* a, const double* b, size_t n) {
  // One dependent accumulation chain -- deliberately scalar on every
  // backend (see the header's identity rule).
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

}  // namespace

// ------------------------------------------------------------- dispatched

const char* BackendName() { return kName; }

void SlidingDots(const double* q, size_t m, const double* s, size_t n,
                 double* out) {
  SlidingDotsT<ActiveOps>(q, m, s, n, out);
}

void RawProfileFromDots(double qq, const double* sqp, size_t window,
                        const double* dots, size_t count, double* out) {
  RawProfileT<ActiveOps>(qq, sqp, window, dots, count, out);
}

double RawMinFromDots(double qq, const double* sqp, size_t window,
                      const double* dots, size_t count) {
  return RawMinT<ActiveOps>(qq, sqp, window, dots, count);
}

void ZNormProfileFromDots(const double* dots, const double* stds, size_t count,
                          size_t window, bool query_flat, double* out) {
  ZNormProfileT<ActiveOps>(dots, stds, count, window, query_flat, out);
}

double ZNormMinFromDots(const double* dots, const double* stds, size_t count,
                        size_t window, bool query_flat) {
  return ZNormMinT<ActiveOps>(dots, stds, count, window, query_flat);
}

void L2ProfileFromDots(double qq, const double* sqp, size_t window,
                       const double* dots, size_t count, double* out) {
  L2ProfileT<ActiveOps>(qq, sqp, window, dots, count, out);
}

double L2MinFromDots(double qq, const double* sqp, size_t window,
                     const double* dots, size_t count) {
  return L2MinT<ActiveOps>(qq, sqp, window, dots, count);
}

void CosineProfileFromDots(double qq, const double* sqp, size_t window,
                           const double* dots, size_t count, double* out) {
  CosineProfileT<ActiveOps>(qq, sqp, window, dots, count, out);
}

double CosineMinFromDots(double qq, const double* sqp, size_t window,
                         const double* dots, size_t count) {
  return CosineMinT<ActiveOps>(qq, sqp, window, dots, count);
}

void RollingMomentsFromPrefix(const double* sum, const double* sq,
                              size_t count, size_t window, double grand_mean,
                              double* means, double* stds) {
  RollingMomentsT<ActiveOps>(sum, sq, count, window, grand_mean, means, stds);
}

void QtRowAdvance(double* qt, size_t count, const double* b, size_t window,
                  double a_head, double a_tail) {
  QtRowAdvanceT<ActiveOps>(qt, count, b, window, a_head, a_tail);
}

void StompRowDistances(const double* qt, const double* mu_b,
                       const double* sig_b, size_t count, size_t window,
                       double mu_a, double sig_a, double* out) {
  StompRowDistancesT<ActiveOps>(qt, mu_b, sig_b, count, window, mu_a, sig_a,
                                out);
}

void StompRowDistancesRaw(const double* qt, const double* ssq_b, size_t count,
                          size_t window, double ssq_a, double* out) {
  StompRowRawT<ActiveOps>(qt, ssq_b, count, window, ssq_a, out);
}

void StompRowDistancesL2(const double* qt, const double* ssq_b, size_t count,
                         size_t /*window*/, double ssq_a, double* out) {
  StompRowL2T<ActiveOps>(qt, ssq_b, count, ssq_a, out);
}

void StompRowDistancesCosine(const double* qt, const double* ssq_b,
                             size_t count, size_t /*window*/, double ssq_a,
                             double* out) {
  StompRowCosineT<ActiveOps>(qt, ssq_b, count, ssq_a, out);
}

double SquaredEuclideanChained(const double* a, const double* b, size_t n) {
  return SquaredEuclideanChainedT(a, b, n);
}

// -------------------------------------------------------- scalar reference

namespace scalar {

void SlidingDots(const double* q, size_t m, const double* s, size_t n,
                 double* out) {
  SlidingDotsT<ScalarOps>(q, m, s, n, out);
}

void RawProfileFromDots(double qq, const double* sqp, size_t window,
                        const double* dots, size_t count, double* out) {
  RawProfileT<ScalarOps>(qq, sqp, window, dots, count, out);
}

double RawMinFromDots(double qq, const double* sqp, size_t window,
                      const double* dots, size_t count) {
  return RawMinT<ScalarOps>(qq, sqp, window, dots, count);
}

void ZNormProfileFromDots(const double* dots, const double* stds, size_t count,
                          size_t window, bool query_flat, double* out) {
  ZNormProfileT<ScalarOps>(dots, stds, count, window, query_flat, out);
}

double ZNormMinFromDots(const double* dots, const double* stds, size_t count,
                        size_t window, bool query_flat) {
  return ZNormMinT<ScalarOps>(dots, stds, count, window, query_flat);
}

void L2ProfileFromDots(double qq, const double* sqp, size_t window,
                       const double* dots, size_t count, double* out) {
  L2ProfileT<ScalarOps>(qq, sqp, window, dots, count, out);
}

double L2MinFromDots(double qq, const double* sqp, size_t window,
                     const double* dots, size_t count) {
  return L2MinT<ScalarOps>(qq, sqp, window, dots, count);
}

void CosineProfileFromDots(double qq, const double* sqp, size_t window,
                           const double* dots, size_t count, double* out) {
  CosineProfileT<ScalarOps>(qq, sqp, window, dots, count, out);
}

double CosineMinFromDots(double qq, const double* sqp, size_t window,
                         const double* dots, size_t count) {
  return CosineMinT<ScalarOps>(qq, sqp, window, dots, count);
}

void RollingMomentsFromPrefix(const double* sum, const double* sq,
                              size_t count, size_t window, double grand_mean,
                              double* means, double* stds) {
  RollingMomentsT<ScalarOps>(sum, sq, count, window, grand_mean, means, stds);
}

void QtRowAdvance(double* qt, size_t count, const double* b, size_t window,
                  double a_head, double a_tail) {
  QtRowAdvanceT<ScalarOps>(qt, count, b, window, a_head, a_tail);
}

void StompRowDistances(const double* qt, const double* mu_b,
                       const double* sig_b, size_t count, size_t window,
                       double mu_a, double sig_a, double* out) {
  StompRowDistancesT<ScalarOps>(qt, mu_b, sig_b, count, window, mu_a, sig_a,
                                out);
}

void StompRowDistancesRaw(const double* qt, const double* ssq_b, size_t count,
                          size_t window, double ssq_a, double* out) {
  StompRowRawT<ScalarOps>(qt, ssq_b, count, window, ssq_a, out);
}

void StompRowDistancesL2(const double* qt, const double* ssq_b, size_t count,
                         size_t /*window*/, double ssq_a, double* out) {
  StompRowL2T<ScalarOps>(qt, ssq_b, count, ssq_a, out);
}

void StompRowDistancesCosine(const double* qt, const double* ssq_b,
                             size_t count, size_t /*window*/, double ssq_a,
                             double* out) {
  StompRowCosineT<ScalarOps>(qt, ssq_b, count, ssq_a, out);
}

double SquaredEuclideanChained(const double* a, const double* b, size_t n) {
  return SquaredEuclideanChainedT(a, b, n);
}

}  // namespace scalar

// ----------------------------------------------------- early-abandon kernels
//
// See the header contract. One scalar implementation per metric (each
// alignment is a dependent scan, so there is nothing to vectorise across);
// the same functions back the dispatched and the scalar MetricPolicy
// tables. Minima are bitwise identical to the dense *MinFromDots kernels
// over naive sliding dots: surviving alignments reproduce dots[i] with the
// identical increasing-j scalar chain and apply the dense kernel's exact
// tail expression, and every skipped alignment provably cannot beat the
// running best (docs/pruning.md carries the per-metric derivations).

namespace {

// Relative rounding-slack coefficient. A skip compares quantities computed
// through different fp operation orders (the scan's squared-difference
// chain vs the dense qq - 2*dot + ss tail, prefix-sum differences with
// cancellation, reciprocal-vs-division z-scores); each side's deviation
// from the exact value is bounded by (operation count) * machine epsilon
// relative to the magnitudes entering the computation. 1e-9 times those
// magnitudes covers chains beyond 10^6 operations with two decades to
// spare, while staying far below any distance gap pruning could usefully
// exploit. Enlarging the slack can only reduce pruning, never correctness.
constexpr double kEabSlackRel = 1e-9;

// Elements scanned between partial-sum abandon checks. The FIRST check of
// each scan happens at half a block: when the best-so-far is tight most
// scans die at the first check, so the cheaper it is, the better; once a
// scan survives one check it is likely to run a while, so later checks
// space out to amortise their cost.
constexpr size_t kEabBlock = 16;

// Bail-out: periodically the kernel compares its actual scalar work
// against the dense kernel's cost model. The scans run dependent
// accumulation chains and cannot pipeline across alignments the way the
// vectorised dense kernels do, so one scanned element costs roughly
// kEabScalarPenalty dense elements; the dense path would have spent `m`
// per visited alignment. Two full scans' worth of elements are discounted
// -- with no best-so-far yet, the seed and the O(1)-guess visits scan to
// completion, and charging them would condemn calls whose every later
// alignment prunes in O(1). The first check comes after only
// kEabBailFirst visits (a hopeless call should waste little before
// bailing); survivors re-check every kEabBailPeriod.
constexpr size_t kEabBailFirst = 8;
constexpr size_t kEabBailPeriod = 32;
constexpr size_t kEabScalarPenalty = 8;

inline bool EabShouldBail(size_t scanned, size_t visited, size_t m) {
  const size_t warmup = 2 * m;
  const size_t excess = scanned > warmup ? scanned - warmup : 0;
  return kEabScalarPenalty * excess > m * visited;
}

EabResult EabBailOut(size_t count, EabCounters& c) {
  // Report the call as if every alignment ran to completion: the caller's
  // dense fallback does exactly that, and the invariant candidates ==
  // lb_pruned + abandoned + full stays intact.
  c.candidates += count;
  c.full += count;
  EabResult r;
  r.bailed_out = true;
  return r;
}

// The raw (Def. 4) and L2 kernels share everything except the comparison
// scale and the final tail expression. Both compare in the squared-error
// numerator scale (distance * m for raw, squared distance for L2), where
// the scan's partial sum lives.
struct RawEabTail {
  static double Value(double qq, double dot, double window_sq, double md) {
    return std::max(0.0, (qq - 2.0 * dot + window_sq) / md);
  }
  static double CompareScale(double best, double md) { return best * md; }
};
struct L2EabTail {
  static double Value(double qq, double dot, double window_sq,
                      double /*md*/) {
    return std::sqrt(std::max(0.0, qq - 2.0 * dot + window_sq));
  }
  static double CompareScale(double best, double /*md*/) {
    return best * best;
  }
};

template <typename Tail>
EabResult DotEabMin(const EabArgs& a, EabCounters& c) {
  const size_t m = a.window;
  const size_t count = a.count;
  const double md = static_cast<double>(m);
  const double* q = a.query;
  const double* s = a.series;
  const double* sqp = a.sqp;
  const double qq = a.qq;
  const double qn = std::sqrt(qq);

  // Visit the caller's seed first, then the alignment whose window energy
  // is nearest the query's (the reverse triangle inequality makes it the
  // most promising O(1) guess), then the rest in index order. One cheap
  // pass -- no sqrt, no materialised bounds, no sort.
  size_t near = 0;
  double near_gap = kInf;
  for (size_t i = 0; i < count; ++i) {
    const double gap = std::fabs((sqp[i + m] - sqp[i]) - qq);
    if (gap < near_gap) {
      near_gap = gap;
      near = i;
    }
  }
  const size_t seed = a.seed < count ? a.seed : kEabNoSeed;

  const double qfirst = q[0];
  const double qlast = q[m - 1];
  double best = kInf;
  double best_cmp = kInf;  // best in the comparison scale
  size_t best_i = kEabNoSeed;
  size_t visited = 0, lbp = 0, ab = 0, full = 0, scanned = 0;
  size_t next_check = kEabBailFirst;

  // Energy band: the reverse triangle inequality gives
  // sum (q - w)^2 >= (|q| - |w_i|)^2, so once a best-so-far exists any
  // alignment whose window energy falls outside [lo2, hi2] provably
  // cannot beat it. The band is refreshed only when the best improves;
  // per alignment the check is two compares on the raw prefix-sum
  // difference. slack_max uses the final prefix entry (prefix sums of
  // squares are non-decreasing), covering every alignment's
  // cancellation-error allowance at once; the extra 1e-12 inflation
  // absorbs the rounding of the band endpoints themselves.
  const double slack_max = kEabSlackRel * (qq + sqp[count + m - 1]);
  double lo2 = -kInf, hi2 = kInf;
  const auto refresh_band = [&] {
    const double sb = std::sqrt(best_cmp + slack_max);
    const double hi = qn + sb;
    hi2 = hi * hi * (1.0 + 1e-12);
    const double lo = qn - sb;
    lo2 = lo > 0.0 ? lo * lo * (1.0 - 1e-12) : -kInf;
  };

  for (size_t k = 0; k < count + 2; ++k) {
    size_t i;
    if (k == 0) {
      i = seed;
      if (i == kEabNoSeed) continue;
    } else if (k == 1) {
      i = near;
      if (i == seed) continue;
    } else {
      i = k - 2;
      if (i == seed || i == near) continue;
    }
    if (best == 0.0) break;  // the clamped tail can never beat zero
    const double wsq = sqp[i + m] - sqp[i];
    if (wsq < lo2 || wsq > hi2) {
      ++visited;
      ++lbp;
      continue;
    }
    const double thr = best_cmp + kEabSlackRel * (qq + sqp[i + m]);
    const double* w = s + i;
    // LB_Kim-style O(1) pre-check: the first and last squared differences
    // already bound the scan's sum from below (every term is
    // non-negative), so a tight best-so-far skips the scan entirely. A
    // single-element window has one term, which must not count twice.
    const double e_first = qfirst - w[0];
    const double e_last = m > 1 ? qlast - w[m - 1] : 0.0;
    if (e_first * e_first + e_last * e_last > thr) {
      ++visited;
      ++lbp;
      continue;
    }
    double dot = 0.0;
    double ssd = 0.0;
    size_t j = 0;
    size_t limit = kEabBlock / 2 < m ? kEabBlock / 2 : m;
    bool abandoned = false;
    while (true) {
      for (; j < limit; ++j) {
        dot += q[j] * w[j];
        const double e = q[j] - w[j];
        ssd += e * e;
      }
      if (j == m) break;
      if (ssd > thr) {
        abandoned = true;
        break;
      }
      limit = j + kEabBlock < m ? j + kEabBlock : m;
    }
    ++visited;
    scanned += j;
    if (abandoned) {
      ++ab;
    } else {
      ++full;
      const double d = Tail::Value(qq, dot, wsq, md);
      if (d < best) {
        best = d;
        best_cmp = Tail::CompareScale(best, md);
        best_i = i;
        refresh_band();
      }
    }
    if (visited >= next_check) {
      next_check += kEabBailPeriod;
      if (EabShouldBail(scanned, visited, m)) return EabBailOut(count, c);
    }
  }

  c.candidates += count;
  c.lb_pruned += lbp + (count - visited);
  c.abandoned += ab;
  c.full += full;
  EabResult r;
  r.min = best;
  r.argmin = best_i;
  return r;
}

}  // namespace

EabResult RawMinEarlyAbandon(const EabArgs& args, EabCounters& counters) {
  return DotEabMin<RawEabTail>(args, counters);
}

EabResult L2MinEarlyAbandon(const EabArgs& args, EabCounters& counters) {
  return DotEabMin<L2EabTail>(args, counters);
}

EabResult CosineMinEarlyAbandon(const EabArgs& a, EabCounters& c) {
  const size_t m = a.window;
  const size_t count = a.count;
  const double* q = a.query;
  const double* s = a.series;
  const double* sqp = a.sqp;
  const double* qpre = a.qpre;
  const double qq = a.qq;
  const double qn = std::sqrt(qq);
  double best = kInf;
  size_t best_i = kEabNoSeed;
  size_t visited = 0, lbp = 0, ab = 0, full = 0, scanned = 0;
  size_t next_check = kEabBailFirst;
  EabResult r;

  if (qn < kFlatStdEpsilon) {
    // Flat query: the dense tail is 0 for flat windows and 1 otherwise --
    // an O(1) rule per alignment, and 0 is the global minimum.
    for (size_t i = 0; i < count; ++i) {
      const double wn = std::sqrt(sqp[i + m] - sqp[i]);
      const double d = wn < kFlatStdEpsilon ? 0.0 : 1.0;
      ++visited;
      ++full;
      if (d < best) {
        best = d;
        best_i = i;
      }
      if (best == 0.0) break;
    }
    c.candidates += count;
    c.lb_pruned += count - visited;
    c.full += full;
    r.min = best;
    r.argmin = best_i;
    return r;
  }

  // Cosine is scale-invariant: no norm-based lower bound exists, so the
  // cascade's LB stage is trivial and the visit order is seed-then-index.
  // Scans abandon through the Cauchy-Schwarz bound on the unseen tail:
  // dot <= dot_j + sqrt(qq_rest * ss_rest). The slack's sqrt term covers
  // the cancellation error of the ss_rest prefix difference, which enters
  // the bound under a square root.
  const size_t seed = a.seed < count ? a.seed : kEabNoSeed;
  for (size_t k = (seed == kEabNoSeed ? 1 : 0); k <= count; ++k) {
    size_t i;
    if (k == 0) {
      i = seed;
    } else {
      i = k - 1;
      if (i == seed) continue;
    }
    if (best == 0.0) break;
    const double wsq = sqp[i + m] - sqp[i];
    const double wn = std::sqrt(wsq);
    ++visited;
    if (wn < kFlatStdEpsilon) {
      ++full;
      if (1.0 < best) {
        best = 1.0;
        best_i = i;
      }
      continue;
    }
    const double qnwn = qn * wn;
    const double slack =
        kEabSlackRel + std::sqrt(kEabSlackRel * sqp[i + m]) / wn;
    const double thr = best + slack;
    const double* w = s + i;
    double dot = 0.0;
    size_t j = 0;
    size_t limit = kEabBlock / 2 < m ? kEabBlock / 2 : m;
    bool abandoned = false;
    while (true) {
      for (; j < limit; ++j) dot += q[j] * w[j];
      if (j == m) break;  // complete: take the exact value below
      const double q_rest = std::max(0.0, qq - qpre[j]);
      const double s_rest = std::max(0.0, sqp[i + m] - sqp[i + j]);
      const double ub_dot = dot + std::sqrt(q_rest * s_rest);
      if (1.0 - ub_dot / qnwn > thr) {
        abandoned = true;
        break;
      }
      limit = j + kEabBlock < m ? j + kEabBlock : m;
    }
    scanned += j;
    if (abandoned) {
      ++ab;
    } else {
      ++full;
      const double sim = dot / (qn * wn);
      const double d = std::max(0.0, 1.0 - sim);
      if (d < best) {
        best = d;
        best_i = i;
      }
    }
    if (visited >= next_check) {
      next_check += kEabBailPeriod;
      if (EabShouldBail(scanned, visited, m)) return EabBailOut(count, c);
    }
  }

  c.candidates += count;
  c.lb_pruned += lbp + (count - visited);
  c.abandoned += ab;
  c.full += full;
  r.min = best;
  r.argmin = best_i;
  return r;
}

EabResult ZNormMinEarlyAbandon(const EabArgs& a, EabCounters& c) {
  const size_t m = a.window;
  const size_t count = a.count;
  const double md = static_cast<double>(m);
  const double sqrt_md = std::sqrt(md);
  const double* q = a.query;
  const double* s = a.series;
  const double* sqp = a.sqp;
  const double* means = a.means;
  const double* stds = a.stds;
  double best = kInf;
  size_t best_i = kEabNoSeed;
  size_t visited = 0, lbp = 0, ab = 0, full = 0, scanned = 0;
  size_t next_check = kEabBailFirst;
  EabResult r;

  if (a.query_flat) {
    // Dense tail: 0 for flat windows, sqrt(m) otherwise; 0 is the global
    // minimum, so stop at the first flat window.
    for (size_t i = 0; i < count; ++i) {
      const double d = stds[i] < kFlatStdEpsilon ? 0.0 : sqrt_md;
      ++visited;
      ++full;
      if (d < best) {
        best = d;
        best_i = i;
      }
      if (best == 0.0) break;
    }
    c.candidates += count;
    c.lb_pruned += count - visited;
    c.full += full;
    r.min = best;
    r.argmin = best_i;
    return r;
  }

  // The scan accumulates SSD_i = sum_j (q_j - (w_j - mu_i)/sig_i)^2, which
  // relates to the dense tail K_i = 2m - 2*dot_i/sig_i through the exact
  // structural gap (expand the square; docs/pruning.md):
  //   Delta_i = (sum q^2 - m) + ((ss_i - m*mu_i^2)/sig_i^2 - m)
  //             + 2*mu_i*(sum q)/sig_i,
  // i.e. K_i = SSD_i - Delta_i in exact arithmetic. All fp deviation --
  // including the cancellation in the rolling moments that makes sig_i^2
  // differ from the true window variance -- is covered by a slack
  // proportional to the magnitudes entering the identity.
  const double zq_sum = a.zq_sum;
  const double zq_sumsq = a.zq_sumsq;
  const auto gap = [&](double mu, double inv, double prefix_end, double wsq,
                       double& delta, double& slack) {
    const double centered = (wsq - md * mu * mu) * inv * inv;
    const double cross = 2.0 * mu * zq_sum * inv;
    delta = (zq_sumsq - md) + (centered - md) + cross;
    const double mag = md + zq_sumsq +
                       (prefix_end + md * mu * mu) * inv * inv +
                       std::fabs(2.0 * mu * inv) * md + std::fabs(cross);
    slack = kEabSlackRel * mag;
  };

  const double qfirst = q[0];
  const double qlast = q[m - 1];

  // O(1) first guess: the endpoint residuals in the sig-scaled domain,
  // u = qfirst*sig - (w_first - mu), vanish for any window that z-matches
  // the query REGARDLESS of its amplitude, so one division-free pass
  // finds a near-twin to seed the best-so-far (flat windows are skipped:
  // their residuals vanish trivially but their distance is sqrt(m)).
  size_t near = kEabNoSeed;
  double near_gap = kInf;
  for (size_t i = 0; i < count; ++i) {
    const double sig = stds[i];
    if (sig < kFlatStdEpsilon) continue;
    const double mu = means[i];
    const double u0 = qfirst * sig - (s[i] - mu);
    const double u1 = qlast * sig - (s[i + m - 1] - mu);
    const double g = u0 * u0 + u1 * u1;
    if (g < near_gap) {
      near_gap = g;
      near = i;
    }
  }

  // Visit the caller's seed, then the guess, then the rest in index
  // order. The per-alignment O(1) filter is the LB_Kim-style bound on the
  // first and last z-scored coordinates: both terms of SSD_i are
  // non-negative, so e0^2 + e1^2 > best^2 + Delta_i (+ slack) proves the
  // full scan cannot beat the running best. The filter is evaluated in
  // the sig-scaled domain -- multiply the real-arithmetic inequality
  // through by sig^2 > 0 -- so pruned alignments never pay the 1/sig
  // division; only survivors (which scan anyway) divide. Bounds are
  // evaluated lazily at visit time: no materialised array, no sort.
  const size_t seed = a.seed < count ? a.seed : kEabNoSeed;
  double best_cmp = kInf;  // best^2 (the scan's comparison scale)
  for (size_t k = 0; k < count + 2; ++k) {
    size_t i;
    if (k == 0) {
      i = seed;
      if (i == kEabNoSeed) continue;
    } else if (k == 1) {
      i = near;
      if (i == kEabNoSeed || i == seed) continue;
    } else {
      i = k - 2;
      if (i == seed || i == near) continue;
    }
    if (best == 0.0) break;
    const double sig = stds[i];
    if (sig < kFlatStdEpsilon) {
      // Dense tail for a flat window is exactly sqrt(m): O(1), no scan.
      ++visited;
      ++full;
      if (sqrt_md < best) {
        best = sqrt_md;
        best_cmp = best * best;
        best_i = i;
      }
      continue;
    }
    const double wsq = sqp[i + m] - sqp[i];
    const double mu = means[i];
    if (best_cmp < kInf) {
      const double sig2 = sig * sig;
      const double u0 = qfirst * sig - (s[i] - mu);
      const double u1 = qlast * sig - (s[i + m - 1] - mu);
      const double lhs = u0 * u0 + u1 * u1;
      // delta and mag of the gap lambda, multiplied through by sig^2
      // (cross picks up sig, centered loses its inv^2).
      const double dscaled = (zq_sumsq - md) * sig2 +
                             (wsq - md * mu * mu) - md * sig2 +
                             2.0 * mu * zq_sum * sig;
      const double mag_scaled =
          (md + zq_sumsq) * sig2 + (sqp[i + m] + md * mu * mu) +
          std::fabs(2.0 * mu * sig) * md + std::fabs(2.0 * mu * zq_sum * sig);
      const double rhs = best_cmp * sig2 + dscaled + kEabSlackRel * mag_scaled;
      if (lhs - kEabSlackRel * lhs > rhs) {
        ++visited;
        ++lbp;
        continue;
      }
    }
    const double inv = 1.0 / sig;
    double delta, slack;
    gap(mu, inv, sqp[i + m], wsq, delta, slack);
    const double thr = best_cmp + delta + slack;
    ++visited;
    const double* w = s + i;
    double dot = 0.0;
    double ssd = 0.0;
    size_t j = 0;
    size_t limit = kEabBlock / 2 < m ? kEabBlock / 2 : m;
    bool abandoned = false;
    while (true) {
      for (; j < limit; ++j) {
        dot += q[j] * w[j];
        const double e = q[j] - (w[j] - mu) * inv;
        ssd += e * e;
      }
      if (j == m) break;
      if (ssd > thr) {
        abandoned = true;
        break;
      }
      limit = j + kEabBlock < m ? j + kEabBlock : m;
    }
    scanned += j;
    if (abandoned) {
      ++ab;
    } else {
      ++full;
      const double d2 = std::max(0.0, 2.0 * md - 2.0 * dot / sig);
      const double d = std::sqrt(d2);
      if (d < best) {
        best = d;
        best_cmp = best * best;
        best_i = i;
      }
    }
    if (visited >= next_check) {
      next_check += kEabBailPeriod;
      if (EabShouldBail(scanned, visited, m)) return EabBailOut(count, c);
    }
  }

  c.candidates += count;
  c.lb_pruned += lbp + (count - visited);
  c.abandoned += ab;
  c.full += full;
  r.min = best;
  r.argmin = best_i;
  return r;
}

}  // namespace simd
}  // namespace ips
