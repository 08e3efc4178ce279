#include "core/simd.h"

#include <cmath>

#include <algorithm>
#include <atomic>
#include <iterator>

#include "core/simd_kernels.h"
#include "core/znorm.h"

#if defined(__x86_64__) || defined(_M_X64)
#define IPS_SIMD_X86 1
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define IPS_SIMD_NEON 1
#endif

namespace ips {
namespace simd {

constinit const KernelTable kScalarKernels =
    MakeKernelTable<ScalarOps>(Backend::kScalar, "scalar");

namespace {

// ----------------------------------------------------------- backend choice
//
// The backends compiled for this architecture, narrowest first. Each one
// the CPU lacks makes every wider one unsupported too (TableOf), so the
// supported ones are a prefix.
#if defined(IPS_SIMD_X86)
constexpr Backend kCompiled[] = {Backend::kScalar, Backend::kSse2,
                                 Backend::kAvx2, Backend::kAvx512};
constexpr const KernelTable* kBaseline = &kSse2Kernels;
#elif defined(IPS_SIMD_NEON)
constexpr Backend kCompiled[] = {Backend::kScalar, Backend::kNeon};
constexpr const KernelTable* kBaseline = &kNeonKernels;
#else
constexpr Backend kCompiled[] = {Backend::kScalar};
constexpr const KernelTable* kBaseline = &kScalarKernels;
#endif

// The table of `backend`, or null when this CPU cannot run it.
const KernelTable* TableOf(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return &kScalarKernels;
#if defined(IPS_SIMD_X86)
    case Backend::kSse2:
      return &kSse2Kernels;
    case Backend::kAvx2:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2") ? &kAvx2Kernels : nullptr;
    case Backend::kAvx512:
      // Requires AVX2 too, so the supported backends stay a prefix.
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2") &&
                     __builtin_cpu_supports("avx512f")
                 ? &kAvx512Kernels
                 : nullptr;
#elif defined(IPS_SIMD_NEON)
    case Backend::kNeon:
      return &kNeonKernels;
#endif
    default:
      return nullptr;
  }
}

// The kernels every dispatched call runs. Calls made before the start-up
// choice below see the baseline table, which computes the same bits.
constinit std::atomic<const KernelTable*> g_active{kBaseline};

const KernelTable& Active() {
  return *g_active.load(std::memory_order_relaxed);
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

std::span<const Backend> SupportedBackends() {
  size_t n = 0;
  while (n < std::size(kCompiled) && TableOf(kCompiled[n]) != nullptr) ++n;
  return {kCompiled, n};
}

bool UseBackend(Backend backend) {
  const KernelTable* table = TableOf(backend);
  if (table == nullptr) return false;
  g_active.store(table, std::memory_order_relaxed);
  return true;
}

namespace {
// Start-up: the widest backend this CPU supports.
[[maybe_unused]] const bool g_default_chosen =
    UseBackend(SupportedBackends().back());
}  // namespace

Backend ActiveBackend() { return Active().backend; }

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kSse2:
      return "sse2";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAvx512:
      return "avx512";
    case Backend::kNeon:
      return "neon";
    default:
      return "scalar";
  }
}

const char* BackendName() { return Active().name; }

size_t Lanes() { return Active().width; }

// ------------------------------------------------------------- dispatched

void SlidingDots(const double* q, size_t m, const double* s, size_t n,
                 double* out) {
  Active().sliding_dots(q, m, s, n, out);
}

void RawProfileFromDots(double qq, const double* sqp, size_t window,
                        const double* dots, size_t count, double* out) {
  Active().raw_profile(qq, sqp, window, dots, count, out);
}

double RawMinFromDots(double qq, const double* sqp, size_t window,
                      const double* dots, size_t count) {
  return Active().raw_min(qq, sqp, window, dots, count);
}

void ZNormProfileFromDots(const double* dots, const double* stds, size_t count,
                          size_t window, bool query_flat, double* out) {
  Active().znorm_profile(dots, stds, count, window, query_flat, out);
}

double ZNormMinFromDots(const double* dots, const double* stds, size_t count,
                        size_t window, bool query_flat) {
  return Active().znorm_min(dots, stds, count, window, query_flat);
}

void L2ProfileFromDots(double qq, const double* sqp, size_t window,
                       const double* dots, size_t count, double* out) {
  Active().l2_profile(qq, sqp, window, dots, count, out);
}

double L2MinFromDots(double qq, const double* sqp, size_t window,
                     const double* dots, size_t count) {
  return Active().l2_min(qq, sqp, window, dots, count);
}

void CosineProfileFromDots(double qq, const double* sqp, size_t window,
                           const double* dots, size_t count, double* out) {
  Active().cosine_profile(qq, sqp, window, dots, count, out);
}

double CosineMinFromDots(double qq, const double* sqp, size_t window,
                         const double* dots, size_t count) {
  return Active().cosine_min(qq, sqp, window, dots, count);
}

void RollingMomentsFromPrefix(const double* sum, const double* sq,
                              size_t count, size_t window, double grand_mean,
                              double* means, double* stds) {
  Active().rolling_moments(sum, sq, count, window, grand_mean, means, stds);
}

void QtRowAdvance(double* qt, size_t count, const double* b, size_t window,
                  double a_head, double a_tail) {
  Active().qt_row_advance(qt, count, b, window, a_head, a_tail);
}

void StompRowDistances(const double* qt, const double* mu_b,
                       const double* sig_b, size_t count, size_t window,
                       double mu_a, double sig_a, double* out) {
  Active().stomp_row_znorm(qt, mu_b, sig_b, count, window, mu_a, sig_a, out);
}

void StompRowDistancesRaw(const double* qt, const double* ssq_b, size_t count,
                          size_t window, double ssq_a, double* out) {
  Active().stomp_row_raw(qt, ssq_b, count, window, ssq_a, out);
}

void StompRowDistancesL2(const double* qt, const double* ssq_b, size_t count,
                         size_t window, double ssq_a, double* out) {
  Active().stomp_row_l2(qt, ssq_b, count, window, ssq_a, out);
}

void StompRowDistancesCosine(const double* qt, const double* ssq_b,
                             size_t count, size_t window, double ssq_a,
                             double* out) {
  Active().stomp_row_cosine(qt, ssq_b, count, window, ssq_a, out);
}

RowMin StompRowMins(const double* dist, size_t count, double first_j,
                    double row, RowMin init, double* col_val,
                    double* col_row) {
  return Active().stomp_row_mins(dist, count, first_j, row, init, col_val,
                                 col_row);
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
                         size_t window, double ssq_a, double* out) {
  StompRowL2T<ScalarOps>(qt, ssq_b, count, window, ssq_a, out);
}

void StompRowDistancesCosine(const double* qt, const double* ssq_b,
                             size_t count, size_t window, double ssq_a,
                             double* out) {
  StompRowCosineT<ScalarOps>(qt, ssq_b, count, window, ssq_a, out);
}

RowMin StompRowMins(const double* dist, size_t count, double first_j,
                    double row, RowMin init, double* col_val,
                    double* col_row) {
  return StompRowMinsT<ScalarOps>(dist, count, first_j, row, init, col_val,
                                  col_row);
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
