#include "core/simd.h"

#include <atomic>
#include <iterator>

#include "core/simd_kernels.h"

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

}  // namespace simd
}  // namespace ips
