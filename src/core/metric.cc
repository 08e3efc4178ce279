#include "core/metric.h"

#include <cmath>

#include <algorithm>

#include "core/distance.h"
#include "core/simd.h"
#include "core/znorm.h"
#include "util/check.h"

namespace ips {
namespace {

// ---------------------------------------------------------------------------
// Kernel hook adapters. Each is a thin argument-shuffling wrapper around the
// corresponding core/simd.h kernel -- no arithmetic happens here, so routing
// a call through the policy table is bitwise identical to calling the simd
// kernel directly (the identity contract in metric.h rests on this).
// ---------------------------------------------------------------------------

// -- z-normalised Euclidean (MASS / STOMP default) --------------------------

void ZnProfile(const MetricProfileArgs& a, double* out) {
  simd::ZNormProfileFromDots(a.dots, a.stds, a.count, a.window, a.query_flat,
                             out);
}
double ZnMin(const MetricProfileArgs& a) {
  return simd::ZNormMinFromDots(a.dots, a.stds, a.count, a.window,
                                a.query_flat);
}
void ZnRow(const double* qt, const MetricRowView& b, size_t count,
           size_t window, const MetricCell& a, double* out) {
  simd::StompRowDistances(qt, b.means, b.stds, count, window, a.mean, a.std,
                          out);
}
void ZnProfileScalar(const MetricProfileArgs& a, double* out) {
  simd::scalar::ZNormProfileFromDots(a.dots, a.stds, a.count, a.window,
                                     a.query_flat, out);
}
double ZnMinScalar(const MetricProfileArgs& a) {
  return simd::scalar::ZNormMinFromDots(a.dots, a.stds, a.count, a.window,
                                        a.query_flat);
}
void ZnRowScalar(const double* qt, const MetricRowView& b, size_t count,
                 size_t window, const MetricCell& a, double* out) {
  simd::scalar::StompRowDistances(qt, b.means, b.stds, count, window, a.mean,
                                  a.std, out);
}
double ZnFused(double* qt, size_t count, size_t window,
               const simd::QtStep& step, const MetricRowView& b,
               const MetricCell& a, double* col_val) {
  return simd::StompRowFusedZNorm(qt, count, window, step, b.means, b.stds,
                                  a.mean, a.std, col_val);
}
double ZnFusedScalar(double* qt, size_t count, size_t window,
                     const simd::QtStep& step, const MetricRowView& b,
                     const MetricCell& a, double* col_val) {
  return simd::scalar::StompRowFusedZNorm(qt, count, window, step, b.means,
                                          b.stds, a.mean, a.std, col_val);
}
double ZnPairwise(std::span<const double> a, std::span<const double> b) {
  IPS_CHECK(a.size() == b.size());
  return Euclidean(ZNormalize(a), ZNormalize(b));
}

// -- raw (paper Def. 4) length-normalised squared Euclidean -----------------

void RawProfile(const MetricProfileArgs& a, double* out) {
  simd::RawProfileFromDots(a.qq, a.sqp, a.window, a.dots, a.count, out);
}
double RawMin(const MetricProfileArgs& a) {
  return simd::RawMinFromDots(a.qq, a.sqp, a.window, a.dots, a.count);
}
void RawRow(const double* qt, const MetricRowView& b, size_t count,
            size_t window, const MetricCell& a, double* out) {
  simd::StompRowDistancesRaw(qt, b.energies, count, window, a.energy, out);
}
void RawProfileScalar(const MetricProfileArgs& a, double* out) {
  simd::scalar::RawProfileFromDots(a.qq, a.sqp, a.window, a.dots, a.count,
                                   out);
}
double RawMinScalar(const MetricProfileArgs& a) {
  return simd::scalar::RawMinFromDots(a.qq, a.sqp, a.window, a.dots, a.count);
}
void RawRowScalar(const double* qt, const MetricRowView& b, size_t count,
                  size_t window, const MetricCell& a, double* out) {
  simd::scalar::StompRowDistancesRaw(qt, b.energies, count, window, a.energy,
                                     out);
}
double RawFused(double* qt, size_t count, size_t window,
                const simd::QtStep& step, const MetricRowView& b,
                const MetricCell& a, double* col_val) {
  return simd::StompRowFusedRaw(qt, count, window, step, b.energies, a.energy,
                                col_val);
}
double RawFusedScalar(double* qt, size_t count, size_t window,
                      const simd::QtStep& step, const MetricRowView& b,
                      const MetricCell& a, double* col_val) {
  return simd::scalar::StompRowFusedRaw(qt, count, window, step, b.energies,
                                        a.energy, col_val);
}
double RawPairwise(std::span<const double> a, std::span<const double> b) {
  IPS_CHECK(a.size() == b.size());
  IPS_CHECK(!a.empty());
  return SquaredEuclidean(a, b) / static_cast<double>(a.size());
}

// -- non-normalised Euclidean (L2) ------------------------------------------

void L2Profile(const MetricProfileArgs& a, double* out) {
  simd::L2ProfileFromDots(a.qq, a.sqp, a.window, a.dots, a.count, out);
}
double L2Min(const MetricProfileArgs& a) {
  return simd::L2MinFromDots(a.qq, a.sqp, a.window, a.dots, a.count);
}
void L2Row(const double* qt, const MetricRowView& b, size_t count,
           size_t window, const MetricCell& a, double* out) {
  simd::StompRowDistancesL2(qt, b.energies, count, window, a.energy, out);
}
void L2ProfileScalar(const MetricProfileArgs& a, double* out) {
  simd::scalar::L2ProfileFromDots(a.qq, a.sqp, a.window, a.dots, a.count, out);
}
double L2MinScalar(const MetricProfileArgs& a) {
  return simd::scalar::L2MinFromDots(a.qq, a.sqp, a.window, a.dots, a.count);
}
void L2RowScalar(const double* qt, const MetricRowView& b, size_t count,
                 size_t window, const MetricCell& a, double* out) {
  simd::scalar::StompRowDistancesL2(qt, b.energies, count, window, a.energy,
                                    out);
}
double L2Fused(double* qt, size_t count, size_t window,
               const simd::QtStep& step, const MetricRowView& b,
               const MetricCell& a, double* col_val) {
  return simd::StompRowFusedL2(qt, count, window, step, b.energies, a.energy,
                               col_val);
}
double L2FusedScalar(double* qt, size_t count, size_t window,
                     const simd::QtStep& step, const MetricRowView& b,
                     const MetricCell& a, double* col_val) {
  return simd::scalar::StompRowFusedL2(qt, count, window, step, b.energies,
                                       a.energy, col_val);
}
double L2Pairwise(std::span<const double> a, std::span<const double> b) {
  IPS_CHECK(a.size() == b.size());
  return Euclidean(a, b);
}

// -- cosine distance --------------------------------------------------------

void CosineProfile(const MetricProfileArgs& a, double* out) {
  simd::CosineProfileFromDots(a.qq, a.sqp, a.window, a.dots, a.count, out);
}
double CosineMin(const MetricProfileArgs& a) {
  return simd::CosineMinFromDots(a.qq, a.sqp, a.window, a.dots, a.count);
}
void CosineRow(const double* qt, const MetricRowView& b, size_t count,
               size_t window, const MetricCell& a, double* out) {
  simd::StompRowDistancesCosine(qt, b.norms, count, window, a.energy, out);
}
void CosineProfileScalar(const MetricProfileArgs& a, double* out) {
  simd::scalar::CosineProfileFromDots(a.qq, a.sqp, a.window, a.dots, a.count,
                                      out);
}
double CosineMinScalar(const MetricProfileArgs& a) {
  return simd::scalar::CosineMinFromDots(a.qq, a.sqp, a.window, a.dots,
                                         a.count);
}
void CosineRowScalar(const double* qt, const MetricRowView& b, size_t count,
                     size_t window, const MetricCell& a, double* out) {
  simd::scalar::StompRowDistancesCosine(qt, b.norms, count, window, a.energy,
                                        out);
}
double CosineFused(double* qt, size_t count, size_t window,
                   const simd::QtStep& step, const MetricRowView& b,
                   const MetricCell& a, double* col_val) {
  return simd::StompRowFusedCosine(qt, count, window, step, b.norms, a.energy,
                                   col_val);
}
double CosineFusedScalar(double* qt, size_t count, size_t window,
                         const simd::QtStep& step, const MetricRowView& b,
                         const MetricCell& a, double* col_val) {
  return simd::scalar::StompRowFusedCosine(qt, count, window, step, b.norms,
                                           a.energy, col_val);
}
double CosinePairwise(std::span<const double> a, std::span<const double> b) {
  IPS_CHECK(a.size() == b.size());
  double dot = 0.0, aa = 0.0, bb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    aa += a[i] * a[i];
    bb += b[i] * b[i];
  }
  const double na = std::sqrt(aa);
  const double nb = std::sqrt(bb);
  const bool flat_a = na < kFlatStdEpsilon;
  const bool flat_b = nb < kFlatStdEpsilon;
  if (flat_a && flat_b) return 0.0;
  if (flat_a || flat_b) return 1.0;
  return std::max(0.0, 1.0 - dot / (na * nb));
}

// ---------------------------------------------------------------------------
// Registry. Indexed by MetricId; the static_assert below pins the layout to
// the enum so a new metric cannot be added without registering it here.
// ---------------------------------------------------------------------------

constexpr MetricPolicy kMetrics[kMetricCount] = {
    {MetricId::kZNormEuclidean, "znorm_euclidean",
     /*normalizes_query=*/true, /*needs_rolling_stats=*/true,
     /*needs_window_energy=*/false, /*needs_window_norms=*/false,
     /*row_squared=*/true,
     {ZnProfile, ZnMin, ZnRow, ZnFused},
     {ZnProfileScalar, ZnMinScalar, ZnRowScalar, ZnFusedScalar},
     ZnPairwise},
    {MetricId::kRawSquaredEuclidean, "raw_sq_euclidean",
     /*normalizes_query=*/false, /*needs_rolling_stats=*/false,
     /*needs_window_energy=*/true, /*needs_window_norms=*/false,
     /*row_squared=*/false,
     {RawProfile, RawMin, RawRow, RawFused},
     {RawProfileScalar, RawMinScalar, RawRowScalar, RawFusedScalar},
     RawPairwise},
    {MetricId::kEuclidean, "euclidean",
     /*normalizes_query=*/false, /*needs_rolling_stats=*/false,
     /*needs_window_energy=*/true, /*needs_window_norms=*/false,
     /*row_squared=*/true,
     {L2Profile, L2Min, L2Row, L2Fused},
     {L2ProfileScalar, L2MinScalar, L2RowScalar, L2FusedScalar},
     L2Pairwise},
    {MetricId::kCosine, "cosine",
     /*normalizes_query=*/false, /*needs_rolling_stats=*/false,
     /*needs_window_energy=*/true, /*needs_window_norms=*/true,
     /*row_squared=*/false,
     {CosineProfile, CosineMin, CosineRow, CosineFused},
     {CosineProfileScalar, CosineMinScalar, CosineRowScalar, CosineFusedScalar},
     CosinePairwise},
};

static_assert(static_cast<size_t>(MetricId::kZNormEuclidean) == 0);
static_assert(static_cast<size_t>(MetricId::kCosine) == kMetricCount - 1);

}  // namespace

const MetricPolicy& GetMetric(MetricId id) {
  const size_t idx = static_cast<size_t>(id);
  IPS_CHECK(idx < kMetricCount);
  IPS_CHECK(kMetrics[idx].id == id);
  return kMetrics[idx];
}

const MetricPolicy* FindMetricByName(std::string_view name) {
  for (const MetricPolicy& m : kMetrics) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

const char* MetricName(MetricId id) { return GetMetric(id).name; }

}  // namespace ips
