// Portable SIMD kernel layer for the hot numeric loops.
//
// Every kernel here obeys one design rule, inherited from this repo's
// bitwise-identity test culture: **vectorise across independent outputs,
// never inside a single reduction.** A vector register holds Lanes()
// *different* outputs (distance-profile columns, rolling-stat windows, STOMP
// row cells); each lane performs exactly the scalar kernel's operation
// sequence for its own output, so every result is bitwise identical to the
// scalar code at any vector width. Loops whose value is one chained
// floating-point reduction (SquaredEuclidean's accumulator, prefix sums, the
// per-diagonal QT chain) stay scalar by design -- splitting them into lane
// partials would reassociate the rounding order. Selections are the one
// sanctioned exception: min/max selection involves no rounding, so a
// lane-wise running minimum folded horizontally at the end selects exactly
// the value the sequential loop selects. Every backend's vector Min/Max is
// the scalar selection (b < a ? b : a, a < b ? b : a) on every input, NaN
// and signed zeros included, so a lane and the scalar tail compute the
// same bits for any cell, and a running minimum Min(acc, x) never takes a
// NaN x. The rooted
// metrics (z-normalised, L2) select over squares and root once: sqrt is
// correctly rounded and monotone non-decreasing and the squares are >= +0,
// so a minimum over roots is bitwise the root of the minimum over squares.
// ZNormMinFromDots and L2MinFromDots root their result; StompRowDistances
// and StompRowDistancesL2 write squares, and the matrix-profile engines
// root each profile entry once it is final. RawMinFromDots divides once,
// after the minimum over numerators (x -> max(0, x / m) is monotone).
// A values-only minimum (StompRowFused*, the all-pairs join) is an
// order-free, overlap-safe selection: the cells are never -0.0, so neither
// the order the cells arrive in nor folding a cell twice can change it, and
// it folds by strict < (CmpLt + Select, the current value kept), so a NaN
// is never taken and a NaN already held is never replaced. Where an index
// tie-break matters too (the index-keeping STOMP joins), StompRowMins
// selects with strict < per lane, keeps each lane's first index, and folds
// by value and then lowest index, taking the value from the winning lane:
// the serial scan's result, NaN, -0.0 and ties included. The transform
// row's grouped minimum (SlidingMinGroup) is values-only too: its cells are
// those of the *MinFromDots tails, never NaN and -0.0 only as a raw
// numerator, which the final division maps to +0 like +0 itself, so it
// equals the per-query minimum whatever order and overlap its blocks fold
// in.
//
// Backend selection is a run-time decision. Every backend the target
// architecture has is compiled into the one binary, each vector backend in
// its own translation unit (simd_sse2.cc, simd_avx2.cc and simd_avx512.cc
// -- the only files built with -mavx2 and -mavx512f -- and simd_neon.cc)
// that exports one table of kernel function pointers. At start-up the
// widest backend the CPU supports becomes active: AVX-512 (8 lanes) when
// the CPU reports AVX-512F, else AVX2 (4 lanes) when it has that, else
// SSE2 (2 lanes, the x86-64 baseline); NEON (2 lanes) on AArch64; the
// scalar kernels elsewhere. The dispatched functions below call the active table.
// UseBackend switches it -- tests and tools use that to run every
// supported backend in one process -- and no build option, environment
// variable or run option selects it. The always-compiled `scalar::`
// namespace mirrors every kernel with the width-1 instantiation of the
// same templates (the scalar backend's table points at it), so tests and
// benchmarks can compare any backend against the scalar reference in the
// same binary (tests/simd_kernel_test.cc asserts bit-level equality).
//
// NOTE on fused multiply-add: the kernels never emit FMA. The scalar
// baseline rounds after the multiply and again after the add, so a fused
// contraction would change results; the build compiles with
// -ffp-contract=off (top-level CMakeLists.txt) and no unit is given -mfma.
// -mavx512f does make FMA available to the AVX-512 unit, so the flag is
// what keeps the scalar code and the intrinsic sequences from being
// contracted behind our back.

#ifndef IPS_CORE_SIMD_H_
#define IPS_CORE_SIMD_H_

#include <cstddef>
#include <cstdint>

#include <span>

namespace ips {
namespace simd {

/// A kernel backend. Every backend computes bitwise-identical results; they
/// differ only in speed.
enum class Backend : uint8_t { kScalar, kSse2, kAvx2, kAvx512, kNeon };

/// The backends this CPU can run, narrowest first: scalar, then SSE2, AVX2
/// (when the CPU has it) and AVX-512 (when it also has AVX-512F) on x86, or
/// NEON on AArch64. The last entry is the one active at start-up.
std::span<const Backend> SupportedBackends();

/// Makes `backend` the active one for every later kernel call in the
/// process. Returns false, and changes nothing, when this CPU cannot run
/// it. Switching mid-run is safe (all backends agree bitwise), but callers
/// comparing backends switch between runs.
[[nodiscard]] bool UseBackend(Backend backend);

/// The active backend.
Backend ActiveBackend();

/// "scalar", "sse2", "avx2", "avx512" or "neon".
const char* BackendName(Backend backend);

/// Name of the active backend. Used by benchmarks and logs.
const char* BackendName();

/// Doubles per vector of the active backend: 1 (scalar), 2 (SSE2, NEON), 4
/// (AVX2) or 8 (AVX-512). SlidingDots computes 4 * Lanes() outputs per
/// register-blocked pass; tests aim remainder counts at both.
size_t Lanes();

// ---------------------------------------------------------------------------
// Kernels. Each is documented with the scalar loop it replaces; the
// guarantee is bitwise-identical output for every input shape, including
// remainder lanes (counts below, equal to, and above Lanes()).
// ---------------------------------------------------------------------------

/// Sliding dot products: out[i] = sum_j q[j] * s[i + j] for i in
/// [0, n - m], accumulated in increasing j exactly as the naive kernel.
/// Vectorised across Lanes() adjacent outputs i (each lane keeps its own
/// scalar-order accumulator), 4 * Lanes() outputs per pass. When at least
/// one pass fits, the last pass ends at the last output and recomputes
/// some already written, each to the same bits. `out` must hold n - m + 1
/// values.
void SlidingDots(const double* q, size_t m, const double* s, size_t n,
                 double* out);

/// The raw (Def. 4) distance-profile tail given sliding dot products and a
/// prefix-sum-of-squares table:
///   out[i] = max(0, (qq - 2*dots[i] + (sqp[i+m] - sqp[i])) / m).
void RawProfileFromDots(double qq, const double* sqp, size_t window,
                        const double* dots, size_t count, double* out);

/// Minimum of RawProfileFromDots without materialising the profile -- the
/// batched profile min-reduce of DistanceEngine. Exact: the lane-minimum /
/// horizontal fold selects values, it never rounds.
double RawMinFromDots(double qq, const double* sqp, size_t window,
                      const double* dots, size_t count);

/// The z-normalised (MASS) distance-profile tail:
///   flat query & flat window -> 0; exactly one flat -> sqrt(m);
///   else sqrt(max(0, 2m - 2*dots[i]/stds[i])).
/// A window is flat when stds[i] < kFlatStdEpsilon (core/znorm.h).
void ZNormProfileFromDots(const double* dots, const double* stds, size_t count,
                          size_t window, bool query_flat, double* out);

/// Minimum of ZNormProfileFromDots without materialising the profile,
/// bitwise: the minimum is taken over the squares (a flat window counts m)
/// and rooted once.
double ZNormMinFromDots(const double* dots, const double* stds, size_t count,
                        size_t window, bool query_flat);

/// The non-normalised Euclidean (L2) distance-profile tail:
///   out[i] = sqrt(max(0, qq - 2*dots[i] + (sqp[i+m] - sqp[i]))).
/// Same inputs as the raw (Def. 4) tail -- the dot family shares its
/// qq / prefix-squares / sliding-dots setup.
void L2ProfileFromDots(double qq, const double* sqp, size_t window,
                       const double* dots, size_t count, double* out);

/// Minimum of L2ProfileFromDots without materialising the profile,
/// bitwise: the minimum is taken over the squares and rooted once.
double L2MinFromDots(double qq, const double* sqp, size_t window,
                     const double* dots, size_t count);

/// The cosine distance-profile tail, with wn = sqrt(sqp[i+m] - sqp[i]) and
/// qn = sqrt(qq):
///   both norms < kFlatStdEpsilon -> 0; exactly one -> 1;
///   else max(0, 1 - dots[i] / (qn * wn)).
void CosineProfileFromDots(double qq, const double* sqp, size_t window,
                           const double* dots, size_t count, double* out);

/// Minimum of CosineProfileFromDots without materialising the profile.
double CosineMinFromDots(double qq, const double* sqp, size_t window,
                         const double* dots, size_t count);

/// Rolling mean/std from centred prefix sums (core/znorm.cc):
///   s1 = sum[i+w]-sum[i]; s2 = sq[i+w]-sq[i]; mean_c = s1/w;
///   means[i] = gm + mean_c; stds[i] = sqrt(max(0, s2/w - mean_c^2)).
void RollingMomentsFromPrefix(const double* sum, const double* sq,
                              size_t count, size_t window, double grand_mean,
                              double* means, double* stds);

/// One in-place right-to-left STOMP row update (matrix_profile RowSweep):
///   for j = count-1 .. 1: qt[j] = qt[j-1] - a_head*b[j-1] + a_tail*b[j+w-1]
/// where a_head = a[i-1] and a_tail = a[i+w-1]. Every new qt[j] reads only
/// pre-update values, so blocks of Lanes() cells are independent outputs.
/// qt[0] is the caller's seed (column-0 dot product). `b` must extend to
/// index count + window - 2.
void QtRowAdvance(double* qt, size_t count, const double* b, size_t window,
                  double a_head, double a_tail);

/// One STOMP row of squared z-normalised distances (stomp_common.h
/// StompZNormSquared with the row side's mu_a/sig_a fixed):
///   out[j] = StompZNormSquared(qt[j], w, mu_a, sig_a, mu_b[j], sig_b[j]).
/// The distance is the root of each value; the engine takes it once per
/// profile entry, after the min scan.
void StompRowDistances(const double* qt, const double* mu_b,
                       const double* sig_b, size_t count, size_t window,
                       double mu_a, double sig_a, double* out);

/// One STOMP row of raw (Def. 4) distances from window energies
/// (stomp_common.h StompRawDistance with the row side's energy fixed):
///   out[j] = max(0, ((ssq_a + ssq_b[j]) - 2*qt[j]) / m).
void StompRowDistancesRaw(const double* qt, const double* ssq_b, size_t count,
                          size_t window, double ssq_a, double* out);

/// One STOMP row of squared non-normalised L2 distances (StompL2Squared):
///   out[j] = max(0, (ssq_a + ssq_b[j]) - 2*qt[j]).
void StompRowDistancesL2(const double* qt, const double* ssq_b, size_t count,
                         size_t window, double ssq_a, double* out);

/// One STOMP row of cosine distances (StompCosineDistance with the row
/// side's norm sqrt(ssq_a) fixed) from the column side's window norms
/// norm_b[j] = sqrt(ssq_b[j]), which the caller roots once per series;
/// norms under kFlatStdEpsilon follow the flat conventions (both -> 0,
/// one -> 1).
void StompRowDistancesCosine(const double* qt, const double* norm_b,
                             size_t count, size_t window, double ssq_a,
                             double* out);

/// The row side of StompRowMins: a running minimum and the column index
/// where it was first reached. Indices travel as doubles, exact below
/// 2^53; a negative index is the caller's "none".
struct RowMin {
  double value;
  double index;
};

/// One STOMP row's two-sided min scan (matrix_profile RowSweep), where
/// dist[k] is the row kernel's value (a distance, or its square for the
/// rooted metrics) of row `row` against column first_j + k:
///   for k in [0, count): d = dist[k];
///     if (d < best.value) best = {d, first_j + k};
///     if (d < col_val[k]) { col_val[k] = d; col_row[k] = row; }
/// and returns `best`, seeded with `init` (kept when nothing is smaller).
/// Strict < throughout, so NaN is never selected and equal values keep the
/// first column; a NaN in col_val is never replaced. Each lane keeps its
/// own strict-< minimum and first index, and the lanes fold by smallest
/// value, then lowest index, taking the value from the winning lane: the
/// same bits as the serial scan, including which of -0.0 / +0.0 wins.
RowMin StompRowMins(const double* dist, size_t count, double first_j,
                    double row, RowMin init, double* col_val,
                    double* col_row);

/// The QT update of one fused all-pairs row (StompRowFused*): with
/// `advance`, qt moves in place from the previous row to this one exactly
/// as QtRowAdvance(qt, count, b, window, a_head, a_tail) moves it, and
/// qt[0] becomes `seed` (the column-0 value QT(i, 0)); without it (a
/// sweep's first row) qt is read as it is and the other fields are unused.
struct QtStep {
  bool advance = false;
  const double* b = nullptr;
  double a_head = 0.0;
  double a_tail = 0.0;
  double seed = 0.0;
};

/// One fused all-pairs STOMP row, values only: QtRowAdvance (per `step`),
/// the metric's StompRowDistances* cell and StompRowMins' two-sided
/// strict-< minimum in one pass over the row, with no distance row written
/// and no neighbour index kept. Leaves qt advanced, folds every cell into
///   col_val[j] = (d_j < col_val[j]) ? d_j : col_val[j]
/// and returns the smallest cell (+inf when none is smaller), bitwise what
/// QtRowAdvance, qt[0] = seed, the StompRowDistances* kernel of the same
/// arguments and StompRowMins give. The four functions are one template,
/// one per metric's cell: z-normalised squares (mu/sig as in
/// StompRowDistances), raw distances and L2 squares from window energies,
/// and cosine distances from the column side's window norms. `b` must
/// extend to index count + window - 2 when step.advance is set.
double StompRowFusedZNorm(double* qt, size_t count, size_t window,
                          const QtStep& step, const double* mu_b,
                          const double* sig_b, double mu_a, double sig_a,
                          double* col_val);
double StompRowFusedRaw(double* qt, size_t count, size_t window,
                        const QtStep& step, const double* ssq_b, double ssq_a,
                        double* col_val);
double StompRowFusedL2(double* qt, size_t count, size_t window,
                       const QtStep& step, const double* ssq_b, double ssq_a,
                       double* col_val);
double StompRowFusedCosine(double* qt, size_t count, size_t window,
                           const QtStep& step, const double* norm_b,
                           double ssq_a, double* col_val);

/// The min tail a SlidingMinGroup query folds its dot products into: the
/// cell of ZNormMinFromDots (non-flat and flat query), RawMinFromDots,
/// L2MinFromDots or CosineMinFromDots (non-flat and flat query, a query
/// norm sqrt(qq) under kFlatStdEpsilon being flat).
enum class MinTail : uint8_t {
  kZNorm,
  kZNormFlat,
  kRaw,
  kL2,
  kCosine,
  kCosineFlat,
};

/// Queries per SlidingMinGroup call, on every backend.
inline constexpr size_t kGroupSize = 4;

/// The minima of kGroupSize queries of one length m (1 <= m <= n) slid
/// along one series s of length n, in one pass: out[g] is bitwise
///   SlidingDots(q[g], m, s, n, dots) followed by the tail's *MinFromDots
/// on those dots -- ZNormMinFromDots(dots, stds, count, m, flat) for the
/// z-normalised tails (q[g] the z-normalised query), and RawMinFromDots,
/// L2MinFromDots or CosineMinFromDots(qq[g], sqp, m, dots, count) for the
/// others -- with no dots buffer and no second pass. Each dot product keeps
/// its increasing-j mul-then-add chain, and a minimum is an exact
/// selection over cells that are never NaN, so neither the blocking, nor
/// the overlapping last block, nor the order the cells fold in changes a
/// bit. stds (the rolling stds of window m) is read by the z-normalised
/// tails only, qq (one per query) and sqp (the series' n + 1 prefix sums of
/// squares) by the others. The dot products are the naive ones: a caller
/// whose per-query path takes FFT dot products for some length
/// (UsesFftDots) keeps that path for it, since those round differently.
void SlidingMinGroup(MinTail tail, const double* const* q, const double* qq,
                     size_t m, const double* s, size_t n, const double* stds,
                     const double* sqp, double* out);

/// Sum of squared differences, kept as ONE scalar accumulation chain for
/// every backend: the value is a single dependent reduction, and the
/// identity rule forbids splitting it into lane partials (that would
/// reassociate the additions). Routed through this layer so the contract is
/// stated in one place rather than silently diverging per call site.
double SquaredEuclideanChained(const double* a, const double* b, size_t n);

// Scalar reference instantiations of the same kernels (width 1), compiled
// unconditionally. With the scalar backend active the dispatched kernels
// above are these exact functions.
namespace scalar {
void SlidingDots(const double* q, size_t m, const double* s, size_t n,
                 double* out);
void RawProfileFromDots(double qq, const double* sqp, size_t window,
                        const double* dots, size_t count, double* out);
double RawMinFromDots(double qq, const double* sqp, size_t window,
                      const double* dots, size_t count);
void ZNormProfileFromDots(const double* dots, const double* stds, size_t count,
                          size_t window, bool query_flat, double* out);
double ZNormMinFromDots(const double* dots, const double* stds, size_t count,
                        size_t window, bool query_flat);
void L2ProfileFromDots(double qq, const double* sqp, size_t window,
                       const double* dots, size_t count, double* out);
double L2MinFromDots(double qq, const double* sqp, size_t window,
                     const double* dots, size_t count);
void CosineProfileFromDots(double qq, const double* sqp, size_t window,
                           const double* dots, size_t count, double* out);
double CosineMinFromDots(double qq, const double* sqp, size_t window,
                         const double* dots, size_t count);
void RollingMomentsFromPrefix(const double* sum, const double* sq,
                              size_t count, size_t window, double grand_mean,
                              double* means, double* stds);
void QtRowAdvance(double* qt, size_t count, const double* b, size_t window,
                  double a_head, double a_tail);
void StompRowDistances(const double* qt, const double* mu_b,
                       const double* sig_b, size_t count, size_t window,
                       double mu_a, double sig_a, double* out);
void StompRowDistancesRaw(const double* qt, const double* ssq_b, size_t count,
                          size_t window, double ssq_a, double* out);
void StompRowDistancesL2(const double* qt, const double* ssq_b, size_t count,
                         size_t window, double ssq_a, double* out);
void StompRowDistancesCosine(const double* qt, const double* norm_b,
                             size_t count, size_t window, double ssq_a,
                             double* out);
RowMin StompRowMins(const double* dist, size_t count, double first_j,
                    double row, RowMin init, double* col_val,
                    double* col_row);
double StompRowFusedZNorm(double* qt, size_t count, size_t window,
                          const QtStep& step, const double* mu_b,
                          const double* sig_b, double mu_a, double sig_a,
                          double* col_val);
double StompRowFusedRaw(double* qt, size_t count, size_t window,
                        const QtStep& step, const double* ssq_b, double ssq_a,
                        double* col_val);
double StompRowFusedL2(double* qt, size_t count, size_t window,
                       const QtStep& step, const double* ssq_b, double ssq_a,
                       double* col_val);
double StompRowFusedCosine(double* qt, size_t count, size_t window,
                           const QtStep& step, const double* norm_b,
                           double ssq_a, double* col_val);
void SlidingMinGroup(MinTail tail, const double* const* q, const double* qq,
                     size_t m, const double* s, size_t n, const double* stds,
                     const double* sqp, double* out);
double SquaredEuclideanChained(const double* a, const double* b, size_t n);
}  // namespace scalar

}  // namespace simd
}  // namespace ips

#endif  // IPS_CORE_SIMD_H_
