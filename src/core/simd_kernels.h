// Shared kernel templates of the SIMD layer (core/simd.h) and the table
// each backend exports. Private to src/core: only the backend translation
// units include it (simd.cc for the scalar reference, simd_sse2.cc,
// simd_avx2.cc, simd_avx512.cc, simd_neon.cc).
//
// Everything a backend unit instantiates from this header lives in an
// anonymous namespace, so each unit keeps its own copy. That matters for
// simd_avx2.cc and simd_avx512.cc, the units compiled with -mavx2 and
// -mavx512f: were their instantiations ordinary inline or template
// symbols, the linker would keep one copy per name across units, and if it
// kept an AVX2 or AVX-512 one, a CPU without that extension would fault on
// a narrower path. For the same reason the kernels spell out Max/Min
// instead of calling std::max/std::min (template instances an unoptimised
// build emits out of line). The simd_avx2_symbols and simd_avx512_symbols
// tests fail if either object defines any weak or unique symbol.

#ifndef IPS_CORE_SIMD_KERNELS_H_
#define IPS_CORE_SIMD_KERNELS_H_

#include <cmath>
#include <cstddef>

#include <limits>
#include <utility>

#include "core/simd.h"
#include "core/znorm.h"

namespace ips {
namespace simd {

/// One backend's kernels, each with the signature of the dispatched
/// function of the same name in simd.h.
struct KernelTable {
  Backend backend;
  const char* name;
  size_t width;
  void (*sliding_dots)(const double* q, size_t m, const double* s, size_t n,
                       double* out);
  void (*raw_profile)(double qq, const double* sqp, size_t window,
                      const double* dots, size_t count, double* out);
  double (*raw_min)(double qq, const double* sqp, size_t window,
                    const double* dots, size_t count);
  void (*znorm_profile)(const double* dots, const double* stds, size_t count,
                        size_t window, bool query_flat, double* out);
  double (*znorm_min)(const double* dots, const double* stds, size_t count,
                      size_t window, bool query_flat);
  void (*l2_profile)(double qq, const double* sqp, size_t window,
                     const double* dots, size_t count, double* out);
  double (*l2_min)(double qq, const double* sqp, size_t window,
                   const double* dots, size_t count);
  void (*cosine_profile)(double qq, const double* sqp, size_t window,
                         const double* dots, size_t count, double* out);
  double (*cosine_min)(double qq, const double* sqp, size_t window,
                       const double* dots, size_t count);
  void (*rolling_moments)(const double* sum, const double* sq, size_t count,
                          size_t window, double grand_mean, double* means,
                          double* stds);
  void (*qt_row_advance)(double* qt, size_t count, const double* b,
                         size_t window, double a_head, double a_tail);
  void (*stomp_row_znorm)(const double* qt, const double* mu_b,
                          const double* sig_b, size_t count, size_t window,
                          double mu_a, double sig_a, double* out);
  void (*stomp_row_raw)(const double* qt, const double* ssq_b, size_t count,
                        size_t window, double ssq_a, double* out);
  void (*stomp_row_l2)(const double* qt, const double* ssq_b, size_t count,
                       size_t window, double ssq_a, double* out);
  void (*stomp_row_cosine)(const double* qt, const double* norm_b,
                           size_t count, size_t window, double ssq_a,
                           double* out);
  RowMin (*stomp_row_mins)(const double* dist, size_t count, double first_j,
                           double row, RowMin init, double* col_val,
                           double* col_row);
  double (*stomp_row_fused_znorm)(double* qt, size_t count, size_t window,
                                  const QtStep& step, const double* mu_b,
                                  const double* sig_b, double mu_a,
                                  double sig_a, double* col_val);
  double (*stomp_row_fused_raw)(double* qt, size_t count, size_t window,
                                const QtStep& step, const double* ssq_b,
                                double ssq_a, double* col_val);
  double (*stomp_row_fused_l2)(double* qt, size_t count, size_t window,
                               const QtStep& step, const double* ssq_b,
                               double ssq_a, double* col_val);
  double (*stomp_row_fused_cosine)(double* qt, size_t count, size_t window,
                                   const QtStep& step, const double* norm_b,
                                   double ssq_a, double* col_val);
  void (*sliding_min_group)(MinTail tail, const double* const* q,
                            const double* qq, size_t m, const double* s,
                            size_t n, const double* stds, const double* sqp,
                            double* out);
};

// The tables the backend units export. Each is defined only where its unit
// targets the architecture; simd.cc refers to the ones that exist.
extern const KernelTable kScalarKernels;
extern const KernelTable kSse2Kernels;
extern const KernelTable kAvx2Kernels;
extern const KernelTable kAvx512Kernels;
extern const KernelTable kNeonKernels;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// std::max / std::min on doubles, selection for selection.
inline double Max(double a, double b) { return a < b ? b : a; }
inline double Min(double a, double b) { return b < a ? b : a; }

// ---------------------------------------------------------------- backends
//
// Each backend exposes the same static interface; the kernels below are
// templates over it. Semantics every backend must honour so lanes match the
// scalar code bit-for-bit:
//  * Add/Sub/Mul/Div/Sqrt: one correctly-rounded IEEE-754 operation per
//    lane -- exactly what the scalar expression performs. No FMA.
//  * Min(a, b) / Max(a, b): the selections b < a ? b : a and a < b ? b : a
//    (std::min / std::max, the scalar Min / Max above) on every input, NaN
//    and signed zeros included, so a vector lane and the scalar tail agree
//    on every cell.
//  * CmpLt + Select(mask, a, b): lane-wise `cmp ? a : b` with a full-width
//    lane mask (a __mmask8 bit per lane on AVX-512), a pure bit-select (no
//    arithmetic).
// Vector backends (Sse2Ops, Avx2Ops, Avx512Ops, NeonOps) live in their own
// units.

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
  static Vec Min(Vec a, Vec b) { return simd::Min(a, b); }
  static Vec Max(Vec a, Vec b) { return simd::Max(a, b); }
  static Mask CmpLt(Vec a, Vec b) { return a < b; }
  static Vec Select(Mask m, Vec a, Vec b) { return m ? a : b; }
  static double ReduceMin(Vec a) { return a; }
};

// ----------------------------------------------------------------- kernels
//
// Every template keeps the remainder loop identical to the historic scalar
// code; the vector block performs the same operation sequence per lane.
// With Ops = ScalarOps the vector block compiles away (kWidth == 1 never
// enters it), leaving exactly the pre-SIMD loops.

// The vector path is register-blocked: four independent accumulators cover
// adjacent alignment blocks and share each broadcast q[j], so the adds of
// different blocks overlap instead of waiting on one dependent chain.
// SlidingDotsBlockT computes the 4 * W outputs out[0 .. 4W) from s.
template <typename Ops>
void SlidingDotsBlockT(const double* q, size_t m, const double* s,
                       double* out) {
  constexpr size_t W = Ops::kWidth;
  auto a0 = Ops::Set(0.0);
  auto a1 = a0;
  auto a2 = a0;
  auto a3 = a0;
  for (size_t j = 0; j < m; ++j) {
    const auto qj = Ops::Set(q[j]);
    a0 = Ops::Add(a0, Ops::Mul(qj, Ops::Load(s + j)));
    a1 = Ops::Add(a1, Ops::Mul(qj, Ops::Load(s + j + W)));
    a2 = Ops::Add(a2, Ops::Mul(qj, Ops::Load(s + j + 2 * W)));
    a3 = Ops::Add(a3, Ops::Mul(qj, Ops::Load(s + j + 3 * W)));
  }
  Ops::Store(out, a0);
  Ops::Store(out + W, a1);
  Ops::Store(out + 2 * W, a2);
  Ops::Store(out + 3 * W, a3);
}

// Every output accumulates its own increasing-j chain, so the blocking
// changes throughput, never a bit of the result. When at least one block
// fits, the leftovers are finished by one more block ending at `count`: it
// overlaps outputs already written and rewrites them with the same chain,
// hence the same bits, instead of running latency-bound one-vector and
// scalar loops. Shorter counts take the one-vector loop, then the scalar
// loop.
template <typename Ops>
void SlidingDotsT(const double* q, size_t m, const double* s, size_t n,
                  double* out) {
  const size_t count = n - m + 1;
  constexpr size_t W = Ops::kWidth;
  size_t i = 0;
  if constexpr (W > 1) {
    constexpr size_t kBlock = 4 * W;
    if (count >= kBlock) {
      for (; i + kBlock <= count; i += kBlock) {
        SlidingDotsBlockT<Ops>(q, m, s + i, out + i);
      }
      if (i < count) {
        SlidingDotsBlockT<Ops>(q, m, s + count - kBlock, out + count - kBlock);
      }
      return;
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

// ------------------------------------------------------------- dots cells
//
// The per-entry arithmetic of each metric's distance-profile tail, defined
// once and shared by the kernels over a dots buffer (ProfileFromDotsT,
// MinFromDotsT) and by the grouped transform kernel (SlidingMinGroupT),
// which evaluates it on dot products still in registers. Vec(dots, i)
// evaluates entries i .. i + W from their dot products, Scalar(dot, i)
// entry i; both perform the same operation sequence, and with Min/Max the
// scalar selections on every backend the two agree on every input. The
// cell is what a minimum selects over: a z-normalised or L2 square, the raw
// numerator, or the cosine distance. Finish maps a cell to its distance (a
// root, a division or nothing) and FinishVec does so per lane; each is
// monotone non-decreasing, so the distance of the smallest cell is the
// smallest distance, and rooting or dividing once per minimum gives the
// bits of the profile's smallest entry. No cell is NaN, and only a raw
// numerator can be -0.0, which its Finish maps to +0 like +0 itself, so
// neither the order cells are folded in nor folding one twice can change
// a minimum.

// Squared z-normalised distances of a non-flat query: 2m - 2 dots / std,
// clamped at 0, and m against a flat window.
template <typename Ops>
struct ZNormDotsCell {
  using V = typename Ops::Vec;
  const double* stds;
  double md;
  V eps = Ops::Set(kFlatStdEpsilon), zero = Ops::Set(0.0), two = Ops::Set(2.0),
    twomd = Ops::Set(2.0 * md), mdv = Ops::Set(md);
  V Vec(V dots, size_t i) const {
    const V sig = Ops::Load(stds + i);
    const V d2 =
        Ops::Max(zero, Ops::Sub(twomd, Ops::Div(Ops::Mul(two, dots), sig)));
    return Ops::Select(Ops::CmpLt(sig, eps), mdv, d2);
  }
  double Scalar(double dot, size_t i) const {
    const double sig = stds[i];
    return sig < kFlatStdEpsilon ? md : Max(0.0, 2.0 * md - 2.0 * dot / sig);
  }
  V FinishVec(V c) const { return Ops::Sqrt(c); }
  double Finish(double c) const { return std::sqrt(c); }
};

// A flat z-normalised query: 0 against a flat window, m otherwise.
template <typename Ops>
struct ZNormFlatDotsCell {
  using V = typename Ops::Vec;
  const double* stds;
  double md;
  V eps = Ops::Set(kFlatStdEpsilon), zero = Ops::Set(0.0), mdv = Ops::Set(md);
  V Vec(V /*dots*/, size_t i) const {
    return Ops::Select(Ops::CmpLt(Ops::Load(stds + i), eps), zero, mdv);
  }
  double Scalar(double /*dot*/, size_t i) const {
    return stds[i] < kFlatStdEpsilon ? 0.0 : md;
  }
  V FinishVec(V c) const { return Ops::Sqrt(c); }
  double Finish(double c) const { return std::sqrt(c); }
};

// Raw (Def. 4) numerators qq - 2 dots + window energy; the distance is
// Max(0, numerator / m). A NaN numerator's distance is Max(0, NaN) = +0,
// which is also -inf's, so each numerator enters as Max(-inf, x): NaN
// becomes -inf and every other value stays.
template <typename Ops>
struct RawDotsCell {
  using V = typename Ops::Vec;
  double qq;
  const double* sqp;
  size_t window;
  double md = static_cast<double>(window);
  V qqv = Ops::Set(qq), two = Ops::Set(2.0), ninf = Ops::Set(-kInf),
    zero = Ops::Set(0.0), mdv = Ops::Set(md);
  V Vec(V dots, size_t i) const {
    const V wsq = Ops::Sub(Ops::Load(sqp + i + window), Ops::Load(sqp + i));
    return Ops::Max(ninf, Ops::Add(Ops::Sub(qqv, Ops::Mul(two, dots)), wsq));
  }
  double Scalar(double dot, size_t i) const {
    const double window_sq = sqp[i + window] - sqp[i];
    return Max(-kInf, qq - 2.0 * dot + window_sq);
  }
  V FinishVec(V c) const { return Ops::Max(zero, Ops::Div(c, mdv)); }
  double Finish(double c) const { return Max(0.0, c / md); }
};

// Squared L2 distances qq - 2 dots + window energy, clamped at 0.
template <typename Ops>
struct L2DotsCell {
  using V = typename Ops::Vec;
  double qq;
  const double* sqp;
  size_t window;
  V qqv = Ops::Set(qq), two = Ops::Set(2.0), zero = Ops::Set(0.0);
  V Vec(V dots, size_t i) const {
    const V wsq = Ops::Sub(Ops::Load(sqp + i + window), Ops::Load(sqp + i));
    return Ops::Max(zero, Ops::Add(Ops::Sub(qqv, Ops::Mul(two, dots)), wsq));
  }
  double Scalar(double dot, size_t i) const {
    const double window_sq = sqp[i + window] - sqp[i];
    return Max(0.0, qq - 2.0 * dot + window_sq);
  }
  V FinishVec(V c) const { return Ops::Sqrt(c); }
  double Finish(double c) const { return std::sqrt(c); }
};

// NOTE on the cosine cells: the window energies are prefix differences of
// a non-decreasing prefix (each step adds a non-negative square under
// monotone rounding), so sqp[i+m] - sqp[i] >= 0 exactly and the Sqrt is
// always defined. Flat (near-zero-norm) lanes still evaluate the division
// in the vector form -- the quotient may be inf/nan but Select discards it
// bit-for-bit, the same convention ZNormDotsCell uses for flat stds.

// Cosine distances of a query of norm qn (not flat): 1 against a flat
// window, else Max(0, 1 - dots / (qn * wn)).
template <typename Ops>
struct CosineDotsCell {
  using V = typename Ops::Vec;
  double qn;
  const double* sqp;
  size_t window;
  V eps = Ops::Set(kFlatStdEpsilon), zero = Ops::Set(0.0), one = Ops::Set(1.0),
    qnv = Ops::Set(qn);
  V Vec(V dots, size_t i) const {
    const V wn =
        Ops::Sqrt(Ops::Sub(Ops::Load(sqp + i + window), Ops::Load(sqp + i)));
    const V sim = Ops::Div(dots, Ops::Mul(qnv, wn));
    return Ops::Select(Ops::CmpLt(wn, eps), one,
                       Ops::Max(zero, Ops::Sub(one, sim)));
  }
  double Scalar(double dot, size_t i) const {
    const double wn = std::sqrt(sqp[i + window] - sqp[i]);
    if (wn < kFlatStdEpsilon) return 1.0;
    return Max(0.0, 1.0 - dot / (qn * wn));
  }
  V FinishVec(V c) const { return c; }
  double Finish(double c) const { return c; }
};

// A flat cosine query: 0 against a flat window, 1 otherwise.
template <typename Ops>
struct CosineFlatDotsCell {
  using V = typename Ops::Vec;
  const double* sqp;
  size_t window;
  V eps = Ops::Set(kFlatStdEpsilon), zero = Ops::Set(0.0), one = Ops::Set(1.0);
  V Vec(V /*dots*/, size_t i) const {
    const V wn =
        Ops::Sqrt(Ops::Sub(Ops::Load(sqp + i + window), Ops::Load(sqp + i)));
    return Ops::Select(Ops::CmpLt(wn, eps), zero, one);
  }
  double Scalar(double /*dot*/, size_t i) const {
    return std::sqrt(sqp[i + window] - sqp[i]) < kFlatStdEpsilon ? 0.0 : 1.0;
  }
  V FinishVec(V c) const { return c; }
  double Finish(double c) const { return c; }
};

// out[i] = the distance of entry i: whole vectors, then the scalar tail.
template <typename Ops, typename Cell>
void ProfileFromDotsT(const Cell& cell, const double* dots, size_t count,
                      double* out) {
  constexpr size_t W = Ops::kWidth;
  size_t i = 0;
  if constexpr (W > 1) {
    for (; i + W <= count; i += W) {
      Ops::Store(out + i, cell.FinishVec(cell.Vec(Ops::Load(dots + i), i)));
    }
  }
  for (; i < count; ++i) out[i] = cell.Finish(cell.Scalar(dots[i], i));
}

// The smallest entry's distance without materialising the profile: a
// lane-wise minimum over the cells, folded horizontally, then the scalar
// tail, finished once.
template <typename Ops, typename Cell>
double MinFromDotsT(const Cell& cell, const double* dots, size_t count) {
  constexpr size_t W = Ops::kWidth;
  double best = kInf;
  size_t i = 0;
  if constexpr (W > 1) {
    auto acc = Ops::Set(kInf);
    for (; i + W <= count; i += W) {
      acc = Ops::Min(acc, cell.Vec(Ops::Load(dots + i), i));
    }
    best = Ops::ReduceMin(acc);
  }
  for (; i < count; ++i) best = Min(best, cell.Scalar(dots[i], i));
  return cell.Finish(best);
}

template <typename Ops>
void RawProfileT(double qq, const double* sqp, size_t window,
                 const double* dots, size_t count, double* out) {
  ProfileFromDotsT<Ops>(RawDotsCell<Ops>{qq, sqp, window}, dots, count, out);
}

template <typename Ops>
double RawMinT(double qq, const double* sqp, size_t window, const double* dots,
               size_t count) {
  return MinFromDotsT<Ops>(RawDotsCell<Ops>{qq, sqp, window}, dots, count);
}

template <typename Ops>
void ZNormProfileT(const double* dots, const double* stds, size_t count,
                   size_t window, bool query_flat, double* out) {
  const double md = static_cast<double>(window);
  if (query_flat) {
    ProfileFromDotsT<Ops>(ZNormFlatDotsCell<Ops>{stds, md}, dots, count, out);
  } else {
    ProfileFromDotsT<Ops>(ZNormDotsCell<Ops>{stds, md}, dots, count, out);
  }
}

template <typename Ops>
double ZNormMinT(const double* dots, const double* stds, size_t count,
                 size_t window, bool query_flat) {
  const double md = static_cast<double>(window);
  if (query_flat) {
    return MinFromDotsT<Ops>(ZNormFlatDotsCell<Ops>{stds, md}, dots, count);
  }
  return MinFromDotsT<Ops>(ZNormDotsCell<Ops>{stds, md}, dots, count);
}

template <typename Ops>
void L2ProfileT(double qq, const double* sqp, size_t window,
                const double* dots, size_t count, double* out) {
  ProfileFromDotsT<Ops>(L2DotsCell<Ops>{qq, sqp, window}, dots, count, out);
}

template <typename Ops>
double L2MinT(double qq, const double* sqp, size_t window, const double* dots,
              size_t count) {
  return MinFromDotsT<Ops>(L2DotsCell<Ops>{qq, sqp, window}, dots, count);
}

template <typename Ops>
void CosineProfileT(double qq, const double* sqp, size_t window,
                    const double* dots, size_t count, double* out) {
  const double qn = std::sqrt(qq);
  if (qn < kFlatStdEpsilon) {
    ProfileFromDotsT<Ops>(CosineFlatDotsCell<Ops>{sqp, window}, dots, count,
                          out);
  } else {
    ProfileFromDotsT<Ops>(CosineDotsCell<Ops>{qn, sqp, window}, dots, count,
                          out);
  }
}

template <typename Ops>
double CosineMinT(double qq, const double* sqp, size_t window,
                  const double* dots, size_t count) {
  const double qn = std::sqrt(qq);
  if (qn < kFlatStdEpsilon) {
    return MinFromDotsT<Ops>(CosineFlatDotsCell<Ops>{sqp, window}, dots,
                             count);
  }
  return MinFromDotsT<Ops>(CosineDotsCell<Ops>{qn, sqp, window}, dots, count);
}

// ------------------------------------------------------- grouped minimum
//
// The transform row's kernel: G queries of one length m slid along one
// series in one pass, each answered with its cell's minimum, bitwise what
// SlidingDotsT and MinFromDotsT give query by query. A block covers B * W
// adjacent outputs for all G queries at once: G * B accumulators, each
// output's own increasing-j mul-then-add chain (SlidingDotsBlockT's), and
// every load of the series serves all G queries. The block's dot products
// go through each query's cell in registers and fold into that query's
// lane minima by strict < (CmpLt + Select, the current value kept); no
// dots buffer is written. When one block fits, the last block ends at the
// last output and overlaps outputs already folded, and shorter counts run
// one-vector blocks the same way: exact, since no cell is NaN and a
// minimum is a selection (see the dots cells). Counts below W run the
// scalar chains. The small loops over g and b are unrolled so the
// accumulators stay in registers at -O2.
template <typename Ops, size_t G, size_t B, typename Cell>
void SlidingMinGroupBlockT(const Cell* cells, const double* const* q,
                           size_t m, const double* s, size_t i,
                           typename Ops::Vec* best) {
  constexpr size_t W = Ops::kWidth;
  using V = typename Ops::Vec;
  V acc[G][B];
#pragma GCC unroll 16
  for (size_t g = 0; g < G; ++g) {
#pragma GCC unroll 16
    for (size_t b = 0; b < B; ++b) acc[g][b] = Ops::Set(0.0);
  }
  for (size_t j = 0; j < m; ++j) {
    V sv[B];
#pragma GCC unroll 16
    for (size_t b = 0; b < B; ++b) sv[b] = Ops::Load(s + i + j + b * W);
#pragma GCC unroll 16
    for (size_t g = 0; g < G; ++g) {
      const V qj = Ops::Set(q[g][j]);
#pragma GCC unroll 16
      for (size_t b = 0; b < B; ++b) {
        acc[g][b] = Ops::Add(acc[g][b], Ops::Mul(qj, sv[b]));
      }
    }
  }
#pragma GCC unroll 16
  for (size_t g = 0; g < G; ++g) {
#pragma GCC unroll 16
    for (size_t b = 0; b < B; ++b) {
      const V d = cells[g].Vec(acc[g][b], i + b * W);
      best[g] = Ops::Select(Ops::CmpLt(d, best[g]), d, best[g]);
    }
  }
}

// The G queries' cells are make(0) .. make(G - 1), one per index of the
// sequence.
template <typename Ops, size_t B, typename Make, size_t... k>
void SlidingMinGroupT(Make make, std::index_sequence<k...>,
                      const double* const* queries, size_t m, const double* s,
                      size_t n, double* out) {
  constexpr size_t W = Ops::kWidth;
  constexpr size_t G = sizeof...(k);
  const decltype(make(size_t{0})) cells[G] = {make(k)...};
  const double* const q[G] = {queries[k]...};
  const size_t count = n - m + 1;
  if (count >= W) {
    typename Ops::Vec best[G];
    for (size_t g = 0; g < G; ++g) best[g] = Ops::Set(kInf);
    constexpr size_t kBlock = B * W;
    if (count >= kBlock) {
      size_t i = 0;
      for (; i + kBlock <= count; i += kBlock) {
        SlidingMinGroupBlockT<Ops, G, B>(cells, q, m, s, i, best);
      }
      if (i < count) {
        SlidingMinGroupBlockT<Ops, G, B>(cells, q, m, s, count - kBlock, best);
      }
    } else {
      size_t i = 0;
      for (; i + W <= count; i += W) {
        SlidingMinGroupBlockT<Ops, G, 1>(cells, q, m, s, i, best);
      }
      if (i < count) {
        SlidingMinGroupBlockT<Ops, G, 1>(cells, q, m, s, count - W, best);
      }
    }
    for (size_t g = 0; g < G; ++g) {
      out[g] = cells[g].Finish(Ops::ReduceMin(best[g]));
    }
    return;
  }
  for (size_t g = 0; g < G; ++g) {
    double lo = kInf;
    for (size_t i = 0; i < count; ++i) {
      double acc = 0.0;
      for (size_t j = 0; j < m; ++j) acc += q[g][j] * s[i + j];
      const double d = cells[g].Scalar(acc, i);
      lo = d < lo ? d : lo;
    }
    out[g] = cells[g].Finish(lo);
  }
}

// Vectors per grouped block: kGroupSize * 4 accumulators fill half of
// AVX-512's 32 registers. AVX2, with 16, takes 2; with 4 its group ran
// 1.10x the per-query path instead of 1.19x (n = 256 series against
// m = 25 .. 128 queries). SSE2's 2-lane blocks need 4 to reach 1.0x.
template <typename Ops>
inline constexpr size_t kGroupVectors = Ops::kWidth == 4 ? 2 : 4;

// SlidingMinGroup: the tail's cells, kGroupSize of them, each query's from
// its qq (dot family) and the series' stds or prefix squares. Flattened, so
// each backend has one out-of-line function with every tail's loops in it.
template <typename Ops, size_t B>
[[gnu::flatten]] void SlidingMinGroupEntryT(MinTail tail, const double* const* q,
                           const double* qq, size_t m, const double* s,
                           size_t n, const double* stds, const double* sqp,
                           double* out) {
  const auto run = [&](auto make) {
    SlidingMinGroupT<Ops, B>(make, std::make_index_sequence<kGroupSize>(), q,
                             m, s, n, out);
  };
  const double md = static_cast<double>(m);
  switch (tail) {
    case MinTail::kZNorm:
      return run([&](size_t) { return ZNormDotsCell<Ops>{stds, md}; });
    case MinTail::kZNormFlat:
      return run([&](size_t) { return ZNormFlatDotsCell<Ops>{stds, md}; });
    case MinTail::kRaw:
      return run([&](size_t g) { return RawDotsCell<Ops>{qq[g], sqp, m}; });
    case MinTail::kL2:
      return run([&](size_t g) { return L2DotsCell<Ops>{qq[g], sqp, m}; });
    case MinTail::kCosine:
      return run([&](size_t g) {
        return CosineDotsCell<Ops>{std::sqrt(qq[g]), sqp, m};
      });
    case MinTail::kCosineFlat:
      return run([&](size_t) { return CosineFlatDotsCell<Ops>{sqp, m}; });
  }
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
    const double var = Max(0.0, s2 / wd - mean_c * mean_c);
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

// ------------------------------------------------------------- STOMP cells
//
// The per-cell arithmetic of each metric's STOMP row, defined once and
// shared by the row kernels (StompRowApplyT writes it out) and the fused
// all-pairs row (StompRowFusedT folds it into minima in registers).
// Vec(qt, j) evaluates cells j .. j + W from their QT values, Scalar(qt, j)
// cell j; both perform the per-cell helper's operation sequence
// (stomp_common.h), and with Min/Max the scalar selections on every backend
// the two agree on every input, so a cell's value never depends on which of
// them evaluates it. Every cell is a constant or Max(+0, x), never -0.0.
// The flat-row cells (the row window is flat) ignore QT.

// Squared z-normalised distances (StompZNormSquared with the row side's
// mu_a / sig_a fixed and not flat); the engine roots each profile entry once
// the sweep's minima are final.
template <typename Ops>
struct ZNormCell {
  using V = typename Ops::Vec;
  const double* mu_b;
  const double* sig_b;
  double m, mu_a, sig_a;
  V eps = Ops::Set(kFlatStdEpsilon), zero = Ops::Set(0.0), one = Ops::Set(1.0),
    mv = Ops::Set(m), twom = Ops::Set(2.0 * m), mua = Ops::Set(mu_a),
    siga = Ops::Set(sig_a);
  V Vec(V qt, size_t j) const {
    const V sigb = Ops::Load(sig_b + j);
    const auto flat_b = Ops::CmpLt(sigb, eps);
    const V num =
        Ops::Sub(qt, Ops::Mul(mv, Ops::Mul(mua, Ops::Load(mu_b + j))));
    const V den = Ops::Mul(mv, Ops::Mul(siga, sigb));
    const V corr = Ops::Div(num, den);
    const V d2 = Ops::Max(zero, Ops::Mul(twom, Ops::Sub(one, corr)));
    return Ops::Select(flat_b, mv, d2);
  }
  double Scalar(double qt, size_t j) const {
    if (sig_b[j] < kFlatStdEpsilon) return m;
    const double corr = (qt - m * (mu_a * mu_b[j])) / (m * (sig_a * sig_b[j]));
    return Max(0.0, 2.0 * m * (1.0 - corr));
  }
};

// A flat z-normalised row window: 0 against a flat column, m otherwise.
template <typename Ops>
struct ZNormFlatCell {
  using V = typename Ops::Vec;
  const double* sig_b;
  double m;
  V eps = Ops::Set(kFlatStdEpsilon), zero = Ops::Set(0.0), mv = Ops::Set(m);
  V Vec(V /*qt*/, size_t j) const {
    return Ops::Select(Ops::CmpLt(Ops::Load(sig_b + j), eps), zero, mv);
  }
  double Scalar(double /*qt*/, size_t j) const {
    return sig_b[j] < kFlatStdEpsilon ? 0.0 : m;
  }
};

// Raw (Def. 4) distances from window energies (StompRawDistance); the
// (ssq_a + ssq_b) grouping makes the value bitwise symmetric under
// exchanging sides.
template <typename Ops>
struct RawCell {
  using V = typename Ops::Vec;
  const double* ssq_b;
  double m, ssq_a;
  V zero = Ops::Set(0.0), two = Ops::Set(2.0), mv = Ops::Set(m),
    sa = Ops::Set(ssq_a);
  V Vec(V qt, size_t j) const {
    const V num =
        Ops::Sub(Ops::Add(sa, Ops::Load(ssq_b + j)), Ops::Mul(two, qt));
    return Ops::Max(zero, Ops::Div(num, mv));
  }
  double Scalar(double qt, size_t j) const {
    return Max(0.0, ((ssq_a + ssq_b[j]) - 2.0 * qt) / m);
  }
};

// Squared L2 distances (StompL2Squared), rooted once per profile entry like
// the z-normalised ones.
template <typename Ops>
struct L2Cell {
  using V = typename Ops::Vec;
  const double* ssq_b;
  double ssq_a;
  V zero = Ops::Set(0.0), two = Ops::Set(2.0), sa = Ops::Set(ssq_a);
  V Vec(V qt, size_t j) const {
    return Ops::Max(
        zero, Ops::Sub(Ops::Add(sa, Ops::Load(ssq_b + j)), Ops::Mul(two, qt)));
  }
  double Scalar(double qt, size_t j) const {
    return Max(0.0, (ssq_a + ssq_b[j]) - 2.0 * qt);
  }
};

// Cosine distances (StompCosineDistance with the row side's norm na fixed
// and not flat). The column side arrives as window norms, which the engine
// roots once per series: the same sqrt of the same double, so the cell is
// bitwise what rooting its energy gave. A flat column still evaluates the
// division -- the quotient may be inf/nan, but Select discards it.
template <typename Ops>
struct CosineCell {
  using V = typename Ops::Vec;
  const double* norm_b;
  double na;
  V eps = Ops::Set(kFlatStdEpsilon), zero = Ops::Set(0.0), one = Ops::Set(1.0),
    nav = Ops::Set(na);
  V Vec(V qt, size_t j) const {
    const V nb = Ops::Load(norm_b + j);
    const auto flat = Ops::CmpLt(nb, eps);
    const V sim = Ops::Div(qt, Ops::Mul(nav, nb));
    return Ops::Select(flat, one, Ops::Max(zero, Ops::Sub(one, sim)));
  }
  double Scalar(double qt, size_t j) const {
    const double nb = norm_b[j];
    if (nb < kFlatStdEpsilon) return 1.0;
    return Max(0.0, 1.0 - qt / (na * nb));
  }
};

// A flat cosine row window: 0 against a flat column, 1 otherwise.
template <typename Ops>
struct CosineFlatCell {
  using V = typename Ops::Vec;
  const double* norm_b;
  V eps = Ops::Set(kFlatStdEpsilon), zero = Ops::Set(0.0), one = Ops::Set(1.0);
  V Vec(V /*qt*/, size_t j) const {
    return Ops::Select(Ops::CmpLt(Ops::Load(norm_b + j), eps), zero, one);
  }
  double Scalar(double /*qt*/, size_t j) const {
    return norm_b[j] < kFlatStdEpsilon ? 0.0 : 1.0;
  }
};

// out[j] = the cell's value of qt[j], left to right: whole vectors, then
// the scalar tail.
template <typename Ops, typename Cell>
void StompRowApplyT(const Cell& cell, const double* qt, size_t count,
                    double* out) {
  constexpr size_t W = Ops::kWidth;
  size_t j = 0;
  if constexpr (W > 1) {
    for (; j + W <= count; j += W) {
      Ops::Store(out + j, cell.Vec(Ops::Load(qt + j), j));
    }
  }
  for (; j < count; ++j) out[j] = cell.Scalar(qt[j], j);
}

template <typename Ops>
void StompRowDistancesT(const double* qt, const double* mu_b,
                        const double* sig_b, size_t count, size_t window,
                        double mu_a, double sig_a, double* out) {
  const double m = static_cast<double>(window);
  if (sig_a < kFlatStdEpsilon) {
    StompRowApplyT<Ops>(ZNormFlatCell<Ops>{sig_b, m}, qt, count, out);
  } else {
    StompRowApplyT<Ops>(ZNormCell<Ops>{mu_b, sig_b, m, mu_a, sig_a}, qt,
                        count, out);
  }
}

template <typename Ops>
void StompRowRawT(const double* qt, const double* ssq_b, size_t count,
                  size_t window, double ssq_a, double* out) {
  StompRowApplyT<Ops>(
      RawCell<Ops>{ssq_b, static_cast<double>(window), ssq_a}, qt, count, out);
}

template <typename Ops>
void StompRowL2T(const double* qt, const double* ssq_b, size_t count,
                 size_t /*window*/, double ssq_a, double* out) {
  StompRowApplyT<Ops>(L2Cell<Ops>{ssq_b, ssq_a}, qt, count, out);
}

template <typename Ops>
void StompRowCosineT(const double* qt, const double* norm_b, size_t count,
                     size_t /*window*/, double ssq_a, double* out) {
  const double na = std::sqrt(ssq_a);
  if (na < kFlatStdEpsilon) {
    StompRowApplyT<Ops>(CosineFlatCell<Ops>{norm_b}, qt, count, out);
  } else {
    StompRowApplyT<Ops>(CosineCell<Ops>{norm_b, na}, qt, count, out);
  }
}

// One fused all-pairs row: the QT advance, the cell and the two-sided
// minimum in one right-to-left pass, values only. Each vector block
// [jb, jb + W) loads the old qt[jb - 1 ..] before it stores its new values
// (QtRowAdvanceT's order, so the QT row is bitwise the same), evaluates its
// cells from the new values in registers and folds them into col_val and
// a lane-wise row minimum. The cells left of the last whole block are
// advanced by the scalar loop, qt[0] takes the seed, and one last block at
// offset 0 evaluates [0, W), overlapping cells already folded. That is
// exact: a values-only minimum is a selection, so neither the visiting
// order nor folding a cell twice can change it. Both folds are strict-<
// selects (CmpLt + Select, the current value kept), StompRowMinsT's rule:
// a NaN is never taken and a NaN in col_val is never replaced -- Ops::Min
// would not do (x86 minpd returns its second operand on a NaN). Rows
// shorter than W run the scalar loops.
template <typename Ops, typename Cell>
double StompRowFusedT(const Cell& cell, double* qt, size_t count,
                      size_t window, const QtStep& step, double* col_val) {
  constexpr size_t W = Ops::kWidth;
  const double* const b = step.b;
  if constexpr (W > 1) {
    if (count >= W) {
      auto row_min = Ops::Set(kInf);
      const auto fold = [&](size_t jb, typename Ops::Vec d) {
        row_min = Ops::Select(Ops::CmpLt(d, row_min), d, row_min);
        const auto cv = Ops::Load(col_val + jb);
        Ops::Store(col_val + jb, Ops::Select(Ops::CmpLt(d, cv), d, cv));
      };
      size_t j = count;  // exclusive upper bound of the unvisited cells
      if (step.advance) {
        const auto ah = Ops::Set(step.a_head);
        const auto at = Ops::Set(step.a_tail);
        while (j >= 1 + W) {
          const size_t jb = j - W;  // block [jb, jb + W), jb >= 1
          const auto prev = Ops::Load(qt + jb - 1);
          const auto drop = Ops::Mul(ah, Ops::Load(b + jb - 1));
          const auto add = Ops::Mul(at, Ops::Load(b + jb + window - 1));
          const auto q = Ops::Add(Ops::Sub(prev, drop), add);
          Ops::Store(qt + jb, q);
          fold(jb, cell.Vec(q, jb));
          j = jb;
        }
        for (size_t k = j; k-- > 1;) {
          qt[k] = qt[k - 1] - step.a_head * b[k - 1] +
                  step.a_tail * b[k + window - 1];
        }
        qt[0] = step.seed;
      } else {
        for (; j >= W; j -= W) {
          fold(j - W, cell.Vec(Ops::Load(qt + j - W), j - W));
        }
      }
      if (j > 0) fold(0, cell.Vec(Ops::Load(qt), 0));
      return Ops::ReduceMin(row_min);
    }
  }
  if (step.advance) {
    for (size_t k = count; k-- > 1;) {
      qt[k] = qt[k - 1] - step.a_head * b[k - 1] +
              step.a_tail * b[k + window - 1];
    }
    qt[0] = step.seed;
  }
  double best = kInf;
  for (size_t k = 0; k < count; ++k) {
    const double d = cell.Scalar(qt[k], k);
    if (d < best) best = d;
    if (d < col_val[k]) col_val[k] = d;
  }
  return best;
}

template <typename Ops>
double StompRowFusedZNormT(double* qt, size_t count, size_t window,
                           const QtStep& step, const double* mu_b,
                           const double* sig_b, double mu_a, double sig_a,
                           double* col_val) {
  const double m = static_cast<double>(window);
  if (sig_a < kFlatStdEpsilon) {
    return StompRowFusedT<Ops>(ZNormFlatCell<Ops>{sig_b, m}, qt, count,
                               window, step, col_val);
  }
  return StompRowFusedT<Ops>(ZNormCell<Ops>{mu_b, sig_b, m, mu_a, sig_a}, qt,
                             count, window, step, col_val);
}

template <typename Ops>
double StompRowFusedRawT(double* qt, size_t count, size_t window,
                         const QtStep& step, const double* ssq_b,
                         double ssq_a, double* col_val) {
  return StompRowFusedT<Ops>(
      RawCell<Ops>{ssq_b, static_cast<double>(window), ssq_a}, qt, count,
      window, step, col_val);
}

template <typename Ops>
double StompRowFusedL2T(double* qt, size_t count, size_t window,
                        const QtStep& step, const double* ssq_b, double ssq_a,
                        double* col_val) {
  return StompRowFusedT<Ops>(L2Cell<Ops>{ssq_b, ssq_a}, qt, count, window,
                             step, col_val);
}

template <typename Ops>
double StompRowFusedCosineT(double* qt, size_t count, size_t window,
                            const QtStep& step, const double* norm_b,
                            double ssq_a, double* col_val) {
  const double na = std::sqrt(ssq_a);
  if (na < kFlatStdEpsilon) {
    return StompRowFusedT<Ops>(CosineFlatCell<Ops>{norm_b}, qt, count, window,
                               step, col_val);
  }
  return StompRowFusedT<Ops>(CosineCell<Ops>{norm_b, na}, qt, count, window,
                             step, col_val);
}

// Branch-free on purpose: the vector block has no data-dependent branch
// and no per-lane write loop. (A version that skipped blocks with an empty
// mask and wrote indices bit by bit won in isolation and lost end to end:
// on real rows the masks are rarely empty and the branches mispredict.)
// Column side: a per-lane select of value and row, the serial update cell
// by cell. Row side: each lane keeps its own strict-< running minimum,
// seeded with init.value, and the first column where it fell (-1 while the
// lane has not gone below the seed). Lane l sees columns l, l + W, ... in
// increasing order, so that is the first occurrence within the lane. The
// fold takes the smallest improved value and, among equals, the lowest
// column -- the first occurrence overall, which is what the serial scan
// keeps -- with the value from that lane, so the sign of a zero matches.
// Improved lanes are strictly below the seed, so they never tie with it.
template <typename Ops>
RowMin StompRowMinsT(const double* dist, size_t count, double first_j,
                     double row, RowMin init, double* col_val,
                     double* col_row) {
  constexpr size_t W = Ops::kWidth;
  RowMin best = init;
  size_t k = 0;
  if constexpr (W > 1) {
    if (count >= W) {
      double lane[W];
      for (size_t l = 0; l < W; ++l) {
        lane[l] = first_j + static_cast<double>(l);
      }
      auto col = Ops::Load(lane);
      const auto step = Ops::Set(static_cast<double>(W));
      const auto rowv = Ops::Set(row);
      auto min_val = Ops::Set(init.value);
      auto min_col = Ops::Set(-1.0);
      for (; k + W <= count; k += W) {
        const auto d = Ops::Load(dist + k);
        const auto lower = Ops::CmpLt(d, min_val);
        min_val = Ops::Select(lower, d, min_val);
        min_col = Ops::Select(lower, col, min_col);
        const auto cv = Ops::Load(col_val + k);
        const auto take = Ops::CmpLt(d, cv);
        Ops::Store(col_val + k, Ops::Select(take, d, cv));
        Ops::Store(col_row + k,
                   Ops::Select(take, rowv, Ops::Load(col_row + k)));
        col = Ops::Add(col, step);
      }
      double vals[W];
      double cols[W];
      Ops::Store(vals, min_val);
      Ops::Store(cols, min_col);
      for (size_t l = 0; l < W; ++l) {
        if (cols[l] >= 0.0 &&
            (vals[l] < best.value ||
             (vals[l] == best.value && cols[l] < best.index))) {
          best = {vals[l], cols[l]};
        }
      }
    }
  }
  for (; k < count; ++k) {
    const double d = dist[k];
    if (d < best.value) {
      best = {d, first_j + static_cast<double>(k)};
    }
    if (d < col_val[k]) {
      col_val[k] = d;
      col_row[k] = row;
    }
  }
  return best;
}

// The table of one backend: every kernel instantiated with `Ops`.
template <typename Ops>
constexpr KernelTable MakeKernelTable(Backend backend, const char* name) {
  return KernelTable{backend,
                     name,
                     Ops::kWidth,
                     &SlidingDotsT<Ops>,
                     &RawProfileT<Ops>,
                     &RawMinT<Ops>,
                     &ZNormProfileT<Ops>,
                     &ZNormMinT<Ops>,
                     &L2ProfileT<Ops>,
                     &L2MinT<Ops>,
                     &CosineProfileT<Ops>,
                     &CosineMinT<Ops>,
                     &RollingMomentsT<Ops>,
                     &QtRowAdvanceT<Ops>,
                     &StompRowDistancesT<Ops>,
                     &StompRowRawT<Ops>,
                     &StompRowL2T<Ops>,
                     &StompRowCosineT<Ops>,
                     &StompRowMinsT<Ops>,
                     &StompRowFusedZNormT<Ops>,
                     &StompRowFusedRawT<Ops>,
                     &StompRowFusedL2T<Ops>,
                     &StompRowFusedCosineT<Ops>,
                     &SlidingMinGroupEntryT<Ops, kGroupVectors<Ops>>};
}

}  // namespace
}  // namespace simd
}  // namespace ips

#endif  // IPS_CORE_SIMD_KERNELS_H_
