// Batched matrix-profile engine.
//
// The instance-profile stage (paper Defs. 8-9, Alg. 1 line 5) is the
// dominant cost of IPS discovery: a sample of Q_S instances needs every
// ordered AB-join among its members, per candidate length, per sample. The
// free kernels in matrix_profile.h recompute rolling statistics and seed
// sliding-dot-products for every join and compute each unordered pair
// twice. The MatrixProfileEngine amortises all of that, the way the
// DistanceEngine (core/distance_engine.h) amortises the Def. 4 layer:
//
//  * one immutable, index-addressed ArtifactTable per batch: rolling stats
//    or window energies per series, forward FFTs and the row-0 / column-0
//    seed sliding-dot-products of every ordered pair, built in one parallel
//    pass and read by every sweep of the batch without locks;
//  * pair symmetry: one QT sweep over an unordered pair yields the row
//    minima (the a-side profile) AND the column minima (the b-side
//    profile), because QT values along a diagonal and the z-normalised
//    distance are both bitwise symmetric under exchanging the sides. This
//    halves the O(|sample|^2) join count of an all-pairs batch;
//  * diagonal sharding: a sweep's diagonals are split into cell-balanced
//    chunks over worker threads, each with private scratch, and the
//    per-chunk partial minima are merged serially -- so profiles are
//    bitwise identical to AbJoinProfile / SelfJoinProfile at every thread
//    count;
//  * minima only where only minima are read: the all-pairs join (the
//    instance profile's, Defs. 8-9) keeps no neighbour indices, so each of
//    its rows is one fused pass that advances QT and folds every cell into
//    both sides' minima in registers (core/simd.h StompRowFused*).
//
// Bitwise-identity argument, in full (tests/mp_engine_test.cc asserts it):
// every QT value chains along its diagonal from a row-0 or column-0 seed by
// the shared StompAdvance step, which both the serial kernels and the
// engine apply in the same order from the same seeds; the per-cell helpers
// (StompZNormSquared and the others) are written to be exactly symmetric
// (stomp_common.h); and a serial kernel's strict-< running minimum over
// candidates in increasing-index order equals "smallest value, smallest
// index achieving it", which is what the order-independent (value, index)
// merge rule computes. For the rooted metrics (z-normalised, L2) every
// path -- the row sweep, the diagonal sweep with its merge, and the serial
// kernels -- scans squares and roots each profile entry once when it is
// final. A minimum over roots is the root of the minimum over squares
// (sqrt is correctly rounded and monotone, every square is >= +0), so the
// values are what a scan over roots gives; for the neighbour index, of two
// different squares that share a root the smaller square wins, and since
// all paths follow that rule they agree on values and indices alike.
//
// Thread-safety contract: the join, table and counter methods may be called
// concurrently on one engine (the setters may not). The engine holds no shared mutable state except its
// instrumentation counters (relaxed atomics), and a table is immutable once
// built, so any number of sweeps may read one table at once.
//
// Lifetime contract (docs/memory.md): the caller owns every table. A table
// borrows its series through spans and owns everything else, so the series
// must outlive the table and keep their values while it is in use; refilled
// storage needs a new table. SelfJoin, AbJoin and AbJoinBoth build and drop
// a table per call, so the engine itself never holds artefacts across calls.

#ifndef IPS_MATRIX_PROFILE_MP_ENGINE_H_
#define IPS_MATRIX_PROFILE_MP_ENGINE_H_

#include <atomic>
#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "core/metric.h"
#include "core/znorm.h"
#include "matrix_profile/matrix_profile.h"
#include "util/parallel.h"

namespace ips {

/// Immutable, index-addressed artefacts of one batch of series: everything
/// its sweeps read, precomputed by MatrixProfileEngine::BuildTable in one
/// parallel pass so the sweeps themselves are lock-free and allocation-free
/// -- contexts address artefacts by batch index.
///
/// Lifetime (docs/memory.md): the table borrows the batch's series storage
/// via spans and owns everything else; the caller owns the table.
struct ArtifactTable {
  size_t window = 0;
  MetricId metric = MetricId::kZNormEuclidean;
  std::vector<std::span<const double>> views;
  /// Per-series rolling mean/std windows (needs_rolling_stats metrics).
  std::vector<RollingStats> stats;
  /// Per-series window energies (needs_window_energy metrics).
  std::vector<std::vector<double>> energies;
  /// Per-series window norms, the roots of `energies` (needs_window_norms
  /// metrics): rooted once per table, not once per cell of every sweep.
  std::vector<std::vector<double>> norms;
  /// Distinct padded FFT sizes among the batch's FFT-regime targets,
  /// sorted. Empty at short windows (the naive-seed regime).
  std::vector<size_t> padded_sizes;
  /// Forward transform of series i zero-padded to ITS target size
  /// NextPowerOfTwo(len_i + window); empty when series i is never an
  /// FFT-regime target.
  std::vector<std::vector<std::complex<double>>> fft_series;
  /// fft_query[i * padded_sizes.size() + k]: forward transform of series
  /// i's reversed first window, zero-padded to padded_sizes[k].
  std::vector<std::vector<std::complex<double>>> fft_query;
  /// seeds[i * views.size() + j]: sliding dot products of series i's first
  /// window against every window of series j -- the row-0 / column-0 QT
  /// seeds. Filled for every i != j; the diagonal entry is filled only in
  /// a one-series table, where it is the self-join's row-0 seed.
  std::vector<std::vector<double>> seeds;

  /// Number of materialised artifact entries (counter fodder).
  size_t entry_count() const;
};

/// Monotonic instrumentation counters (snapshot via counters()).
struct MpEngineCounters {
  size_t joins_computed = 0;  ///< directed join profiles produced
  size_t qt_sweeps = 0;       ///< QT sweeps run (1 per unordered pair)
  size_t joins_halved = 0;    ///< joins served by a sweep's far side (saved)
  size_t table_builds = 0;    ///< artifact tables built (BuildTable)
};

/// Both directions of one unordered AB-join: `a_vs_b` annotates windows of
/// the pair's first series with their nearest window in the second
/// (== AbJoinProfile(a, b, window) bitwise) and `b_vs_a` the reverse.
struct PairJoin {
  size_t a = 0;  ///< batch index of the first series
  size_t b = 0;  ///< batch index of the second series
  MatrixProfile a_vs_b;
  MatrixProfile b_vs_a;
};

/// Both directions of one unordered pair's all-pairs join, values only:
/// `a_vs_b[i]` is window i of the pair's first series' nearest-neighbour
/// distance to the second series (== AbJoinProfile(a, b, window).values[i]
/// bitwise) and `b_vs_a` the reverse. No neighbour indices: the instance
/// profile (paper Defs. 8-9) needs only the distances.
struct PairMinima {
  size_t a = 0;  ///< batch index of the first series
  size_t b = 0;  ///< batch index of the second series
  std::vector<double> a_vs_b;
  std::vector<double> b_vs_a;
};

class MatrixProfileEngine {
 public:
  /// `num_threads` shards every join and batch (1 = serial, 0 = auto:
  /// HardwareThreads()). The thread count never changes results, only
  /// wall-clock.
  explicit MatrixProfileEngine(size_t num_threads = 1)
      : num_threads_(ResolveNumThreads(num_threads)) {}

  MatrixProfileEngine(const MatrixProfileEngine&) = delete;
  MatrixProfileEngine& operator=(const MatrixProfileEngine&) = delete;

  size_t num_threads() const { return num_threads_; }
  void set_num_threads(size_t n) { num_threads_ = ResolveNumThreads(n); }

  /// Minimum QT cells per sweep chunk before another shard is opened; small
  /// sweeps stay single-chunk and take the row-order fast path. A perf
  /// knob only -- chunking never changes results. Tests lower it to force
  /// the sharded diagonal path on small inputs.
  void set_min_cells_per_chunk(size_t cells) {
    min_cells_per_chunk_ = cells == 0 ? 1 : cells;
  }

  /// SelfJoinProfile(series, window, exclusion), bitwise identical, with
  /// the sweep's diagonals sharded over the engine's threads. `metric`
  /// selects the distance function (core/metric.h); the default keeps the
  /// historic z-normalised behaviour, and non-default metrics share the
  /// exact same QT machinery with only the O(1) distance step swapped.
  MatrixProfile SelfJoin(std::span<const double> series, size_t window,
                         size_t exclusion = 0,
                         MetricId metric = MetricId::kZNormEuclidean);

  /// AbJoinProfile(a, b, window), bitwise identical. Prefer AbJoinBoth or
  /// JoinAllPairs when the reverse direction is needed too -- this entry
  /// point runs the sweep without collecting column minima.
  MatrixProfile AbJoin(std::span<const double> a, std::span<const double> b,
                       size_t window,
                       MetricId metric = MetricId::kZNormEuclidean);

  /// Both directions of the (a, b) join from ONE QT sweep: row minima give
  /// a_vs_b, column minima give b_vs_a, each bitwise identical to the
  /// corresponding AbJoinProfile call. The `a`/`b` members of the result
  /// are 0 and 1. Pair symmetry holds for every registered metric -- each
  /// per-cell distance helper groups its operands so exchanging the sides
  /// only commutes single IEEE operations (stomp_common.h).
  PairJoin AbJoinBoth(std::span<const double> a, std::span<const double> b,
                      size_t window,
                      MetricId metric = MetricId::kZNormEuclidean);

  /// Builds the immutable artifact table of `views` in one parallel
  /// precompute pass: per-series statistics, forward FFTs and all
  /// ordered-pair QT seeds. The caller owns the result and may sweep it
  /// any number of times (JoinAllPairs / JoinAllPairsInto). Requires every
  /// view to be at least `window` long.
  ArtifactTable BuildTable(const std::vector<std::span<const double>>& views,
                           size_t window,
                           MetricId metric = MetricId::kZNormEuclidean);

  /// The minima of every unordered pair (i < j) of the table's series, both
  /// directions, each pair computed once via the pair-symmetric sweep,
  /// sharded over threads with per-chunk scratch and a serial
  /// deterministic merge. Minima only: profile values, no neighbour
  /// indices -- the join neither computes nor returns them. Result t
  /// covers the t-th pair of the lexicographic (i, j) enumeration; its
  /// values are bitwise the serial AbJoinProfile's (and AbJoinBoth's) in
  /// both directions, for any thread count. An unsharded pair runs one
  /// fused pass per row (core/simd.h StompRowFused*).
  std::vector<PairMinima> JoinAllPairs(const ArtifactTable& table);

  /// JoinAllPairs writing into `joins`: the minima reuse whatever capacity
  /// `joins` already holds, so repeat batches over one table perform no
  /// heap allocations (the serving-loop form). Same results, bitwise.
  void JoinAllPairsInto(const ArtifactTable& table,
                        std::vector<PairMinima>& joins);

  /// Provider of precomputed per-series rolling statistics (core/znorm.h),
  /// typically DatasetView::stats_provider() of a store-backed view. When
  /// set, BuildTable asks the provider for every stats/energy fill first
  /// and only computes on refusal. Providers are contractually bitwise
  /// identical to ComputeRollingStats / ComputeWindowEnergies, so results
  /// never depend on whether a fill was served or computed. Pass nullptr to
  /// unset. The caller keeps the provider alive for the engine's lifetime.
  void set_stats_provider(const SeriesStatsProvider* provider) {
    stats_provider_ = provider;
  }
  const SeriesStatsProvider* stats_provider() const { return stats_provider_; }

  MpEngineCounters counters() const;
  void ResetCounters();

 private:
  /// One sweep's immutable inputs: the pair, its per-window statistics
  /// (rolling stats and/or window energies, per the metric's needs) and its
  /// row-0 / column-0 QT seeds, all pointing into an ArtifactTable.
  struct SweepContext {
    std::span<const double> a;
    std::span<const double> b;
    size_t window = 0;
    size_t la = 0;  // number of a-side windows
    size_t lb = 0;  // number of b-side windows
    MetricId metric = MetricId::kZNormEuclidean;
    const RollingStats* stats_a = nullptr;  // when needs_rolling_stats
    const RollingStats* stats_b = nullptr;
    const std::vector<double>* energy_a = nullptr;  // when needs_window_energy
    const std::vector<double>* energy_b = nullptr;
    const std::vector<double>* norm_a = nullptr;  // when needs_window_norms
    const std::vector<double>* norm_b = nullptr;
    const std::vector<double>* row0 = nullptr;  // QT(0, j)
    const std::vector<double>* col0 = nullptr;  // QT(i, 0)
    bool self = false;     // a and b are the same series
    size_t exclusion = 0;  // self-join trivial-match half-width
    bool want_b = true;    // collect column minima (the b-side profile)
    // Minima only, no neighbour indices (JoinAllPairs; an AB sweep with
    // want_b): the partials carry no index spans and merge by plain min.
    bool values_only = false;
  };

  /// Running minima for (a chunk of) one sweep, viewing storage carved by
  /// the caller out of its scratch arena. Trivially destructible, so
  /// whole arrays of partials live in arena memory. The merge rule --
  /// smaller value wins, bitwise-equal values go to the smaller neighbour
  /// index -- is visit-order independent, so chunk boundaries never affect
  /// results. A values-only sweep's partials have no index spans and merge
  /// by plain minimum, a selection and so order-free too.
  struct SweepPartial {
    std::span<double> a_val;
    std::span<size_t> a_idx;  // empty when values_only
    std::span<double> b_val;  // empty for self joins / want_b == false
    std::span<size_t> b_idx;  // empty when values_only
    void Reset(const SweepContext& cx);
  };

  /// The context of the AB sweep over table series (i, j): statistics and
  /// seeds addressed by batch index -- no locks, no lookups. For i == j in
  /// a one-series table it points at the self-join seed.
  static SweepContext ContextOf(const ArtifactTable& table, size_t i,
                                size_t j);

  /// Walks diagonals [diag_begin, diag_end) of the sweep, updating the
  /// partial. Diagonal indices enumerate c = index - (la - 1) for AB pairs
  /// and c = exclusion + 1 + index for self joins. Dispatches on cx.metric
  /// to an instantiation of SweepDiagonalsImpl.
  static void SweepDiagonals(const SweepContext& cx, size_t diag_begin,
                             size_t diag_end, SweepPartial& partial);

  /// The diagonal walk with the per-cell distance step `cell(i, j, qt)`
  /// inlined per metric (one instantiation each, so the hot loop carries no
  /// per-cell dispatch), keeping neighbour indices when kIndex is set.
  template <bool kIndex, typename CellFn>
  static void SweepDiagonalsImpl(const SweepContext& cx, size_t diag_begin,
                                 size_t diag_end, SweepPartial& partial,
                                 CellFn cell);

  /// Full sweep in row order (the kernels' in-place right-to-left
  /// recurrence), the serial fast path: no loop-carried QT stall, bitwise
  /// identical to SweepDiagonals over every diagonal. A values-only sweep
  /// runs one fused pass per row; the others run QT advance, distance row
  /// and two-sided min scan.
  static void RowSweep(const SweepContext& cx, SweepPartial& partial);

  /// Number of diagonals of the sweep and of cells on one diagonal.
  static size_t DiagCount(const SweepContext& cx);
  static size_t DiagCells(const SweepContext& cx, size_t diag);

  /// Splits [0, DiagCount) into at most `chunks` cell-balanced ranges,
  /// keeping at least min_cells_per_chunk_ cells per range, and writes the
  /// boundaries into `out` (capacity at least chunks + 1). Returns the
  /// number of boundaries written.
  size_t ChunkDiagonalsInto(const SweepContext& cx, size_t chunks,
                            std::span<size_t> out) const;

  /// Merges a partial into the sweep's output minima (serial): values and
  /// indices by UpdateMin, or values by plain minimum when the sweep is
  /// values_only (the index spans are then empty). Empty b spans skip the
  /// b side.
  static void MergePartial(const SweepContext& cx, const SweepPartial& partial,
                           std::span<double> a_val, std::span<size_t> a_idx,
                           std::span<double> b_val, std::span<size_t> b_idx);

  /// Runs one sweep with its diagonals sharded over `chunks` workers.
  void RunSweep(const SweepContext& cx, size_t chunks, MatrixProfile& a_out,
                MatrixProfile* b_out);

  size_t num_threads_;
  size_t min_cells_per_chunk_ = size_t{1} << 16;
  const SeriesStatsProvider* stats_provider_ = nullptr;

  std::atomic<size_t> joins_{0};
  std::atomic<size_t> sweeps_{0};
  std::atomic<size_t> halved_{0};
  std::atomic<size_t> table_builds_{0};
};

}  // namespace ips

#endif  // IPS_MATRIX_PROFILE_MP_ENGINE_H_
