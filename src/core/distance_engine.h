// Batched subsequence-distance engine.
//
// Every layer of the system -- IPS utility scoring, naive pruning, the
// shapelet transform, the subsequence 1-NN and the SD/shapelet-quality
// baselines -- needs the same primitive: the min-alignment distance between
// a query and one or many series under some registered metric
// (core/metric.h; the paper's Def. 4 and its z-normalised cousin are the
// historic two). Calling the raw kernels in core/distance.h per pair recomputes
// rolling statistics, prefix sums of squares and FFT transforms for every
// call and allocates fresh scratch each time. The DistanceEngine amortises
// all of that, the way the matrix-profile line of work amortises
// normalisation statistics across all queries:
//
//  * a cache of per-series artefacts -- prefix sums of squares, RollingStats
//    keyed by (series, window), forward FFTs keyed by (series, padded size)
//    and z-normalised queries -- shared across every pair of a batch;
//  * for the shapelet transform, the series side built once per row into
//    the worker's SeriesArtefacts and dropped after the row: only the
//    shapelets are ever cached, so a transformed series leaves nothing
//    behind in the engine;
//  * reusable per-thread workspaces, so the radix-2 FFT path and the naive
//    dot-product path stop allocating per call;
//  * batched APIs (pairwise candidate distances, query x dataset profiles,
//    whole-dataset shapelet transforms) that shard over ParallelFor with
//    one output slot per work item, so results are deterministic -- and
//    bitwise identical to the serial core/distance.h kernels -- regardless
//    of thread count.
//
// Thread-safety contract: all public methods may be called concurrently
// from any number of threads on the same engine. The artefact caches are
// mutex-guarded; cache fills are pure functions of the series bytes, so a
// racing double-compute yields identical values and first-insert wins.
// Batch calls create their worker scratch per call; single-pair calls use
// thread-local scratch.
//
// Lifetime contract: cached artefacts are keyed by the address and length
// of the series data. Only arguments the API documents as cacheable are
// ever inserted or looked up (temporary queries and transformed series
// never are), and callers that re-fit against new data must ClearCaches()
// first. Discovery builds one engine per run; a fitted IpsClassifier owns
// no engine at all -- its shapelet side is an immutable ShapeletBank
// (transform/shapelet_bank.h) built from the artefact functions below.

#ifndef IPS_CORE_DISTANCE_ENGINE_H_
#define IPS_CORE_DISTANCE_ENGINE_H_

#include <atomic>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/metric.h"
#include "core/time_series.h"
#include "core/znorm.h"
#include "util/parallel.h"

namespace ips {

// ------------------------------------------------------ artefact functions
// The one definition of each artefact: the engine caches and the
// ShapeletBank both fill theirs through these, so their bytes are equal.

/// Prefix sums of squares into `out` (size n + 1). The accumulation order
/// matches both DistanceProfileRaw's window-energy prefix and its qq loop,
/// so out.back() is bitwise equal to the serial qq.
void PrefixSquaresInto(std::span<const double> s, std::vector<double>& out);

/// Zero-padded forward FFT of `s` (of `s` back to front when `reversed`,
/// the query side of a sliding product) into `out`, of size `padded`.
void ForwardFftInto(std::span<const double> s, size_t padded, bool reversed,
                    std::vector<std::complex<double>>& out);

/// A z-normalised query plus its all-zero (flat) flag and the value/square
/// sums the early-abandon z-norm bound consumes (bound devices only -- they
/// never enter a returned distance).
struct ZnQuery {
  std::vector<double> values;
  bool flat = false;
  double sum = 0.0;
  double sum_sq = 0.0;
};
ZnQuery MakeZnQuery(std::span<const double> q);

/// Series-side artefacts of the one series a transform worker is on:
/// prefix sums of squares, RollingStats per window and forward FFTs per
/// padded size, each built on first use and shared by every shapelet of
/// the row. Reset() starts the next row; nothing is keyed by address
/// beyond the current row, so nothing outlives the series it describes.
/// The values are exactly those the engine caches would hold.
class SeriesArtefacts {
 public:
  /// Starts a row for `series` (an empty span just drops the last row).
  void Reset(std::span<const double> series);
  /// Whether `s` is the current row's series.
  bool Holds(std::span<const double> s) const {
    return !series_.empty() && s.data() == series_.data() &&
           s.size() == series_.size();
  }
  const std::vector<double>& Prefix();
  const RollingStats& Stats(size_t window);
  const std::vector<std::complex<double>>& Fft(size_t padded);

 private:
  std::span<const double> series_;
  std::vector<double> prefix_;  // empty until built (a built one has n + 1)
  std::vector<std::pair<size_t, RollingStats>> stats_;  // by window
  std::vector<std::pair<size_t, std::vector<std::complex<double>>>> ffts_;
};

/// Per-thread scratch buffers. Owned by the engine's batch calls (one per
/// worker) or by thread-local storage for single-pair calls; reused across
/// kernel invocations so the hot path performs no allocations after warmup.
struct DistanceWorkspace {
  std::vector<double> prefix;                 ///< prefix sums of squares
  std::vector<double> dots;                   ///< sliding dot products
  std::vector<double> znorm_query;            ///< z-normalised query
  std::vector<std::complex<double>> fft_sig;  ///< series transform
  std::vector<std::complex<double>> fft_qry;  ///< query transform
  std::vector<std::complex<double>> fft_prod; ///< pointwise product / inverse
  std::vector<double> query_prefix;           ///< query prefix squares (EA)
  SeriesArtefacts row;                        ///< transformed series' side
  /// Per-shapelet cascade state carried from the previous series this
  /// worker transformed (batch transforms only; the batch reads it and
  /// passes the decision to each min query, which never looks here):
  ///  * eab_seed_hints: the last winning alignment, which seeds the next
  ///    series' best-so-far so abandonment triggers early;
  ///  * eab_backoff: series left to route straight to the dense path
  ///    after the cascade bailed out on this shapelet.
  /// Both only pick a path or a visit order -- results stay bitwise
  /// identical whatever they hold.
  std::vector<size_t> eab_seed_hints;
  std::vector<uint32_t> eab_backoff;
};

/// The FFT regime's sliding dot products: ws.dots[i] (count of them) from
/// the series' forward transform `fs` and the query's reversed one `fq`,
/// both of the same padded size, for a query of length m.
void FftSlidingDotsInto(const std::vector<std::complex<double>>& fs,
                        const std::vector<std::complex<double>>& fq, size_t m,
                        size_t count, DistanceWorkspace& ws);

/// What a min query reports back for the caller's next query.
struct MinOutcome {
  size_t argmin = simd::kEabNoSeed;  ///< set when the cascade finished
  bool bailed_out = false;           ///< the cascade gave up mid-flight
};

/// Process-wide registry accounting of one evaluated profile or min query
/// under `metric` (engine.profiles and engine.profiles.<name>), and of one
/// cascade run (engine.eab.<stage> and engine.eab.<stage>.<name>). The
/// engine adds its per-instance counters on top.
void CountProfile(MetricId metric);
void CountEab(MetricId metric, const simd::EabCounters& c);

/// Monotonic instrumentation counters (snapshot via counters()).
struct EngineCounters {
  size_t profiles_computed = 0;   ///< distance profiles evaluated
  size_t stats_cache_hits = 0;    ///< artefact-cache hits (stats/prefix/FFT)
  size_t stats_cache_misses = 0;  ///< artefact-cache misses (entry computed)
  /// Early-abandon cascade accounting (docs/pruning.md), summed over every
  /// min query that took the pruned path: alignments considered, skipped
  /// whole by a lower bound, scans cut short, and scans run to completion.
  /// candidates == lb_pruned + abandoned + full.
  size_t eab_candidates = 0;
  size_t eab_lb_pruned = 0;
  size_t eab_abandoned = 0;
  size_t eab_full = 0;
  /// Min queries TransformBatch routed straight to the dense path because
  /// the cascade had bailed out on the same shapelet within the last
  /// kEabBackoffSeries series of that worker (not counted as candidates).
  size_t eab_backoff_skips = 0;
};

/// An ordered (query index, series index) work item for MinForPairs.
using IndexPair = std::pair<uint32_t, uint32_t>;

class DistanceEngine {
 public:
  /// Build-time kill switch: -DIPS_DISABLE_EARLY_ABANDON compiles the
  /// cascade out entirely (set_early_abandon(true) stays off). Mirrors the
  /// IPS_DISABLE_SIMD / IPS_DISABLE_TRACING discipline.
#if defined(IPS_DISABLE_EARLY_ABANDON)
  static constexpr bool kEarlyAbandonCompiledIn = false;
#else
  static constexpr bool kEarlyAbandonCompiledIn = true;
#endif

  /// `num_threads` shards every batched call (1 = serial, 0 = auto:
  /// HardwareThreads()). The thread count never changes results, only
  /// wall-clock.
  explicit DistanceEngine(size_t num_threads = 1)
      : num_threads_(ResolveNumThreads(num_threads)) {}

  DistanceEngine(const DistanceEngine&) = delete;
  DistanceEngine& operator=(const DistanceEngine&) = delete;

  size_t num_threads() const { return num_threads_; }
  void set_num_threads(size_t n) { num_threads_ = ResolveNumThreads(n); }

  /// Whether the early-abandon lower-bound cascade (docs/pruning.md) serves
  /// min queries in the naive sliding-dots regime. On by default; minima
  /// are bitwise identical either way, so this is a pure performance knob
  /// (IpsOptions::enable_early_abandon plumbs it per run for A/B parity
  /// testing). Building with -DIPS_DISABLE_EARLY_ABANDON pins it off.
  bool early_abandon() const { return early_abandon_; }
  void set_early_abandon(bool on) {
    early_abandon_ = kEarlyAbandonCompiledIn && on;
  }

  // ------------------------------------------------------------ single pair

  /// SubsequenceDistance(a, b), bitwise identical, with scratch reuse.
  /// `cache_b` additionally caches b's artefacts across calls; only pass
  /// true when b outlives the engine's cache (e.g. a classifier member).
  double SubsequenceMin(std::span<const double> a, std::span<const double> b,
                        bool cache_b = false);

  /// SubsequenceDistanceZNorm(a, b), bitwise identical, with scratch reuse.
  double SubsequenceMinZNorm(std::span<const double> a,
                             std::span<const double> b, bool cache_b = false);

  /// SubsequenceDistanceMetric(a, b, metric), bitwise identical, with
  /// scratch reuse. The metric-generic cousin of the two entry points above
  /// (and exactly them for their ids).
  double SubsequenceMinMetric(std::span<const double> a,
                              std::span<const double> b, MetricId metric,
                              bool cache_b = false);

  // ---------------------------------------------------------------- batched

  /// DistanceProfileMetric(query, series, metric), bitwise identical. The
  /// default keeps the historic raw-profile behaviour.
  std::vector<double> ProfileAgainstSeries(
      std::span<const double> query, std::span<const double> series,
      MetricId metric = MetricId::kRawSquaredEuclidean);

  /// Distance profile of `query` against every series of `data` under
  /// `metric`; out[i] == DistanceProfileMetric(query, data[i], metric)
  /// (query must be no longer than the shortest series). Parallel over
  /// series.
  std::vector<std::vector<double>> ProfileAgainstDataset(
      std::span<const double> query, const DatasetView& data,
      MetricId metric = MetricId::kRawSquaredEuclidean);

  /// out[i] == SubsequenceDistanceMetric(query, data[i].view(), metric).
  /// The argument order matches the serial call sites (query first), so
  /// results are bitwise identical to them. Parallel over series; `data`'s
  /// artefacts are cached, the query's are not (it may be a temporary).
  std::vector<double> MinAgainstDataset(
      std::span<const double> query, const DatasetView& data,
      MetricId metric = MetricId::kRawSquaredEuclidean);

  /// dist[t] == SubsequenceDistanceMetric(views[pairs[t].first],
  /// views[pairs[t].second], metric) for every work item, computed in
  /// parallel with every view's artefacts cached. The building block of the
  /// pairwise and matrix APIs; call sites with bespoke pair structure
  /// (utility scoring, naive pruning) drive it directly.
  std::vector<double> MinForPairs(
      const std::vector<std::span<const double>>& views,
      const std::vector<IndexPair>& pairs,
      MetricId metric = MetricId::kRawSquaredEuclidean);

  /// Full n x n matrix (row-major) of pairwise Def. 4 distances between
  /// candidates. `symmetric` computes each unordered pair once and mirrors
  /// it (the CR optimisation); false computes both orders independently
  /// (the Fig. 10(b) no-reuse baseline). The diagonal is exactly 0 either
  /// way, matching SubsequenceDistance(x, x).
  std::vector<double> PairwiseSubsequenceMin(
      const std::vector<Subsequence>& candidates, bool symmetric = true);
  std::vector<double> PairwiseSubsequenceMin(
      const std::vector<std::span<const double>>& views, bool symmetric = true);

  /// Whole-dataset shapelet transform: rows[i][s] is the distance of
  /// data[i] to shapelets[s] under `metric`, bitwise identical to the
  /// serial TransformSeries loop. Shapelet artefacts are cached; each
  /// series' are built once per row and dropped (the batch inserts no
  /// series-keyed cache entry). Streams chunk-granularly (ForEachChunk)
  /// and parallelises over the series of each chunk, so an out-of-core
  /// view's resident set stays one chunk; for in-RAM data the default
  /// single chunk makes this the historic whole-batch parallel loop.
  /// Per-series work is independent, so chunking only reorders visits --
  /// rows are bitwise identical for any chunking and thread count.
  std::vector<std::vector<double>> TransformBatch(
      const DatasetView& data, const std::vector<Subsequence>& shapelets,
      MetricId metric);

  // ------------------------------------------------------- instrumentation

  EngineCounters counters() const;
  void ResetCounters();

  /// Series a worker routes past the early-abandon cascade, per shapelet,
  /// after the cascade bailed out on it; the next series probes again.
  static constexpr uint32_t kEabBackoffSeries = 16;

  /// Drops every cached artefact. Required before reusing an engine against
  /// data whose storage may have been freed or reused (e.g. re-Fit).
  void ClearCaches();

 private:
  struct SpanKey {
    const double* data;
    size_t len;
    size_t aux;  // window (stats), padded size (FFT), 0 otherwise
    bool operator==(const SpanKey& o) const {
      return data == o.data && len == o.len && aux == o.aux;
    }
  };
  struct SpanKeyHash {
    size_t operator()(const SpanKey& k) const {
      size_t h = std::hash<const double*>{}(k.data);
      h ^= std::hash<size_t>{}(k.len) + 0x9e3779b97f4a7c15ULL + (h << 6);
      h ^= std::hash<size_t>{}(k.aux) + 0x9e3779b97f4a7c15ULL + (h << 6);
      return h;
    }
  };
  // Cache accessors: return a stable pointer to the cached artefact, or
  // nullptr when `allow` is false (caller computes into scratch instead).
  const std::vector<double>* CachedPrefix(std::span<const double> s,
                                          bool allow);
  const RollingStats* CachedStats(std::span<const double> s, size_t window,
                                  bool allow);
  const std::vector<std::complex<double>>* CachedFft(
      std::span<const double> s, size_t padded, bool reversed, bool allow);
  const ZnQuery* CachedZnQuery(std::span<const double> q, bool allow);

  /// Per-call inputs of a min query beyond its operands. Every field only
  /// chooses a path, a visit order or where an artefact comes from, never
  /// a value. The defaults are the plain query.
  struct MinCall {
    /// Visit-order hint for the early-abandon cascade.
    size_t seed = simd::kEabNoSeed;
    /// False routes straight to the dense path (TransformBatch's bail-out
    /// backoff).
    bool cascade = true;
    /// Precomputed artefacts of the longer operand, used when they hold it.
    SeriesArtefacts* series = nullptr;
  };

  // Kernels (bitwise identical to the core/distance.h serial paths). The
  // query span passed to SlidingDotsInto must be address-stable whenever
  // cache_query is true (the z-norm path passes the engine-owned cached
  // ZnQuery values in that case, never scratch).
  /// Bumps the per-engine total plus the registry total and the per-metric
  /// labelled counter ("engine.profiles.<name>").
  void BumpProfiles(MetricId metric);
  /// Folds one early-abandon kernel invocation's counters into the engine
  /// atomics plus the registry totals and per-metric labelled counters
  /// ("engine.eab.candidates.<name>" etc).
  void BumpEab(MetricId metric, const simd::EabCounters& c);

  void SlidingDotsInto(std::span<const double> query,
                       std::span<const double> series, bool cache_query,
                       bool cache_series, SeriesArtefacts* series_art,
                       DistanceWorkspace& ws);
  // The dot family (raw / L2 / cosine) shares one qq + prefix-squares +
  // sliding-dots skeleton and differs only in the policy tail hook; the
  // z-normalised family has its own impls (rolling stats, query z-norm).
  // The min impls take a MinCall (seed, cascade routing, series-side
  // artefacts) and optionally fill a MinOutcome (winning alignment, bail-
  // out) so batched transforms can steer the next series. Neither affects
  // returned values.
  double DotMinImpl(std::span<const double> a, std::span<const double> b,
                    bool cache_a, bool cache_b, const MetricPolicy& policy,
                    DistanceWorkspace& ws, const MinCall& call,
                    MinOutcome* outcome);
  void DotProfileImpl(std::span<const double> query,
                      std::span<const double> series, bool cache_query,
                      bool cache_series, const MetricPolicy& policy,
                      DistanceWorkspace& ws, std::vector<double>& out);
  double ZNormMinImpl(std::span<const double> a, std::span<const double> b,
                      bool cache_a, bool cache_b, DistanceWorkspace& ws,
                      const MinCall& call, MinOutcome* outcome);
  void ZNormProfileImpl(std::span<const double> query,
                        std::span<const double> series, bool cache_query,
                        bool cache_series, DistanceWorkspace& ws,
                        std::vector<double>& out);
  // Metric-dispatching wrappers over the four impls above.
  double MinImpl(std::span<const double> a, std::span<const double> b,
                 bool cache_a, bool cache_b, MetricId metric,
                 DistanceWorkspace& ws, const MinCall& call,
                 MinOutcome* outcome);
  void ProfileImpl(std::span<const double> query,
                   std::span<const double> series, bool cache_query,
                   bool cache_series, MetricId metric, DistanceWorkspace& ws,
                   std::vector<double>& out);
  /// One transform row of `series` (operand order (series, shapelet), as
  /// TransformSeries) with its artefacts built once into ws.row. Reads and
  /// updates ws's per-shapelet seed hints and bail-out backoff, which the
  /// caller sized to the shapelet count.
  void TransformRowInto(std::span<const double> series,
                        const std::vector<Subsequence>& shapelets,
                        MetricId metric, DistanceWorkspace& ws,
                        std::vector<double>& row);

  /// Runs fn(item, workspace) for every item with per-worker scratch.
  template <typename Fn>
  void ParallelItems(size_t count, Fn&& fn);

  size_t num_threads_;
  bool early_abandon_ = kEarlyAbandonCompiledIn;

  mutable std::mutex prefix_mu_;
  std::unordered_map<SpanKey, std::vector<double>, SpanKeyHash> prefix_;
  mutable std::mutex stats_mu_;
  std::unordered_map<SpanKey, RollingStats, SpanKeyHash> stats_;
  mutable std::mutex fft_mu_;
  // aux = padded size; the reversed (query-side) transforms get their own
  // map so a key never aliases a series-side transform.
  std::unordered_map<SpanKey, std::vector<std::complex<double>>, SpanKeyHash>
      fft_series_;
  std::unordered_map<SpanKey, std::vector<std::complex<double>>, SpanKeyHash>
      fft_query_;
  mutable std::mutex znq_mu_;
  std::unordered_map<SpanKey, ZnQuery, SpanKeyHash> znq_;

  std::atomic<size_t> profiles_{0};
  std::atomic<size_t> cache_hits_{0};
  std::atomic<size_t> cache_misses_{0};
  std::atomic<size_t> eab_candidates_{0};
  std::atomic<size_t> eab_lb_pruned_{0};
  std::atomic<size_t> eab_abandoned_{0};
  std::atomic<size_t> eab_full_{0};
  std::atomic<size_t> eab_backoff_skips_{0};
};

}  // namespace ips

#endif  // IPS_CORE_DISTANCE_ENGINE_H_
