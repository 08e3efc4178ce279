// Batched subsequence-distance engine.
//
// Every layer of the system -- IPS utility scoring, naive pruning, the
// shapelet transform, the subsequence 1-NN and the SD/shapelet-quality
// baselines -- needs the same primitive: the min-alignment distance between
// a query and one or many series under some registered metric
// (core/metric.h; the paper's Def. 4 and its z-normalised cousin are the
// historic two). Calling the raw kernels in core/distance.h per pair recomputes
// rolling statistics, prefix sums of squares and FFT transforms for every
// call and allocates fresh scratch each time. This layer derives each of
// those once per series per call, the way the matrix-profile line of work
// computes normalisation statistics once per series instead of per query:
//
//  * MinForPairs builds one index-addressed artefact table per call --
//    every view's prefix sums of squares, under z-norm its z-normalised
//    query, and its reversed FFTs where it is an FFT-regime query -- in one
//    parallel pass, then runs the pairs grouped by their series-side view,
//    so each view's rolling statistics and forward FFTs are built once per
//    call into the worker's SeriesArtefacts;
//  * MinOfQuery is the one min kernel: it takes the query side's artefacts
//    explicitly (a table entry, a ShapeletBank entry or single-pair
//    scratch) plus a SeriesArtefacts, so every caller runs the same
//    arithmetic;
//  * results are bitwise identical to the serial core/distance.h kernels
//    regardless of thread count, because each pair writes its own output
//    slot and no pair reads another's state.
//
// Thread-safety contract: a DistanceEngine holds only its thread count and
// relaxed-atomic counters. Every public method may be called concurrently
// from any number of threads on the same engine; each call's artefacts
// live in its own table and in thread-local scratch, and no call reads
// another call's.
//
// Lifetime contract: nothing outlives the call that built it. The views a
// call receives need only stay valid for that call, so an engine may be
// reused across any data -- freed and refilled buffers included -- with
// nothing to clear. A fitted IpsClassifier's shapelet side is an immutable
// ShapeletBank (transform/shapelet_bank.h) built from the artefact
// functions below.

#ifndef IPS_CORE_DISTANCE_ENGINE_H_
#define IPS_CORE_DISTANCE_ENGINE_H_

#include <atomic>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/metric.h"
#include "core/znorm.h"
#include "util/parallel.h"

namespace ips {

// ------------------------------------------------------ artefact functions
// The one definition of each artefact: the per-call tables, the
// single-pair scratch and the ShapeletBank all fill theirs through these,
// so their bytes are equal.

/// Prefix sums of squares into `out` (size n + 1). The accumulation order
/// matches both DistanceProfileRaw's window-energy prefix and its qq loop,
/// so out.back() is bitwise equal to the serial qq.
void PrefixSquaresInto(std::span<const double> s, std::vector<double>& out);

/// Zero-padded forward FFT of `s` (of `s` back to front when `reversed`,
/// the query side of a sliding product) into `out`, of size `padded`.
void ForwardFftInto(std::span<const double> s, size_t padded, bool reversed,
                    std::vector<std::complex<double>>& out);

/// A z-normalised query plus its all-zero (flat) flag.
struct ZnQuery {
  std::vector<double> values;
  bool flat = false;
};
ZnQuery MakeZnQuery(std::span<const double> q);

/// Whether a query of length m slides along a series of length n >= m by
/// FFT (the serial kernels' naive/FFT dispatch), which fixes the padded
/// size NextPowerOfTwo(n + m) of both sides' transforms.
bool UsesFftDots(size_t m, size_t n);

/// Series-side artefacts of the one series a worker is on: prefix sums of
/// squares, RollingStats per window and forward FFTs per padded size, each
/// built on first use and shared by every query against that series.
/// Reset() starts the next series; nothing is kept beyond it, so nothing
/// outlives the series it describes.
class SeriesArtefacts {
 public:
  /// Starts on `series`. A non-empty `prefix` (its n + 1 prefix sums of
  /// squares, e.g. a table entry) is used instead of building one; it must
  /// outlive the series' turn. An empty series just drops the last one.
  void Reset(std::span<const double> series,
             std::span<const double> prefix = {});
  std::span<const double> series() const { return series_; }
  std::span<const double> Prefix();
  const RollingStats& Stats(size_t window);
  const std::vector<std::complex<double>>& Fft(size_t padded);

 private:
  std::span<const double> series_;
  std::span<const double> prefix_;  // given, or own_prefix_ once built
  std::vector<double> own_prefix_;
  std::vector<std::pair<size_t, RollingStats>> stats_;  // by window
  std::vector<std::pair<size_t, std::vector<std::complex<double>>>> ffts_;
};

/// Per-thread scratch buffers, held in thread-local storage and reused
/// across min queries so the hot path performs no allocations after
/// warmup.
struct DistanceWorkspace {
  std::vector<double> dots;                   ///< sliding dot products
  std::vector<std::complex<double>> fft_qry;  ///< query transform
  std::vector<std::complex<double>> fft_prod; ///< pointwise product / inverse
  std::vector<double> query_prefix;           ///< single-pair query side
  ZnQuery query_zn;                           ///< (z-norm only)
  SeriesArtefacts series;                     ///< the current series' side
};

/// The query side of a min query: the shorter operand's raw values and
/// prefix sums of squares, its z-normalised form under z-norm, and
/// optionally the reversed FFT of its slid values (z-normalised under
/// z-norm) at one padded size; a query in the FFT regime at any other size
/// computes its transform per call.
struct QueryArtefacts {
  std::span<const double> values;
  std::span<const double> prefix;  ///< n + 1 prefix sums of squares
  const ZnQuery* zn = nullptr;     ///< z-norm only
  std::span<const std::complex<double>> fft;
};

/// The min-alignment distance of `query` slid along the series `series`
/// holds, under `metric`: bitwise equal to SubsequenceDistanceMetric for a
/// query no longer than the series (the first operand on a tie). One dense
/// path: sliding dot products (naive or FFT, by UsesFftDots), then the
/// metric's min_from_dots. Does not touch the registry: its callers count
/// their queries in bulk (CountProfiles).
double MinOfQuery(const QueryArtefacts& query, SeriesArtefacts& series,
                  MetricId metric, DistanceWorkspace& ws);

/// Process-wide registry accounting of `n` evaluated min queries under
/// `metric` (engine.profiles_computed and engine.profiles.<name>), one add
/// per counter. Every caller of MinOfQuery, and every caller that answers
/// a query another way, counts its queries through it once per batch: per
/// transform row, per MinForPairs series-side view, per single query.
void CountProfiles(MetricId metric, size_t n);

/// Monotonic instrumentation counters (snapshot via counters()).
struct EngineCounters {
  size_t profiles_computed = 0;  ///< min queries evaluated
};

/// An ordered (query index, series index) work item for MinForPairs.
using IndexPair = std::pair<uint32_t, uint32_t>;

class DistanceEngine {
 public:
  /// `num_threads` shards every batched call (1 = serial, 0 = auto:
  /// HardwareThreads()). The thread count never changes results, only
  /// wall-clock.
  explicit DistanceEngine(size_t num_threads = 1)
      : num_threads_(ResolveNumThreads(num_threads)) {}

  DistanceEngine(const DistanceEngine&) = delete;
  DistanceEngine& operator=(const DistanceEngine&) = delete;

  size_t num_threads() const { return num_threads_; }
  void set_num_threads(size_t n) { num_threads_ = ResolveNumThreads(n); }

  /// Has no effect: every min query takes the one dense path. Kept only
  /// because the benchmark harness (perfbench/) sets it; it goes when the
  /// harness stops setting it.
  void set_early_abandon(bool on);

  /// SubsequenceDistanceMetric(a, b, metric), bitwise identical, on
  /// thread-local scratch.
  double SubsequenceMinMetric(std::span<const double> a,
                              std::span<const double> b, MetricId metric);

  /// dist[t] == SubsequenceDistanceMetric(views[pairs[t].first],
  /// views[pairs[t].second], metric) for every work item, computed in
  /// parallel over one artefact table built for the call. Call sites with
  /// bespoke pair structure (utility scoring, naive pruning, the
  /// baselines) drive it directly.
  std::vector<double> MinForPairs(
      const std::vector<std::span<const double>>& views,
      const std::vector<IndexPair>& pairs,
      MetricId metric = MetricId::kRawSquaredEuclidean);

  EngineCounters counters() const;
  void ResetCounters();

 private:
  size_t num_threads_;

  std::atomic<size_t> profiles_{0};
};

}  // namespace ips

#endif  // IPS_CORE_DISTANCE_ENGINE_H_
