// Fundamental time-series containers and the view-based dataset API.
//
// A TimeSeries is an ordered sequence of real values with an integer class
// label; a Subsequence is an owned extract of a series that remembers where
// it came from (class, series index, offset) -- shapelet candidates are
// Subsequences.
//
// Datasets are consumed through the non-owning view hierarchy:
//
//   * SeriesView  -- a span of doubles plus a label; what every consumer
//     reads. Constructed implicitly from a TimeSeries, or served from a
//     memory-mapped store chunk.
//   * DatasetView -- the abstract span-of-series interface every pipeline
//     stage (discovery, transform, classification, baselines, serving)
//     programs against: indexed access via At(), chunk-granular streaming
//     via ForEachChunk(), and the derived helpers (NumClasses,
//     IndicesOfClass, lazy ConcatenateClass, ...). NOTHING on the view
//     hierarchy returns owned copies; the one escape hatch, Materialize(),
//     is explicit about allocating.
//   * Dataset     -- the legacy fully-RAM-resident implementation: a
//     std::vector<TimeSeries> behind the view interface. The out-of-core
//     ColumnarStore (src/store/columnar_store.h) is the other
//     implementation; docs/storage.md documents the view contract and how
//     a consumer migrates from `const Dataset&` to `const DatasetView&`.

#ifndef IPS_CORE_TIME_SERIES_H_
#define IPS_CORE_TIME_SERIES_H_

#include <cstddef>

#include <functional>
#include <span>
#include <vector>

namespace ips {

class SeriesStatsProvider;  // core/znorm.h

/// The label value meaning "unlabelled" (query batches, generated data
/// before labelling). Views skip unlabelled series in NumClasses(); labels
/// below kUnlabeledSeries are invalid everywhere.
inline constexpr int kUnlabeledSeries = -1;

/// Ordered value sequence with a class label (Def. 1). Label -1 means
/// "unlabelled".
struct TimeSeries {
  std::vector<double> values;
  int label = -1;

  TimeSeries() = default;
  TimeSeries(std::vector<double> v, int l) : values(std::move(v)), label(l) {}

  size_t length() const { return values.size(); }
  double operator[](size_t i) const { return values[i]; }
  std::span<const double> view() const { return values; }
};

/// An owned time-series extract that records its provenance. Used for
/// shapelet candidates and discovered shapelets.
struct Subsequence {
  std::vector<double> values;
  int label = -1;        ///< Class of the source series.
  int series_index = -1; ///< Index of the source series within its dataset.
  size_t start = 0;      ///< Offset of the extract within the source series.

  size_t length() const { return values.size(); }
  std::span<const double> view() const { return values; }
};

/// A non-owning labelled series: the element type of the view hierarchy.
/// Valid for as long as the storage behind `values` is (a Dataset member,
/// or a memory-mapped store segment -- store mappings outlive eviction, so
/// store-served views never dangle; see docs/storage.md).
struct SeriesView {
  std::span<const double> values;
  int label = -1;

  SeriesView() = default;
  SeriesView(std::span<const double> v, int l) : values(v), label(l) {}
  // Implicit: a TimeSeries is trivially viewable, which is what lets every
  // call site that holds owned series pass them to view-taking APIs.
  SeriesView(const TimeSeries& t) : values(t.values), label(t.label) {}

  size_t length() const { return values.size(); }
  double operator[](size_t i) const { return values[i]; }
  std::span<const double> view() const { return values; }

  /// The explicit owned copy (the view hierarchy itself never returns one).
  TimeSeries Materialize() const {
    return TimeSeries(std::vector<double>(values.begin(), values.end()),
                      label);
  }
};

class DatasetView;

/// Lazy concatenation of every series of one class, in dataset order (the
/// paper's T_C used by the MP baseline). Holds only the member indices; the
/// values are streamed piecewise or copied into a caller-owned buffer, so
/// the view API returns no owned series. Valid while the source view is.
class ClassConcat {
 public:
  ClassConcat(const DatasetView& view, int label);

  int label() const { return label_; }
  size_t pieces() const { return indices_.size(); }
  /// Total concatenated length, in samples.
  size_t length() const { return length_; }
  bool empty() const { return length_ == 0; }

  /// Streams the member series in concatenation order.
  void ForEachPiece(const std::function<void(SeriesView)>& fn) const;

  /// Materialises the concatenation into `out` (resized; capacity reused
  /// across calls, the MP baseline's per-class scratch pattern).
  void CopyTo(std::vector<double>* out) const;

 private:
  const DatasetView* view_;
  int label_;
  std::vector<size_t> indices_;
  size_t length_ = 0;
};

/// The abstract span-of-series dataset interface (Def. 2 behind views).
/// Implementations: Dataset (in-RAM, below) and store::ColumnarStore
/// (out-of-core, src/store/columnar_store.h).
///
/// Contract: At(i) is valid for i < size() and may be called concurrently;
/// returned SeriesViews stay readable for the lifetime of the view object
/// (out-of-core implementations keep evicted chunks addressable).
/// ForEachChunk visits every series exactly once, in index order, grouped
/// by physical residency -- consumers that stream (the shapelet transform)
/// iterate chunk-wise so an out-of-core run's resident set stays within
/// the store's chunk-cache budget.
class DatasetView {
 public:
  virtual ~DatasetView() = default;

  virtual size_t size() const = 0;
  /// The i-th labelled series, without copying.
  virtual SeriesView At(size_t i) const = 0;

  /// Streams the dataset in residency-granular chunks: fn(first_index,
  /// series) with `series[k]` == At(first_index + k). The default is one
  /// chunk spanning everything (correct for any in-RAM implementation).
  using ChunkFn = std::function<void(size_t, std::span<const SeriesView>)>;
  virtual void ForEachChunk(const ChunkFn& fn) const;

  /// Provider of precomputed per-series rolling statistics (core/znorm.h),
  /// or nullptr. Store-backed views serve write-time sidecars through
  /// this, letting MatrixProfileEngine::BuildTable skip its stats
  /// pass with bitwise-identical results.
  virtual const SeriesStatsProvider* stats_provider() const {
    return nullptr;
  }

  bool empty() const { return size() == 0; }
  SeriesView operator[](size_t i) const { return At(i); }

  /// Number of distinct classes, computed as 1 + max label over the
  /// LABELLED series: unlabelled (label == kUnlabeledSeries) series are
  /// skipped explicitly instead of silently shifting the count. Labels
  /// below kUnlabeledSeries are a caller bug and abort.
  int NumClasses() const;

  /// Indices of the series whose label is `label`.
  std::vector<size_t> IndicesOfClass(int label) const;

  /// Lazy concatenation of all series of the given class (T_C). No values
  /// are copied until the caller streams or CopyTo()s them.
  ClassConcat ConcatenateClass(int label) const;

  /// Length of the longest series in the dataset (0 when empty).
  size_t MaxLength() const;

  /// Length of the shortest series in the dataset (0 when empty).
  size_t MinLength() const;

  /// The vector of labels, one per series.
  std::vector<int> Labels() const;

  /// Explicit deep copy into an owned in-RAM Dataset (the only copying
  /// API, and it says so in its name). Classifiers that must retain their
  /// training data beyond Fit() (1NN) use this.
  class Dataset Materialize() const;
};

/// A set of labelled time series (Def. 2), fully materialised in RAM: the
/// owning implementation of DatasetView. Class labels are expected to be
/// dense in [0, NumClasses()).
class Dataset final : public DatasetView {
 public:
  Dataset() = default;
  explicit Dataset(std::vector<TimeSeries> series);
  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = default;
  Dataset(const Dataset&) = default;
  Dataset& operator=(const Dataset&) = default;

  /// Appends a series.
  void Add(TimeSeries series);

  size_t size() const override { return series_.size(); }
  SeriesView At(size_t i) const override { return SeriesView(series_[i]); }

  /// Owner-only access to the backing series (views get SeriesView).
  const TimeSeries& operator[](size_t i) const { return series_[i]; }
  const std::vector<TimeSeries>& series() const { return series_; }

 private:
  std::vector<TimeSeries> series_;
};

/// Extracts the subsequence T[start, start+length) of series `t` as an
/// owned Subsequence with provenance filled in. Accepts any SeriesView
/// (TimeSeries converts implicitly).
Subsequence ExtractSubsequence(SeriesView t, size_t start, size_t length,
                               int series_index = -1);

}  // namespace ips

#endif  // IPS_CORE_TIME_SERIES_H_
