// Concurrent model registry of the shapelet model server.
//
// A "model" is one versioned ips-run artifact (ips/serialization.h)
// rebuilt into a ready-to-serve IpsClassifier: the artifact supplies the
// shapelets and metric, the training split supplies the data the transform
// and back-end are refit on (a saved shapelet set plus the training set is
// sufficient to rebuild a classifier -- the serialization contract).
//
// Lifetime/hot-swap contract (docs/serving.md):
//  * Every registered name owns one slot holding a shared_ptr to an
//    immutable, fully-constructed ServedModel -- the same single-slot
//    pattern as the join scheduler's ArtifactTable: readers copy the
//    pointer under a brief lock and then use the model lock-free for as
//    long as they like.
//  * Load/Reload builds the replacement model entirely OFF the registry
//    lock (artifact parse, training-set load, transform + back-end fit)
//    and only then swaps the slot pointer. A failed build leaves the slot
//    untouched: the old model keeps serving and the error is reported to
//    the caller -- no request can ever observe a half-loaded model.
//  * In-flight requests holding the old shared_ptr finish on the model
//    they started on; the old model is destroyed when the last holder
//    drops it.
//  * Versions are monotonic per slot (1, 2, ...), assigned at swap time;
//    classify responses carry the version so clients can correlate
//    answers with reloads.

#ifndef IPS_SERVE_MODEL_REGISTRY_H_
#define IPS_SERVE_MODEL_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/metric.h"
#include "ips/config.h"
#include "ips/pipeline.h"

namespace ips::serve {

/// Where a model comes from: the saved run artifact plus the training
/// split it was discovered on. `train_path` may be either a UCR text file
/// (data/ucr_loader.h) or an `ips-store v1` columnar segment
/// (store/columnar_store.h) -- the registry sniffs the magic and opens the
/// store out-of-core, so serving a model never materialises the training
/// corpus in RAM.
struct ModelSource {
  std::string artifact_path;
  std::string train_path;
  /// Pipeline options for the rebuild (back-end, threads, early-abandon).
  /// The metric is always overridden by the artifact's.
  IpsOptions options;
};

/// One immutable, fully-fitted model. Never mutated after construction;
/// shared by any number of concurrent readers. Classify() is thread-safe
/// (IpsClassifier::PredictBatch is const and runs on per-thread scratch).
class ServedModel {
 public:
  const std::string& name() const { return name_; }
  uint32_t version() const { return version_; }
  MetricId metric() const { return classifier_.result().metric; }
  size_t shapelet_count() const {
    return classifier_.result().shapelets.size();
  }
  size_t train_size() const { return train_size_; }

  /// Batched classification; out[i] is the label of batch[i], bitwise equal
  /// to a per-series Predict loop, so batching is invisible. Reads the
  /// fitted ShapeletBank lock-free: a one-series batch builds no engine.
  std::vector<int> Classify(const DatasetView& batch) const {
    return classifier_.PredictBatch(batch);
  }

 private:
  friend class ModelRegistry;
  explicit ServedModel(IpsOptions options) : classifier_(std::move(options)) {}

  std::string name_;
  uint32_t version_ = 0;
  size_t train_size_ = 0;
  IpsClassifier classifier_;
};

class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers `name` (first call) or hot-swaps it (subsequent calls) from
  /// `source`. Builds off-lock, swaps atomically on success. Returns the
  /// new slot version (>= 1), or 0 with `*error` set on failure -- in
  /// which case a previously-registered model keeps serving unchanged.
  uint32_t Load(const std::string& name, const ModelSource& source,
                std::string* error = nullptr);

  /// Re-reads `name`'s recorded source from disk and hot-swaps. Same
  /// contract as Load; 0 when the name was never registered.
  uint32_t Reload(const std::string& name, std::string* error = nullptr);

  /// The current model under `name`, or nullptr. The returned pointer is
  /// valid for as long as the caller holds it, across any number of
  /// subsequent swaps.
  std::shared_ptr<const ServedModel> Get(const std::string& name) const;

  std::vector<std::string> Names() const;
  size_t size() const;

 private:
  struct Slot {
    ModelSource source;
    std::shared_ptr<const ServedModel> model;
    uint32_t next_version = 1;
  };

  /// Builds a ServedModel from `source` (no locks held). nullptr + error
  /// on any failure. The version is stamped later, at swap time.
  static std::shared_ptr<ServedModel> Build(const std::string& name,
                                            const ModelSource& source,
                                            std::string* error);

  mutable std::mutex mu_;   ///< guards slots_ (map shape + slot pointers)
  std::mutex load_mu_;      ///< serialises builders so concurrent reloads
                            ///< of one name cannot race version order
  std::map<std::string, Slot> slots_;
};

}  // namespace ips::serve

#endif  // IPS_SERVE_MODEL_REGISTRY_H_
