#include "serve/model_registry.h"

#include <fcntl.h>
#include <unistd.h>

#include <utility>

#include "data/ucr_loader.h"
#include "ips/serialization.h"
#include "store/columnar_store.h"

namespace ips::serve {

std::shared_ptr<ServedModel> ModelRegistry::Build(const std::string& name,
                                                  const ModelSource& source,
                                                  std::string* error) {
  const auto fail = [&](std::string reason) -> std::shared_ptr<ServedModel> {
    if (error != nullptr) *error = std::move(reason);
    return nullptr;
  };

  // The registry opens the artifact itself and parses through the fd path,
  // so policy (permissions, symlink handling) sits here rather than inside
  // the serialization layer.
  const int fd = ::open(source.artifact_path.c_str(), O_RDONLY);
  if (fd < 0) {
    return fail("cannot open artifact \"" + source.artifact_path + "\"");
  }
  std::string load_error;
  std::optional<RunResult> artifact = LoadRunResultFromFd(fd, &load_error);
  ::close(fd);
  if (!artifact) {
    return fail("artifact \"" + source.artifact_path + "\": " + load_error);
  }
  if (artifact->shapelets.empty()) {
    return fail("artifact \"" + source.artifact_path + "\" has no shapelets");
  }

  // The training split backs the refit only for the duration of
  // FitFromRunResult (the classifier copies what it keeps), so the store
  // mapping / loaded Dataset can die with this frame.
  std::unique_ptr<store::ColumnarStore> segment;
  std::optional<Dataset> loaded;
  const DatasetView* train = nullptr;
  if (store::LooksLikeStoreSegment(source.train_path)) {
    std::string store_error;
    segment = store::ColumnarStore::Open(source.train_path, &store_error);
    if (segment == nullptr) {
      return fail("store segment \"" + source.train_path +
                  "\": " + store_error);
    }
    train = segment.get();
  } else {
    loaded = LoadUcrFile(source.train_path, &load_error);
    if (!loaded) {
      return fail("cannot load training split \"" + source.train_path +
                  "\": " + load_error);
    }
    train = &*loaded;
  }
  if (train->empty()) {
    return fail("training split \"" + source.train_path + "\" is empty");
  }

  auto model = std::shared_ptr<ServedModel>(new ServedModel(source.options));
  model->name_ = name;
  model->train_size_ = train->size();
  model->classifier_.FitFromRunResult(*train, *artifact);
  return model;
}

uint32_t ModelRegistry::Load(const std::string& name,
                             const ModelSource& source, std::string* error) {
  // One builder at a time: a pair of racing reloads must observe strictly
  // ordered versions (build N fully swapped before build N+1 stamps).
  // Classify traffic never touches load_mu_.
  std::lock_guard<std::mutex> load_lock(load_mu_);
  std::shared_ptr<ServedModel> built = Build(name, source, error);
  if (built == nullptr) return 0;

  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[name];
  slot.source = source;
  built->version_ = slot.next_version++;
  slot.model = std::move(built);  // the swap: old model freed by last holder
  return slot.model->version();
}

uint32_t ModelRegistry::Reload(const std::string& name, std::string* error) {
  ModelSource source;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = slots_.find(name);
    if (it == slots_.end()) {
      if (error != nullptr) *error = "unknown model \"" + name + "\"";
      return 0;
    }
    source = it->second.source;
  }
  return Load(name, source, error);
}

std::shared_ptr<const ServedModel> ModelRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = slots_.find(name);
  return it == slots_.end() ? nullptr : it->second.model;
}

std::vector<std::string> ModelRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) names.push_back(name);
  return names;
}

size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

}  // namespace ips::serve
