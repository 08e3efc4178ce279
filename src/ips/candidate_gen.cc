#include "ips/candidate_gen.h"

#include <algorithm>

#include "ips/instance_profile.h"
#include "matrix_profile/mp_engine.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/check.h"

namespace ips {

size_t CandidatePool::TotalMotifs() const {
  size_t n = 0;
  for (const auto& [label, pool] : motifs) n += pool.size();
  return n;
}

size_t CandidatePool::TotalDiscords() const {
  size_t n = 0;
  for (const auto& [label, pool] : discords) n += pool.size();
  return n;
}

std::vector<Subsequence> CandidatePool::AllOfClass(int label) const {
  std::vector<Subsequence> out;
  if (const auto it = motifs.find(label); it != motifs.end()) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  if (const auto it = discords.find(label); it != discords.end()) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

std::map<int, std::vector<Subsequence>> CandidatePool::MergedByClass() const {
  std::map<int, std::vector<Subsequence>> by_class;
  for (const auto& [label, pool] : motifs) {
    if (pool.empty()) continue;
    auto merged = AllOfClass(label);
    by_class.emplace(label, std::move(merged));
  }
  for (const auto& [label, pool] : discords) {
    if (pool.empty() || by_class.count(label) != 0) continue;
    auto merged = AllOfClass(label);
    by_class.emplace(label, std::move(merged));
  }
  return by_class;
}

std::vector<size_t> ResolveCandidateLengths(
    size_t series_length, std::span<const double> ratios) {
  IPS_CHECK(series_length >= 4);
  std::vector<size_t> lengths;
  for (double r : ratios) {
    size_t l = static_cast<size_t>(r * static_cast<double>(series_length));
    l = std::clamp<size_t>(l, 4, series_length);
    lengths.push_back(l);
  }
  std::sort(lengths.begin(), lengths.end());
  lengths.erase(std::unique(lengths.begin(), lengths.end()), lengths.end());
  return lengths;
}

CandidatePool GenerateCandidates(const DatasetView& train,
                                 const IpsOptions& options, Rng& rng) {
  IPS_CHECK(!train.empty());
  IPS_CHECK(options.sample_size >= 1);
  IPS_CHECK(options.sample_count >= 1);

  const std::vector<size_t> lengths =
      ResolveCandidateLengths(train.MinLength(), options.length_ratios);
  const int num_classes = train.NumClasses();

  // Draw every (class, sample) task up front with the shared RNG, so the
  // parallel profile computation below is deterministic for any thread
  // count (Alg. 1 line 4's random sampling).
  struct Task {
    int label;
    // Views into the training view's storage, not copies: for an
    // out-of-core train set the samples address mapped chunks directly,
    // which is what lets the engine's stats provider recognise them.
    std::vector<SeriesView> sample;
    std::vector<size_t> dataset_index;  // provenance of each sample member
    std::vector<Subsequence> motifs;    // task-local outputs
    std::vector<Subsequence> discords;
  };
  std::vector<Task> tasks;
  for (int label = 0; label < num_classes; ++label) {
    const std::vector<size_t> class_indices = train.IndicesOfClass(label);
    if (class_indices.empty()) continue;
    const size_t sample_size =
        std::min(options.sample_size, class_indices.size());
    for (size_t s = 0; s < options.sample_count; ++s) {
      const std::vector<size_t> picks =
          rng.SampleWithoutReplacement(class_indices.size(), sample_size);
      Task task;
      task.label = label;
      for (size_t p : picks) {
        task.dataset_index.push_back(class_indices[p]);
        task.sample.push_back(train.At(class_indices[p]));
      }
      tasks.push_back(std::move(task));
    }
  }

  // Instance profiles per task (the expensive part). The pool's
  // nested-inline rule means only one level can fan out, so the thread
  // budget goes entirely to tasks (outer) when there are enough of them,
  // and entirely to each task's MatrixProfileEngine (inner: diagonal
  // sharding within a join) otherwise -- few tasks still use every core.
  // Neither split affects results: the engine is bitwise thread-count
  // independent and the merge below runs in task order.
  const size_t threads = ResolveNumThreads(options.num_threads);
  const size_t outer = tasks.size() >= threads ? threads : 1;
  const size_t inner = outer == 1 ? threads : 1;
  const size_t min_length = train.MinLength();
  // The span covers every task's profiles and their motif/discord picks
  // (Alg. 1 lines 5-6); it feeds IpsRunStats::profile_seconds. The per-task
  // engines publish their mp.* counters to the registry as they run.
  {
    IPS_SPAN("instance_profile");
    ParallelFor(tasks.size(), outer, [&](size_t t) {
      Task& task = tasks[t];
      // Per-task engine; each window length's profile builds and drops its
      // own artifact table.
      MatrixProfileEngine engine(inner);
      // Store-backed training views serve write-time sidecars through this,
      // replacing the table build's stats pass with bitwise-identical fills.
      engine.set_stats_provider(train.stats_provider());
      for (size_t window : lengths) {
        if (min_length < window) continue;
        const InstanceProfile ip = ComputeInstanceProfile(
            std::span<const SeriesView>(task.sample), window,
            options.profile_neighbors, &engine, options.metric);

        auto extract = [&](std::span<const size_t> entries,
                           std::vector<Subsequence>& dst) {
          for (size_t e : entries) {
            const size_t m = ip.instances[e];
            dst.push_back(ExtractSubsequence(
                task.sample[m], ip.offsets[e], window,
                static_cast<int>(task.dataset_index[m])));
          }
        };
        extract(
            InstanceProfileMotifs(ip, options.candidates_per_profile, window),
            task.motifs);
        extract(InstanceProfileDiscords(ip, options.candidates_per_profile,
                                        window),
                task.discords);
      }
    });
  }

  // Merge in task order (stable across thread counts).
  CandidatePool pool;
  for (Task& task : tasks) {
    auto& motif_pool = pool.motifs[task.label];
    auto& discord_pool = pool.discords[task.label];
    for (auto& m : task.motifs) motif_pool.push_back(std::move(m));
    for (auto& d : task.discords) discord_pool.push_back(std::move(d));
  }
  return pool;
}

}  // namespace ips
