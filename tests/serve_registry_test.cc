// Concurrency tests of the serving hot-swap contract (serve/model_registry.h),
// run under TSan/ASan via the `concurrency` CTest label: classify traffic
// hammers the registry while models are swapped underneath it. Every
// in-flight prediction must be bitwise identical to a serial run against
// whichever model version it started on, and no request may ever observe
// a half-loaded model (nullptr, empty shapelets, or labels matching
// neither version).

#include "serve/model_registry.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/ucr_loader.h"
#include "ips/pipeline.h"
#include "ips/serialization.h"
#include "obs/metrics.h"
#include "serve/admission_queue.h"

namespace ips::serve {
namespace {

IpsOptions FastOptions() {
  IpsOptions o;
  o.sample_count = 4;
  o.sample_size = 3;
  o.length_ratios = {0.2};
  o.shapelets_per_class = 3;
  return o;
}

/// Two genuinely different artifacts over one train split, plus the
/// serially-computed expected labels for each. Odd registry versions serve
/// artifact A (loaded first), even versions artifact B (the swap target).
class RegistrySwapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    namespace fs = std::filesystem;
    dir_ = fs::temp_directory_path() /
           ("ips_reg_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    artifact_path_ = (dir_ / "model.ipsrun").string();
    train_path_ = (dir_ / "train.tsv").string();

    GeneratorSpec spec;
    spec.name = "registry";
    spec.train_size = 12;
    spec.test_size = 8;
    spec.length = 64;
    data_ = GenerateDataset(spec);
    ASSERT_TRUE(SaveUcrFile(data_.train, train_path_));

    IpsClassifier a(FastOptions());
    a.Fit(data_.train);
    artifact_a_ = SerializeRunResult(a.result());

    IpsOptions alt = FastOptions();
    alt.seed = 777;
    alt.shapelets_per_class = 2;
    IpsClassifier b(alt);
    b.Fit(data_.train);
    artifact_b_ = SerializeRunResult(b.result());
    ASSERT_NE(artifact_a_, artifact_b_) << "swap would be unobservable";

    // The serial ground truth per artifact: rebuild exactly the way the
    // registry does and predict the test batch once.
    IpsClassifier serial_a(FastOptions());
    serial_a.FitFromRunResult(data_.train, a.result());
    expected_a_ = serial_a.PredictBatch(data_.test);
    IpsClassifier serial_b(FastOptions());
    serial_b.FitFromRunResult(data_.train, b.result());
    expected_b_ = serial_b.PredictBatch(data_.test);

    WriteArtifact(artifact_a_);
    std::string error;
    ASSERT_EQ(registry_.Load("m",
                             ModelSource{artifact_path_, train_path_,
                                         FastOptions()},
                             &error),
              1u)
        << error;
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  void WriteArtifact(const std::string& text) {
    std::ofstream out(artifact_path_, std::ios::trunc);
    out << text;
  }

  const std::vector<int>& ExpectedForVersion(uint32_t version) const {
    return version % 2 == 1 ? expected_a_ : expected_b_;
  }

  std::filesystem::path dir_;
  std::string artifact_path_, train_path_;
  TrainTestSplit data_;
  std::string artifact_a_, artifact_b_;
  std::vector<int> expected_a_, expected_b_;
  ModelRegistry registry_;
};

TEST_F(RegistrySwapTest, ClassifyTrafficDuringHotSwaps) {
  constexpr int kReaders = 4;
  constexpr int kSwaps = 6;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const std::shared_ptr<const ServedModel> model = registry_.Get("m");
        // A registered name must never resolve to nothing or to a model
        // without shapelets, no matter where the swap is.
        if (model == nullptr || model->shapelet_count() == 0) {
          failures.fetch_add(1);
          continue;
        }
        const uint32_t version = model->version();
        const std::vector<int> labels = model->Classify(data_.test);
        // Bitwise identical to the serial run against the version this
        // request started on -- even if the slot was swapped mid-call.
        if (labels != ExpectedForVersion(version)) failures.fetch_add(1);
      }
    });
  }

  uint32_t version = 1;
  for (int s = 0; s < kSwaps; ++s) {
    WriteArtifact(s % 2 == 0 ? artifact_b_ : artifact_a_);
    std::string error;
    const uint32_t swapped = registry_.Reload("m", &error);
    ASSERT_EQ(swapped, version + 1) << error;
    version = swapped;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(registry_.Get("m")->version(), 1u + kSwaps);
}

TEST_F(RegistrySwapTest, InFlightHoldersFinishOnTheirVersion) {
  const std::shared_ptr<const ServedModel> old_model = registry_.Get("m");
  ASSERT_EQ(old_model->version(), 1u);

  WriteArtifact(artifact_b_);
  std::string error;
  ASSERT_EQ(registry_.Reload("m", &error), 2u) << error;

  // The held pointer still serves artifact A's predictions, bit for bit;
  // new Get()s see version 2.
  EXPECT_EQ(old_model->Classify(data_.test), expected_a_);
  EXPECT_EQ(old_model->version(), 1u);
  const std::shared_ptr<const ServedModel> new_model = registry_.Get("m");
  EXPECT_EQ(new_model->version(), 2u);
  EXPECT_NE(new_model.get(), old_model.get());
  EXPECT_EQ(new_model->Classify(data_.test), expected_b_);
}

TEST_F(RegistrySwapTest, AdmissionQueueBatchesSplitCleanlyAcrossSwap) {
  AdmissionQueue::Options queue_options;
  queue_options.max_batch = 16;
  AdmissionQueue queue(queue_options);

  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 40;
  std::atomic<int> failures{0};
  std::atomic<bool> stop_swapping{false};

  std::thread swapper([&] {
    int s = 0;
    while (!stop_swapping.load(std::memory_order_acquire)) {
      WriteArtifact(s++ % 2 == 0 ? artifact_b_ : artifact_a_);
      std::string error;
      if (registry_.Reload("m", &error) == 0) failures.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const size_t index = static_cast<size_t>(i) % data_.test.size();
        const std::shared_ptr<const ServedModel> model = registry_.Get("m");
        const AdmissionQueue::Result result =
            queue.Submit(model, {data_.test[index].values}).front();
        // The queue groups batches by model instance, so the result must
        // carry the version the request was admitted with and the label
        // the serial run of THAT version produces for this series.
        if (result.model_version != model->version() ||
            result.label != ExpectedForVersion(result.model_version)[index]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  stop_swapping.store(true, std::memory_order_release);
  swapper.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(queue.batches_dispatched(), 0u);
}

// An idle queue runs whatever is queued at once, on the submitting thread,
// and a frame enters the queue whole: a frame of up to max_batch series is
// exactly one batch, a longer one splits into max_batch-sized batches, and
// the labels come back in request order, equal to PredictBatch.
TEST_F(RegistrySwapTest, AdmissionQueueDispatchesWholeFramesOnArrival) {
  AdmissionQueue::Options queue_options;
  queue_options.max_batch = 16;
  AdmissionQueue queue(queue_options);
  const std::shared_ptr<const ServedModel> model = registry_.Get("m");
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Instance().Snapshot();

  const auto submit_frame = [&](size_t n) {
    std::vector<std::vector<double>> frame;
    for (size_t i = 0; i < n; ++i) {
      frame.push_back(data_.test[i % data_.test.size()].values);
    }
    const std::vector<AdmissionQueue::Result> results =
        queue.Submit(model, std::move(frame));
    EXPECT_EQ(results.size(), n);
    for (size_t i = 0; i < results.size(); ++i) {
      const AdmissionQueue::Result& result = results[i];
      EXPECT_EQ(result.model_version, 1u);
      EXPECT_EQ(result.label, expected_a_[i % data_.test.size()])
          << "series " << i << " of " << n;
    }
  };

  submit_frame(16);
  EXPECT_EQ(queue.batches_dispatched(), 1u);
  submit_frame(40);
  EXPECT_EQ(queue.batches_dispatched(), 4u);  // 16 + 16 + 8

  // The per-series metrics hold 56 samples, the per-batch ones 4.
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Instance().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("serve.m.requests"), 56u);
  EXPECT_EQ(delta.histograms.at("serve.m.latency_us").count, 56u);
  EXPECT_EQ(delta.histograms.at("serve.queue_wait_us").count, 56u);
  EXPECT_EQ(delta.histograms.at("serve.batch_compute_us").count, 4u);
  EXPECT_EQ(delta.histograms.at("serve.batch_size").count, 4u);
  EXPECT_EQ(delta.histograms.at("serve.batch_size").sum, 56u);
}

size_t ProcessThreads() {
  size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

// The queue owns no thread: constructing it starts none, and a submitter
// finding the queue idle classifies its frame on its own thread.
TEST_F(RegistrySwapTest, AdmissionQueueStartsNoThread) {
  const size_t before = ProcessThreads();
  AdmissionQueue queue(AdmissionQueue::Options{});
  EXPECT_EQ(ProcessThreads(), before);
  const std::vector<AdmissionQueue::Result> results =
      queue.Submit(registry_.Get("m"), {data_.test[0].values});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].label, expected_a_[0]);
  EXPECT_EQ(ProcessThreads(), before);
}

// Eight submitters send frames of 1-40 series through max_batch 16 against
// two model instances, and swap which instance each frame uses mid-run.
// Every Submit returns, and every result carries its own instance's
// version and that instance's serial label. A batch runs on one model and
// stamps its version on every result, so a mixed batch would show as a
// foreign version here.
TEST_F(RegistrySwapTest, AdmissionQueueStressAcrossTwoInstances) {
  const std::shared_ptr<const ServedModel> a = registry_.Get("m");
  WriteArtifact(artifact_b_);
  std::string error;
  ASSERT_EQ(registry_.Reload("m", &error), 2u) << error;
  const std::shared_ptr<const ServedModel> b = registry_.Get("m");

  AdmissionQueue::Options queue_options;
  queue_options.max_batch = 16;
  AdmissionQueue queue(queue_options);
  constexpr size_t kSubmitters = 8;
  constexpr size_t kFrames = 24;
  std::atomic<size_t> frames_done{0};
  std::atomic<bool> swapped{false};
  std::atomic<int> failures{0};
  std::atomic<size_t> series_sent{0};

  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t f = 0; f < kFrames; ++f) {
        const bool pick_b = (t + f + swapped.load()) % 2 == 1;
        const std::shared_ptr<const ServedModel>& model = pick_b ? b : a;
        const size_t n = 1 + (7 * t + 13 * f) % 40;
        std::vector<std::vector<double>> frame;
        std::vector<size_t> index;
        for (size_t i = 0; i < n; ++i) {
          index.push_back((t + f + i) % data_.test.size());
          frame.push_back(data_.test[index.back()].values);
        }
        series_sent.fetch_add(n);
        const std::vector<AdmissionQueue::Result> results =
            queue.Submit(model, std::move(frame));
        const std::vector<int>& want = pick_b ? expected_b_ : expected_a_;
        if (results.size() != n) failures.fetch_add(1);
        for (size_t i = 0; i < results.size() && i < n; ++i) {
          if (results[i].model_version != model->version() ||
              results[i].label != want[index[i]]) {
            failures.fetch_add(1);
          }
        }
        if (frames_done.fetch_add(1) + 1 == kSubmitters * kFrames / 2) {
          swapped.store(true);
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(swapped.load());
  // No batch exceeded max_batch, and no frame was answered without one.
  EXPECT_GE(queue.batches_dispatched(), (series_sent.load() + 15) / 16);
  EXPECT_LE(queue.batches_dispatched(), series_sent.load());
}

TEST_F(RegistrySwapTest, ConcurrentReloadsSerialiseWithMonotonicVersions) {
  constexpr int kThreads = 4;
  constexpr int kReloadsEach = 3;
  std::vector<std::vector<uint32_t>> versions(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kReloadsEach; ++i) {
        std::string error;
        const uint32_t v = registry_.Reload("m", &error);
        if (v != 0) versions[static_cast<size_t>(t)].push_back(v);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Every reload succeeded and was assigned a distinct version; the final
  // slot version is the initial 1 plus one per reload.
  std::vector<uint32_t> all;
  for (const auto& v : versions) all.insert(all.end(), v.begin(), v.end());
  ASSERT_EQ(all.size(), static_cast<size_t>(kThreads * kReloadsEach));
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "duplicate version assigned";
  EXPECT_EQ(all.back(), 1u + kThreads * kReloadsEach);
  EXPECT_EQ(registry_.Get("m")->version(), all.back());
}

TEST_F(RegistrySwapTest, ReloadFromABadSplitNamesTheRowAndKeepsTheOldModel) {
  const std::shared_ptr<const ServedModel> before = registry_.Get("m");
  ASSERT_NE(before, nullptr);
  // The split gains a row whose third value is an infinity.
  {
    std::ofstream out(train_path_, std::ios::app);
    out << "0\t0.5\t1.5\t-inf\t2.5\n";
  }
  const size_t bad_line = data_.train.size() + 1;
  std::string error;
  EXPECT_EQ(registry_.Reload("m", &error), 0u);
  EXPECT_EQ(error, "cannot load training split \"" + train_path_ + "\": " +
                       train_path_ + ": line " + std::to_string(bad_line) +
                       ", field 4: infinity");
  // The failed reload swapped nothing: the same model object, version and
  // labels keep serving.
  const std::shared_ptr<const ServedModel> after = registry_.Get("m");
  EXPECT_EQ(after, before);
  EXPECT_EQ(after->version(), 1u);
  EXPECT_EQ(after->Classify(data_.test), expected_a_);
}

TEST(ModelRegistryTest, UnknownNamesAndBadSources) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Get("nope"), nullptr);
  std::string error;
  EXPECT_EQ(registry.Reload("nope", &error), 0u);
  EXPECT_NE(error.find("unknown model"), std::string::npos) << error;
  EXPECT_EQ(registry.Load("bad",
                          ModelSource{"/no/such/artifact", "/no/such/train",
                                      IpsOptions{}},
                          &error),
            0u);
  EXPECT_FALSE(error.empty());
  // A failed first-time Load must not register a half-initialised slot.
  EXPECT_EQ(registry.Get("bad"), nullptr);
  EXPECT_EQ(registry.size(), 0u);
}

}  // namespace
}  // namespace ips::serve
