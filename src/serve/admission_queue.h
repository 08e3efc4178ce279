// Work-conserving admission queue: runs classify requests as
// IpsClassifier::PredictBatch batches and never waits for company.
//
// A request frame is submitted whole: its series enter the queue under one
// lock. Whenever the dispatcher is free it takes what is queued for the
// oldest request's model instance, up to `max_batch` series in arrival
// order, and runs it at once. So an idle server runs a 64-series frame as
// one batch and a lone series immediately, and requests arriving while a
// batch computes form the next batch: batches grow with load on their own.
// `max_batch` is the only knob.
//
// Correctness: PredictBatch labels are bitwise identical to the serial
// per-series Predict loop for any batch composition, so batching is
// invisible in the responses -- the property bench_serve's checksum gate
// proves end-to-end. Batches group by model INSTANCE (the shared_ptr a
// request arrived with), so a hot-swap mid-queue simply splits batches:
// requests that entered with the old model finish on the old model.
//
// Metrics (docs/serving.md): per batch, serve.batch_size and
// serve.batch_compute_us; per series, serve.queue_wait_us (enqueue to
// batch start) and the model's serve.<model>.requests and .latency_us
// (enqueue to fulfillment: queue wait + inference).

#ifndef IPS_SERVE_ADMISSION_QUEUE_H_
#define IPS_SERVE_ADMISSION_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/model_registry.h"

namespace ips::serve {

class AdmissionQueue {
 public:
  struct Options {
    /// Largest batch handed to PredictBatch; a longer backlog for one
    /// model dispatches as several batches.
    size_t max_batch = 64;
  };

  struct Result {
    int label = -1;
    uint32_t model_version = 0;
  };

  explicit AdmissionQueue(Options options);
  /// Drains every pending request, then stops the dispatcher.
  ~AdmissionQueue();

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Enqueues every series of one request against `model` (non-null,
  /// fully loaded) under a single lock. Returns one future per series, in
  /// order; each resolves once its series' batch has been classified.
  std::vector<std::future<Result>> Submit(
      std::shared_ptr<const ServedModel> model,
      std::vector<std::vector<double>> series);

  /// Batches dispatched so far (test/bench visibility).
  uint64_t batches_dispatched() const;

 private:
  struct Pending {
    std::shared_ptr<const ServedModel> model;
    std::vector<double> values;
    std::promise<Result> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  struct ModelMetrics {
    obs::Counter* requests = nullptr;
    obs::Histogram* latency_us = nullptr;
  };

  void DispatcherLoop();
  void RunBatch(std::vector<Pending> batch);

  const Options options_;
  /// serve.<model>.requests / .latency_us by model name, resolved on the
  /// model's first batch. Touched only by the dispatcher thread.
  std::map<std::string, ModelMetrics> model_metrics_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  uint64_t batches_ = 0;
  std::thread dispatcher_;
};

}  // namespace ips::serve

#endif  // IPS_SERVE_ADMISSION_QUEUE_H_
