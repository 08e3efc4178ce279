// Caller-runs admission queue: runs classify requests as
// IpsClassifier::PredictBatch batches on the threads that submit them, and
// never waits for company. It owns no thread.
//
// A frame is submitted whole, under one lock. One submitter at a time is
// the runner; one that finds none becomes it, so a lone request runs on its
// own thread at once. The runner takes what is queued for the oldest
// request's model instance, up to `max_batch` (the only knob) series in
// arrival order, and runs it; requests arriving meanwhile form the next
// batch. With its own frame done, the runner hands the role to the owner of
// the oldest queued frame.
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
// (enqueue to classification: queue wait + inference).

#ifndef IPS_SERVE_ADMISSION_QUEUE_H_
#define IPS_SERVE_ADMISSION_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/model_registry.h"

namespace ips::serve {

class AdmissionQueue {
 public:
  struct Options {
    /// Largest batch handed to PredictBatch; a longer backlog for one
    /// model runs as several batches.
    size_t max_batch = 64;
  };

  struct Result {
    int label = -1;
    uint32_t model_version = 0;
  };

  explicit AdmissionQueue(Options options) : options_(options) {}

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Classifies every series of one request against `model` (non-null,
  /// fully loaded); returns one result per series, in order. Meanwhile the
  /// calling thread may run other frames' batches as the runner.
  std::vector<Result> Submit(std::shared_ptr<const ServedModel> model,
                             std::vector<std::vector<double>> series);

  /// Batches run so far (test/bench visibility).
  uint64_t batches_dispatched() const;

 private:
  /// One submitted frame, on its Submit call's stack.
  struct Ticket {
    std::shared_ptr<const ServedModel> model;
    std::vector<std::vector<double>> series;  ///< moved out by its batches
    std::vector<Result> results;              ///< written by its batches
    std::chrono::steady_clock::time_point enqueued;
    size_t remaining = 0;  ///< series not yet classified (guarded by mu_)
    bool runner = false;   ///< handed the runner role (guarded by mu_)
    std::condition_variable cv;
  };
  struct Pending {
    Ticket* ticket;
    size_t index;
  };
  struct ModelMetrics {
    obs::Counter* requests = nullptr;
    obs::Histogram* latency_us = nullptr;
  };

  /// Classifies `batch` (one model instance) into its tickets' results.
  void RunBatch(const std::vector<Pending>& batch);

  const Options options_;
  /// serve.<model>.requests / .latency_us by model name, resolved on the
  /// model's first batch. Touched only by the runner.
  std::map<std::string, ModelMetrics> model_metrics_;
  mutable std::mutex mu_;
  std::deque<Pending> queue_;
  bool running_ = false;  ///< some submitter holds the runner role
  uint64_t batches_ = 0;
};

}  // namespace ips::serve

#endif  // IPS_SERVE_ADMISSION_QUEUE_H_
