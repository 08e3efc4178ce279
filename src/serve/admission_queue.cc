#include "serve/admission_queue.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace ips::serve {

namespace {

struct QueueMetrics {
  obs::Histogram& batch_size;
  obs::Histogram& queue_wait_us;
  obs::Histogram& batch_compute_us;
};

QueueMetrics& Metrics() {
  static QueueMetrics* metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
    return new QueueMetrics{registry.GetHistogram("serve.batch_size"),
                            registry.GetHistogram("serve.queue_wait_us"),
                            registry.GetHistogram("serve.batch_compute_us")};
  }();
  return *metrics;
}

uint64_t MicrosBetween(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

}  // namespace

AdmissionQueue::AdmissionQueue(Options options)
    : options_(options), dispatcher_([this] { DispatcherLoop(); }) {}

AdmissionQueue::~AdmissionQueue() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  dispatcher_.join();
}

std::vector<std::future<AdmissionQueue::Result>> AdmissionQueue::Submit(
    std::shared_ptr<const ServedModel> model,
    std::vector<std::vector<double>> series) {
  std::vector<Pending> frame(series.size());
  std::vector<std::future<Result>> futures;
  futures.reserve(frame.size());
  const auto now = std::chrono::steady_clock::now();
  for (size_t i = 0; i < frame.size(); ++i) {
    frame[i].model = model;
    frame[i].values = std::move(series[i]);
    frame[i].enqueued = now;
    futures.push_back(frame[i].promise.get_future());
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::move(frame.begin(), frame.end(), std::back_inserter(queue_));
  }
  cv_.notify_one();
  return futures;
}

uint64_t AdmissionQueue::batches_dispatched() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_;
}

void AdmissionQueue::DispatcherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping_ && drained

    // The oldest request's model instance anchors the batch. Take up to
    // max_batch of its requests in arrival order; other models' requests
    // stay queued for later rounds.
    const ServedModel* anchor = queue_.front().model.get();
    std::vector<Pending> batch;
    batch.reserve(options_.max_batch);
    for (auto it = queue_.begin();
         it != queue_.end() && batch.size() < options_.max_batch;) {
      if (it->model.get() == anchor) {
        batch.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    ++batches_;

    lock.unlock();
    RunBatch(std::move(batch));
    lock.lock();
  }
}

void AdmissionQueue::RunBatch(std::vector<Pending> batch) {
  const auto start = std::chrono::steady_clock::now();
  const std::shared_ptr<const ServedModel>& model = batch.front().model;
  Dataset queries;
  for (Pending& p : batch) {
    queries.Add(TimeSeries(std::move(p.values), /*label=*/-1));
  }
  const std::vector<int> labels = model->Classify(queries);
  const auto done = std::chrono::steady_clock::now();

  QueueMetrics& metrics = Metrics();
  metrics.batch_size.Observe(batch.size());
  metrics.batch_compute_us.Observe(MicrosBetween(start, done));
  const auto [entry, first] = model_metrics_.try_emplace(model->name());
  if (first) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
    const std::string prefix = "serve." + model->name();
    entry->second = {&registry.GetCounter(prefix + ".requests"),
                     &registry.GetHistogram(prefix + ".latency_us")};
  }
  entry->second.requests->Add(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    metrics.queue_wait_us.Observe(MicrosBetween(batch[i].enqueued, start));
    entry->second.latency_us->Observe(
        MicrosBetween(batch[i].enqueued, done));
    batch[i].promise.set_value(Result{labels[i], model->version()});
  }
}

}  // namespace ips::serve
