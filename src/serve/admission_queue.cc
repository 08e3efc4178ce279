#include "serve/admission_queue.h"

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

std::vector<AdmissionQueue::Result> AdmissionQueue::Submit(
    std::shared_ptr<const ServedModel> model,
    std::vector<std::vector<double>> series) {
  const size_t n = series.size();
  Ticket ticket{std::move(model), std::move(series), std::vector<Result>(n),
                std::chrono::steady_clock::now(), n, false, {}};
  std::unique_lock<std::mutex> lock(mu_);
  for (size_t i = 0; i < n; ++i) queue_.push_back({&ticket, i});
  if (running_) {
    ticket.cv.wait(lock,
                   [&] { return ticket.remaining == 0 || ticket.runner; });
    if (ticket.remaining == 0) return std::move(ticket.results);
  }
  // This thread is the runner until its frame is done. However the loop is
  // left, unwinding included, the guard passes the role to the owner of the
  // oldest queued frame, or frees it when nothing is queued.
  running_ = true;
  struct RunnerRole {
    AdmissionQueue& queue;
    std::unique_lock<std::mutex>& lock;
    ~RunnerRole() {
      if (!lock.owns_lock()) lock.lock();
      queue.running_ = !queue.queue_.empty();
      if (!queue.running_) return;
      queue.queue_.front().ticket->runner = true;
      queue.queue_.front().ticket->cv.notify_one();
    }
  } role{*this, lock};

  std::vector<Pending> batch;
  while (ticket.remaining > 0) {
    // The oldest request's model instance anchors the batch. Take up to
    // max_batch of its requests in arrival order; other models' requests
    // stay queued for later rounds.
    const ServedModel* anchor = queue_.front().ticket->model.get();
    batch.clear();
    for (auto it = queue_.begin();
         it != queue_.end() && batch.size() < options_.max_batch;) {
      if (it->ticket->model.get() == anchor) {
        batch.push_back(*it);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    ++batches_;

    lock.unlock();
    RunBatch(batch);
    lock.lock();
    for (const Pending& p : batch) {
      if (--p.ticket->remaining == 0 && p.ticket != &ticket) {
        p.ticket->cv.notify_one();
      }
    }
  }
  return std::move(ticket.results);
}

uint64_t AdmissionQueue::batches_dispatched() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_;
}

void AdmissionQueue::RunBatch(const std::vector<Pending>& batch) {
  const auto start = std::chrono::steady_clock::now();
  const ServedModel& model = *batch.front().ticket->model;
  Dataset queries;
  for (const Pending& p : batch) {
    queries.Add(TimeSeries(std::move(p.ticket->series[p.index]),
                           /*label=*/-1));
  }
  const std::vector<int> labels = model.Classify(queries);
  const auto done = std::chrono::steady_clock::now();

  QueueMetrics& metrics = Metrics();
  metrics.batch_size.Observe(batch.size());
  metrics.batch_compute_us.Observe(MicrosBetween(start, done));
  const auto [entry, first] = model_metrics_.try_emplace(model.name());
  if (first) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
    const std::string prefix = "serve." + model.name();
    entry->second = {&registry.GetCounter(prefix + ".requests"),
                     &registry.GetHistogram(prefix + ".latency_us")};
  }
  entry->second.requests->Add(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    Ticket& t = *batch[i].ticket;
    metrics.queue_wait_us.Observe(MicrosBetween(t.enqueued, start));
    entry->second.latency_us->Observe(MicrosBetween(t.enqueued, done));
    t.results[batch[i].index] = Result{labels[i], model.version()};
  }
}

}  // namespace ips::serve
