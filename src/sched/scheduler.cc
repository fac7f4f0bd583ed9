#include "sched/scheduler.h"

#include <algorithm>

namespace sesemi::sched {

RequestScheduler::RequestScheduler(const SchedulerConfig& config, Clock* clock)
    : queue_(config.policy), admission_(config.limits) {
  if (clock == nullptr) {
    owned_clock_ = std::make_unique<RealClock>();
    clock_ = owned_clock_.get();
  } else {
    clock_ = clock;
  }
}

Status RequestScheduler::RegisterFunction(const std::string& function,
                                          const FunctionSchedParams& params) {
  SESEMI_RETURN_IF_ERROR(queue_.RegisterFunction(function, params));
  SESEMI_RETURN_IF_ERROR(admission_.RegisterFunction(function, params));
  std::unique_lock<std::shared_mutex> lock(params_mutex_);
  params_.try_emplace(function, std::make_unique<FunctionSchedParams>(params));
  return Status::OK();
}

const FunctionSchedParams* RequestScheduler::function_params(
    const std::string& function) const {
  std::shared_lock<std::shared_mutex> lock(params_mutex_);
  auto it = params_.find(function);
  return it == params_.end() ? nullptr : it->second.get();
}

Status RequestScheduler::Submit(QueuedRequest request, uint64_t payload_bytes) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const std::string function = request.function;
  const TimeMicros now = clock_->Now();
  SESEMI_RETURN_IF_ERROR(admission_.Admit(function, payload_bytes, now));
  request.payload_bytes = payload_bytes;
  Status enq = queue_.Enqueue(std::move(request), now);
  if (!enq.ok()) {
    // Unregistered-in-queue can only happen on a registration race; refund
    // the admission claim so accounting stays balanced.
    admission_.OnDequeue(function, payload_bytes);
    return enq;
  }
  return Status::OK();
}

std::vector<QueuedRequest> RequestScheduler::PopBatch(
    ClassMask classes, std::vector<QueuedRequest>* expired) {
  std::vector<QueuedRequest> batch;
  // Deadlines gate execution only under DeadlineEdf; the other policies treat
  // them as metadata.
  const bool shed = queue_.policy_kind() == PolicyKind::kDeadlineEdf;

  QueuedRequest head;
  TimeMicros now = 0;
  for (;;) {
    if (!queue_.PopNext(classes, &head)) return batch;
    now = clock_->Now();
    admission_.OnDequeue(head.function, head.payload_bytes);
    if (shed && head.deadline != kNoDeadline && head.deadline < now) {
      // Expired while queued: shed it (typed reject at the caller), never
      // execute it, and keep popping — EDF pops earliest-deadline first, so
      // live work is still behind this head.
      drops_.fetch_add(1, std::memory_order_relaxed);
      if (expired != nullptr) expired->push_back(std::move(head));
      continue;
    }
    break;
  }

  int max_batch = 1;
  if (const FunctionSchedParams* params = function_params(head.function)) {
    max_batch = params->max_batch;
  }

  RecordWait(head.priority, now - head.enqueue_time);

  batch.reserve(static_cast<size_t>(std::max(max_batch, 1)));
  batch.push_back(std::move(head));
  if (max_batch > 1) {
    batcher_.Coalesce(&queue_, batch.front(), max_batch, &batch);
    size_t live = 1;
    for (size_t i = 1; i < batch.size(); ++i) {
      admission_.OnDequeue(batch[i].function, batch[i].payload_bytes);
      if (shed && batch[i].deadline != kNoDeadline && batch[i].deadline < now) {
        drops_.fetch_add(1, std::memory_order_relaxed);
        if (expired != nullptr) expired->push_back(std::move(batch[i]));
        continue;
      }
      RecordWait(batch[i].priority, now - batch[i].enqueue_time);
      if (live != i) batch[live] = std::move(batch[i]);
      live++;
    }
    batch.resize(live);
  }
  batcher_.RecordDispatch(batch.size());
  dispatched_.fetch_add(batch.size(), std::memory_order_relaxed);
  return batch;
}

void RequestScheduler::RecordWait(int priority, TimeMicros wait) {
  if (wait < 0) wait = 0;
  priority = std::clamp(priority, 0, kNumPriorityClasses - 1);
  WaitWindow& w = waits_[priority];
  std::lock_guard<std::mutex> lock(w.mutex);
  if (w.samples.size() < WaitWindow::kCapacity) {
    w.samples.push_back(wait);
  } else {
    w.samples[w.next] = wait;
    w.next = (w.next + 1) % WaitWindow::kCapacity;
  }
  w.count++;
}

namespace {
TimeMicros Percentile(std::vector<TimeMicros>& sorted, double pct) {
  if (sorted.empty()) return 0;
  const double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(rank + 0.5)];
}
}  // namespace

SchedStats RequestScheduler::stats() const {
  SchedStats s;
  s.policy = queue_.policy().name();
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.dispatched = dispatched_.load(std::memory_order_relaxed);

  const AdmissionStats a = admission_.stats();
  s.admitted = a.admitted;
  s.rejected_rate = a.rejected_rate;
  s.rejected_depth = a.rejected_depth;
  s.rejected_global = a.rejected_global;
  s.drops = drops_.load(std::memory_order_relaxed);
  s.queue_depth = queue_.TotalDepth();

  const BatchStats b = batcher_.stats();
  s.batches = b.batches;
  s.avg_batch_size = b.AvgBatchSize();
  s.max_batch_size = b.max_batch_size;

  for (int cls = 0; cls < kNumPriorityClasses; ++cls) {
    const WaitWindow& w = waits_[cls];
    std::vector<TimeMicros> samples;
    {
      std::lock_guard<std::mutex> lock(w.mutex);
      samples = w.samples;
      s.wait[cls].count = w.count;
    }
    std::sort(samples.begin(), samples.end());
    s.wait[cls].p50 = Percentile(samples, 50.0);
    s.wait[cls].p99 = Percentile(samples, 99.0);
  }

  s.functions = queue_.PerFunctionStats();
  return s;
}

}  // namespace sesemi::sched
