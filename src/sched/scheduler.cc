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
  counters_.submitted.Inc();
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
      counters_.drops.Inc();
      if (expired != nullptr) expired->push_back(std::move(head));
      continue;
    }
    break;
  }

  int max_batch = 1;
  if (const FunctionSchedParams* params = function_params(head.function)) {
    max_batch = params->max_batch;
  }

  batch.reserve(static_cast<size_t>(std::max(max_batch, 1)));
  batch.push_back(std::move(head));
  if (max_batch > 1) {
    batcher_.Coalesce(&queue_, batch.front(), max_batch, &batch);
    size_t live = 1;
    for (size_t i = 1; i < batch.size(); ++i) {
      admission_.OnDequeue(batch[i].function, batch[i].payload_bytes);
      if (shed && batch[i].deadline != kNoDeadline && batch[i].deadline < now) {
        counters_.drops.Inc();
        if (expired != nullptr) expired->push_back(std::move(batch[i]));
        continue;
      }
      if (live != i) batch[live] = std::move(batch[i]);
      live++;
    }
    batch.resize(live);
  }
  counters_.batches.Inc();
  counters_.dispatched.Inc(batch.size());
  uint64_t max = counters_.max_batch_size.load(std::memory_order_relaxed);
  while (batch.size() > max &&
         !counters_.max_batch_size.compare_exchange_weak(
             max, batch.size(), std::memory_order_relaxed)) {
  }
  return batch;
}

}  // namespace sesemi::sched
