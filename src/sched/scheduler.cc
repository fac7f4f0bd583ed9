#include "sched/scheduler.h"

namespace sesemi::sched {

RequestScheduler::RequestScheduler(const SchedulerConfig& config, Clock* clock)
    : queue_(config.policy, config.limits) {
  if (clock == nullptr) {
    owned_clock_ = std::make_unique<RealClock>();
    clock_ = owned_clock_.get();
  } else {
    clock_ = clock;
  }
}

Result<int> RequestScheduler::Submit(QueuedRequest request, uint64_t payload_bytes) {
  counters_.submitted.Inc();
  request.payload_bytes = payload_bytes;
  return queue_.Enqueue(std::move(request), clock_->Now());
}

std::vector<QueuedRequest> RequestScheduler::PopBatch(
    ClassMask classes, std::vector<QueuedRequest>* expired) {
  std::vector<QueuedRequest> discarded;
  if (expired == nullptr) expired = &discarded;
  const size_t shed_before = expired->size();
  std::vector<QueuedRequest> batch = queue_.PopUnit(classes, *clock_, expired);
  if (expired->size() != shed_before) counters_.drops.Inc(expired->size() - shed_before);
  if (batch.empty()) return batch;

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
