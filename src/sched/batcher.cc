#include "sched/batcher.h"

namespace sesemi::sched {

bool SameModelBatcher::Compatible(const QueuedRequest& head,
                                  const QueuedRequest& other) {
  return other.model_id == head.model_id && other.session_id == head.session_id &&
         other.priority == head.priority;
}

size_t SameModelBatcher::Coalesce(FairQueue* queue, QueuedRequest head,
                                  int max_batch, std::vector<QueuedRequest>* batch) {
  if (max_batch <= 1) return 0;
  FairQueue::FunctionShard* shard = queue->FindShard(head.function);
  if (shard == nullptr) return 0;

  const size_t want = static_cast<size_t>(max_batch) - 1;
  const size_t lookahead = static_cast<size_t>(max_batch) * kLookaheadFactor;
  size_t taken = 0;

  {
    std::lock_guard<std::mutex> lock(shard->mutex);
    std::deque<QueuedRequest>& q = shard->pending[head.priority];
    size_t scanned = 0;
    for (auto it = q.begin(); it != q.end() && taken < want && scanned < lookahead;
         ++scanned) {
      if (Compatible(head, *it)) {
        it->dispatch_seq = head.dispatch_seq;  // dispatched as one unit
        batch->push_back(std::move(*it));
        it = q.erase(it);
        taken++;
      } else {
        ++it;
      }
    }
    if (taken > 0) {
      shard->depth.fetch_sub(taken, std::memory_order_acq_rel);
      shard->dispatched.fetch_add(taken, std::memory_order_relaxed);
      queue->total_depth_.fetch_sub(taken, std::memory_order_acq_rel);
      // Companions share the head's class (Compatible requires equal
      // priority), so one subtraction keeps the per-class slice exact.
      queue->class_depth_[head.priority].fetch_sub(taken,
                                                   std::memory_order_acq_rel);
    }
  }
  // The pop charged only the head's 1/weight; charge the companions too so a
  // batch of k consumes k/weight virtual time and weighted shares stay exact
  // when max_batch > 1. (Outside the shard lock: ChargeCoalesced takes
  // pop_mutex_, which orders before shard mutexes.)
  queue->ChargeCoalesced(shard, taken);
  return taken;
}

}  // namespace sesemi::sched
