#include "sched/queue.h"

#include <algorithm>
#include <optional>

namespace sesemi::sched {

namespace {
/// Coalescing scans at most kLookaheadFactor * max_batch entries of the
/// head's deque, so a non-matching request at the front can only be
/// overtaken by a bounded amount of same-model traffic.
constexpr size_t kLookaheadFactor = 4;
}  // namespace

const char* ToString(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFifo: return "fifo";
    case PolicyKind::kWeightedFair: return "wfq";
    case PolicyKind::kDeadlineEdf: return "edf";
  }
  return "unknown";
}

size_t FifoPolicy::PickNext(const std::vector<QueueView>& candidates) const {
  size_t best = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (candidates[i].head_seq < candidates[best].head_seq) best = i;
  }
  return best;
}

size_t WeightedFairPolicy::PickNext(const std::vector<QueueView>& candidates) const {
  size_t best = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    const QueueView& c = candidates[i];
    const QueueView& b = candidates[best];
    if (c.virtual_finish < b.virtual_finish ||
        (c.virtual_finish == b.virtual_finish && c.head_seq < b.head_seq)) {
      best = i;
    }
  }
  return best;
}

size_t DeadlineEdfPolicy::PickNext(const std::vector<QueueView>& candidates) const {
  size_t best = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    const QueueView& c = candidates[i];
    const QueueView& b = candidates[best];
    if (c.head_deadline < b.head_deadline ||
        (c.head_deadline == b.head_deadline && c.head_seq < b.head_seq)) {
      best = i;
    }
  }
  return best;
}

std::unique_ptr<SchedulerPolicy> MakePolicy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFifo: return std::make_unique<FifoPolicy>();
    case PolicyKind::kWeightedFair: return std::make_unique<WeightedFairPolicy>();
    case PolicyKind::kDeadlineEdf: return std::make_unique<DeadlineEdfPolicy>();
  }
  return std::make_unique<FifoPolicy>();
}

FairQueue::FairQueue(PolicyKind kind, const AdmissionLimits& limits)
    : kind_(kind), policy_(MakePolicy(kind)), limits_(limits) {}

Status FairQueue::RegisterFunction(const std::string& function,
                                   const FunctionSchedParams& params) {
  if (params.weight <= 0.0) {
    return Status::InvalidArgument("scheduler weight must be positive: " + function);
  }
  std::unique_lock<std::shared_mutex> lock(table_mutex_);
  auto [it, inserted] = shards_.try_emplace(function, nullptr);
  if (!inserted) {
    return Status::AlreadyExists("function already scheduled: " + function);
  }
  it->second = std::make_unique<FunctionShard>();
  it->second->name = function;
  it->second->params = params;
  if (params.rate_per_s > 0) {
    it->second->bucket =
        std::make_unique<TokenBucket>(params.rate_per_s, params.burst);
  }
  shard_list_.push_back(it->second.get());
  return Status::OK();
}

FairQueue::FunctionShard* FairQueue::FindShard(const std::string& function) const {
  std::shared_lock<std::shared_mutex> lock(table_mutex_);
  auto it = shards_.find(function);
  return it == shards_.end() ? nullptr : it->second.get();
}

Result<int> FairQueue::Enqueue(QueuedRequest request, TimeMicros now) {
  FunctionShard* shard = FindShard(request.function);
  if (shard == nullptr) {
    return Status::NotFound("function not scheduled: " + request.function);
  }
  if (shard->bucket != nullptr && !shard->bucket->TryAcquire(now)) {
    counters_.rejected_rate.Inc();
    return Status::ResourceExhausted("rate limit exceeded for " + shard->name);
  }

  const FunctionSchedParams& params = shard->params;
  const int cls = std::clamp(request.priority < 0 ? params.priority : request.priority,
                             0, kNumPriorityClasses - 1);
  request.priority = cls;
  if (request.deadline == kNoDeadline && params.default_slack > 0) {
    request.deadline = now + params.default_slack;
  }
  request.enqueue_time = now;
  const uint64_t bytes = request.payload_bytes;

  size_t prev_depth = 0;
  {
    std::lock_guard<std::mutex> lock(shard->mutex);
    prev_depth = shard->depth.load(std::memory_order_relaxed);
    if (params.max_queue_depth > 0 &&
        prev_depth >= static_cast<size_t>(params.max_queue_depth)) {
      counters_.rejected_depth.Inc();
      return Status::Unavailable("queue full for " + shard->name);
    }
    // Claim the global slot and bytes; undo on rejection, so a losing
    // submission never leaks accounting and the limits stay exact under
    // concurrent submitters.
    const size_t queued = total_depth_.fetch_add(1, std::memory_order_acq_rel) + 1;
    const uint64_t queued_bytes =
        queued_bytes_.fetch_add(bytes, std::memory_order_acq_rel) + bytes;
    if ((limits_.max_queued > 0 &&
         queued > static_cast<size_t>(limits_.max_queued)) ||
        (limits_.max_queued_bytes > 0 && queued_bytes > limits_.max_queued_bytes)) {
      total_depth_.fetch_sub(1, std::memory_order_acq_rel);
      queued_bytes_.fetch_sub(bytes, std::memory_order_acq_rel);
      counters_.rejected_global.Inc();
      return Status::ResourceExhausted("scheduler backlog full");
    }

    // Sequence assignment happens under the shard lock so each deque stays
    // seq-sorted even with racing submitters — that, plus the pop-side
    // min-head merge, is what makes FIFO dispatch order equal admission
    // order globally.
    request.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    std::deque<QueuedRequest>& q = shard->pending[cls];
    if (kind_ == PolicyKind::kDeadlineEdf) {
      // Keep the deque deadline-sorted so the head is always the earliest
      // deadline; stable insertion preserves arrival order among ties.
      auto it = q.end();
      while (it != q.begin() && std::prev(it)->deadline > request.deadline) --it;
      q.insert(it, std::move(request));
    } else {
      q.push_back(std::move(request));
    }
    shard->depth.fetch_add(1, std::memory_order_acq_rel);
    class_depth_[cls].fetch_add(1, std::memory_order_acq_rel);
  }
  shard->enqueued.fetch_add(1, std::memory_order_relaxed);
  counters_.admitted.Inc();

  if (prev_depth == 0) {
    // Idle -> backlogged transition: catch the flow's virtual tag up to the
    // current virtual time. An idle flow must not bank credit (tag below V
    // would let it monopolize on return), and its tag must also stop rising
    // with V once backlogged (or a low-weight flow would starve — its
    // service horizon would recede forever). Taken outside the shard lock to
    // respect the pop_mutex_ -> shard->mutex lock order.
    std::lock_guard<std::mutex> pop_lock(pop_mutex_);
    shard->finish_tag = std::max(shard->finish_tag, virtual_time_);
  }
  return cls;
}

FairQueue::FunctionShard* FairQueue::PickLocked(
    const std::vector<FunctionShard*>& shards, int cls) const {
  std::vector<QueueView> views;
  std::vector<FunctionShard*> owners;
  for (FunctionShard* shard : shards) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    const std::deque<QueuedRequest>& q = shard->pending[cls];
    if (q.empty()) continue;
    QueueView view;
    view.function = &shard->name;
    view.weight = shard->params.weight;
    // The backlogged flow's tag advances only when it is served (enqueue
    // catches it up to V on the idle->busy edge); maxing against the live
    // V here would push low-weight flows' horizons away forever.
    view.virtual_finish = shard->finish_tag + 1.0 / shard->params.weight;
    view.head_seq = q.front().seq;
    view.head_deadline = q.front().deadline;
    view.head_enqueue = q.front().enqueue_time;
    view.depth = shard->depth.load(std::memory_order_relaxed);
    views.push_back(view);
    owners.push_back(shard);
  }
  return views.empty() ? nullptr : owners[policy_->PickNext(views)];
}

std::vector<QueuedRequest> FairQueue::PopUnit(ClassMask mask, const Clock& clock,
                                              std::vector<QueuedRequest>* expired) {
  // Deadlines gate execution only under DeadlineEdf; the other policies treat
  // them as metadata. The clock is read once, and only for a popped request
  // that carries a deadline.
  const bool shed = kind_ == PolicyKind::kDeadlineEdf;
  std::optional<TimeMicros> now;
  auto is_expired = [&](const QueuedRequest& r) {
    if (!shed || r.deadline == kNoDeadline) return false;
    if (!now) now = clock.Now();
    return r.deadline < *now;
  };
  std::vector<QueuedRequest> unit;

  std::lock_guard<std::mutex> pop_lock(pop_mutex_);
  // Stable shard pointers: registration only appends.
  std::vector<FunctionShard*> shards;
  {
    std::shared_lock<std::shared_mutex> lock(table_mutex_);
    shards = shard_list_;
  }

  for (int cls = 0; cls < kNumPriorityClasses; ++cls) {
    if ((mask & ClassMaskOf(cls)) == 0) continue;
    // Each pass pops one head; an expired head is shed and the policy picks
    // again, since EDF pops earliest-deadline first and live work may sit
    // behind it in any function.
    while (FunctionShard* shard = PickLocked(shards, cls)) {
      const int max_batch = std::max(1, shard->params.max_batch);
      size_t removed = 1;
      uint64_t bytes = 0;
      {
        std::lock_guard<std::mutex> lock(shard->mutex);
        // Only pops remove entries and they hold pop_mutex_, so the picked
        // deque is still non-empty. An EDF enqueue may have sorted a new,
        // earlier-deadline head in since the pick; popping the current front
        // is still deadline-min.
        std::deque<QueuedRequest>& q = shard->pending[cls];
        QueuedRequest head = std::move(q.front());
        q.pop_front();
        head.dispatch_seq = next_dispatch_seq_++;
        bytes = head.payload_bytes;
        if (is_expired(head)) {
          expired->push_back(std::move(head));
        } else {
          unit.reserve(static_cast<size_t>(max_batch));  // head stays put
          unit.push_back(std::move(head));
          const QueuedRequest& h = unit.front();
          // Coalesce compatible companions (same model, session and class —
          // the deque is per class) within the bounded lookahead, until the
          // unit has taken max_batch requests. Expired companions are taken
          // too, and shed.
          const size_t limit = static_cast<size_t>(max_batch);
          size_t scanned = 0;
          for (auto it = q.begin();
               it != q.end() && removed < limit && scanned < limit * kLookaheadFactor;
               ++scanned) {
            if (it->model_id != h.model_id || it->session_id != h.session_id) {
              ++it;
              continue;
            }
            it->dispatch_seq = h.dispatch_seq;  // dispatched as one unit
            bytes += it->payload_bytes;
            (is_expired(*it) ? *expired : unit).push_back(std::move(*it));
            it = q.erase(it);
            removed++;
          }
        }
        shard->depth.fetch_sub(removed, std::memory_order_acq_rel);
        class_depth_[cls].fetch_sub(removed, std::memory_order_acq_rel);
      }
      total_depth_.fetch_sub(removed, std::memory_order_acq_rel);
      queued_bytes_.fetch_sub(bytes, std::memory_order_acq_rel);
      shard->dispatched.fetch_add(removed, std::memory_order_relaxed);

      // WFQ bookkeeping, committed regardless of policy (cheap, and lets the
      // stats expose virtual-time lag under any ordering). A unit of k
      // requests consumes k/weight of virtual time, so a batched function
      // cannot over-serve an unbatched competitor.
      const double start = std::max(virtual_time_, shard->finish_tag);
      shard->finish_tag = start + static_cast<double>(removed) / shard->params.weight;
      virtual_time_ = start;

      if (!unit.empty()) return unit;
    }
  }
  return unit;
}

size_t FairQueue::DepthInClasses(ClassMask mask) const {
  size_t depth = 0;
  for (int cls = 0; cls < kNumPriorityClasses; ++cls) {
    if (mask & ClassMaskOf(cls)) {
      depth += class_depth_[cls].load(std::memory_order_acquire);
    }
  }
  return depth;
}

std::vector<FunctionQueueStats> FairQueue::PerFunctionStats() const {
  std::shared_lock<std::shared_mutex> lock(table_mutex_);
  std::vector<FunctionQueueStats> out;
  out.reserve(shard_list_.size());
  for (const FunctionShard* shard : shard_list_) {
    FunctionQueueStats s;
    s.function = shard->name;
    s.weight = shard->params.weight;
    s.depth = shard->depth.load(std::memory_order_relaxed);
    s.enqueued = shard->enqueued.load(std::memory_order_relaxed);
    s.dispatched = shard->dispatched.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace sesemi::sched
