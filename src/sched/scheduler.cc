#include "sched/scheduler.h"

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

RequestScheduler::RequestScheduler(const SchedulerConfig& config, Clock* clock)
    : kind_(config.policy),
      limits_(config.limits),
      owned_clock_(clock == nullptr ? std::make_unique<RealClock>() : nullptr),
      clock_(clock == nullptr ? owned_clock_.get() : clock) {}

Status RequestScheduler::RegisterFunction(const std::string& function,
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
  FunctionShard& shard = *it->second;
  shard.params = params;
  if (shard.params.burst <= 0) shard.params.burst = std::max(1.0, params.rate_per_s);
  shard.tokens = shard.params.burst;
  shard_list_.push_back(&shard);
  return Status::OK();
}

Result<int> RequestScheduler::Submit(QueuedRequest request, uint64_t payload_bytes) {
  counters_.submitted.Inc();
  FunctionShard* shard = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(table_mutex_);
    auto it = shards_.find(request.function);
    if (it != shards_.end()) shard = it->second.get();
  }
  if (shard == nullptr) {
    return Status::NotFound("function not scheduled: " + request.function);
  }

  const TimeMicros now = clock_->Now();
  const FunctionSchedParams& params = shard->params;
  const int cls = std::clamp(request.priority < 0 ? params.priority : request.priority,
                             0, kNumPriorityClasses - 1);
  request.priority = cls;
  if (request.deadline == kNoDeadline && params.default_slack > 0) {
    request.deadline = now + params.default_slack;
  }
  request.enqueue_time = now;
  request.payload_bytes = payload_bytes;

  size_t prev_depth = 0;
  {
    std::lock_guard<std::mutex> lock(shard->mutex);
    if (params.rate_per_s > 0) {
      // Token bucket: refill for the time since the last admission (a stale
      // `now` never refunds), capped at the burst, then take one token.
      if (now > shard->last_refill) {
        const double elapsed_s = MicrosToSeconds(now - shard->last_refill);
        shard->tokens =
            std::min(params.burst, shard->tokens + elapsed_s * params.rate_per_s);
        shard->last_refill = now;
      }
      if (shard->tokens < 1.0) {
        admission_.rejected_rate.Inc();
        return Status::ResourceExhausted("rate limit exceeded for " + request.function);
      }
      shard->tokens -= 1.0;
    }
    prev_depth = shard->depth.load(std::memory_order_relaxed);
    if (params.max_queue_depth > 0 &&
        prev_depth >= static_cast<size_t>(params.max_queue_depth)) {
      admission_.rejected_depth.Inc();
      return Status::Unavailable("queue full for " + request.function);
    }
    // Claim the global slot and bytes; undo on rejection, so a losing
    // submission never leaks accounting and the limits stay exact under
    // concurrent submitters.
    const size_t queued = total_depth_.fetch_add(1, std::memory_order_acq_rel) + 1;
    const uint64_t queued_bytes =
        queued_bytes_.fetch_add(payload_bytes, std::memory_order_acq_rel) + payload_bytes;
    if ((limits_.max_queued > 0 &&
         queued > static_cast<size_t>(limits_.max_queued)) ||
        (limits_.max_queued_bytes > 0 && queued_bytes > limits_.max_queued_bytes)) {
      total_depth_.fetch_sub(1, std::memory_order_acq_rel);
      queued_bytes_.fetch_sub(payload_bytes, std::memory_order_acq_rel);
      admission_.rejected_global.Inc();
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
  admission_.admitted.Inc();

  if (prev_depth == 0) {
    // Idle -> backlogged transition: catch the flow's virtual tag up to the
    // current virtual time. An idle flow must not bank credit (tag below V
    // would let it monopolize on return), and its tag must also stop rising
    // with V once backlogged (or a low-weight flow would starve — its
    // service horizon would recede forever). Taken outside the shard lock to
    // respect the pop -> shard lock order.
    std::lock_guard<std::mutex> pop_lock(pop_mutex_);
    shard->finish_tag = std::max(shard->finish_tag, virtual_time_);
  }
  return cls;
}

RequestScheduler::FunctionShard* RequestScheduler::PickLocked(int cls) const {
  FunctionShard* best = nullptr;
  double best_tag = 0.0;
  TimeMicros best_deadline = 0;
  uint64_t best_seq = 0;
  for (FunctionShard* shard : shard_list_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    const std::deque<QueuedRequest>& q = shard->pending[cls];
    if (q.empty()) continue;
    const QueuedRequest& head = q.front();
    // The backlogged flow's tag advances only when it is served (Submit
    // catches it up to V on the idle->busy edge); maxing against the live V
    // here would push low-weight flows' horizons away forever.
    const double tag = shard->finish_tag + 1.0 / shard->params.weight;
    // The policy's key decides; equal keys fall back to arrival order.
    bool before = head.seq < best_seq;
    if (kind_ == PolicyKind::kWeightedFair && tag != best_tag) before = tag < best_tag;
    if (kind_ == PolicyKind::kDeadlineEdf && head.deadline != best_deadline) {
      before = head.deadline < best_deadline;
    }
    if (best == nullptr || before) {
      best = shard;
      best_tag = tag;
      best_deadline = head.deadline;
      best_seq = head.seq;
    }
  }
  return best;
}

std::vector<QueuedRequest> RequestScheduler::PopBatch(
    ClassMask classes, std::vector<QueuedRequest>* expired) {
  std::vector<QueuedRequest> discarded;
  if (expired == nullptr) expired = &discarded;
  const size_t shed_before = expired->size();
  std::vector<QueuedRequest> unit = PopUnit(classes, *expired);
  if (expired->size() != shed_before) counters_.drops.Inc(expired->size() - shed_before);
  if (unit.empty()) return unit;

  counters_.batches.Inc();
  counters_.dispatched.Inc(unit.size());
  uint64_t max = counters_.max_batch_size.load(std::memory_order_relaxed);
  while (unit.size() > max &&
         !counters_.max_batch_size.compare_exchange_weak(
             max, unit.size(), std::memory_order_relaxed)) {
  }
  return unit;
}

std::vector<QueuedRequest> RequestScheduler::PopUnit(
    ClassMask classes, std::vector<QueuedRequest>& expired) {
  // Deadlines gate execution only under DeadlineEdf; the other policies treat
  // them as metadata. The clock is read once, and only for a popped request
  // that carries a deadline.
  const bool shed = kind_ == PolicyKind::kDeadlineEdf;
  std::optional<TimeMicros> now;
  auto is_expired = [&](const QueuedRequest& r) {
    if (!shed || r.deadline == kNoDeadline) return false;
    if (!now) now = clock_->Now();
    return r.deadline < *now;
  };
  std::vector<QueuedRequest> unit;

  std::lock_guard<std::mutex> pop_lock(pop_mutex_);
  // Registration only appends, and waits for the pop to finish.
  std::shared_lock<std::shared_mutex> table_lock(table_mutex_);
  for (int cls = 0; cls < kNumPriorityClasses; ++cls) {
    if ((classes & ClassMaskOf(cls)) == 0) continue;
    // Each pass pops one head; an expired head is shed and the policy picks
    // again, since EDF pops earliest-deadline first and live work may sit
    // behind it in any function.
    while (FunctionShard* shard = PickLocked(cls)) {
      const size_t limit = static_cast<size_t>(std::max(1, shard->params.max_batch));
      size_t removed = 1;
      uint64_t bytes = 0;
      {
        std::lock_guard<std::mutex> lock(shard->mutex);
        // Only pops remove entries and they hold pop_mutex_, so the picked
        // deque is still non-empty. An EDF submit may have sorted a new,
        // earlier-deadline head in since the pick; popping the current front
        // is still deadline-min.
        std::deque<QueuedRequest>& q = shard->pending[cls];
        QueuedRequest head = std::move(q.front());
        q.pop_front();
        head.dispatch_seq = next_dispatch_seq_++;
        bytes = head.payload_bytes;
        if (is_expired(head)) {
          expired.push_back(std::move(head));
        } else {
          unit.reserve(limit);  // head stays put
          unit.push_back(std::move(head));
          const QueuedRequest& h = unit.front();
          // Coalesce compatible companions (same model, session and class —
          // the deque is per class) within the bounded lookahead, until the
          // unit has taken max_batch requests. Expired companions are taken
          // too, and shed.
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
            (is_expired(*it) ? expired : unit).push_back(std::move(*it));
            it = q.erase(it);
            removed++;
          }
        }
        shard->depth.fetch_sub(removed, std::memory_order_acq_rel);
        class_depth_[cls].fetch_sub(removed, std::memory_order_acq_rel);
      }
      total_depth_.fetch_sub(removed, std::memory_order_acq_rel);
      queued_bytes_.fetch_sub(bytes, std::memory_order_acq_rel);

      // WFQ bookkeeping, committed regardless of policy. A unit of k requests
      // consumes k/weight of virtual time, so a batched function cannot
      // over-serve an unbatched competitor.
      const double start = std::max(virtual_time_, shard->finish_tag);
      shard->finish_tag = start + static_cast<double>(removed) / shard->params.weight;
      virtual_time_ = start;

      if (!unit.empty()) return unit;
    }
  }
  return unit;
}

size_t RequestScheduler::DepthInClasses(ClassMask classes) const {
  size_t depth = 0;
  for (int cls = 0; cls < kNumPriorityClasses; ++cls) {
    if (classes & ClassMaskOf(cls)) {
      depth += class_depth_[cls].load(std::memory_order_acquire);
    }
  }
  return depth;
}

}  // namespace sesemi::sched
