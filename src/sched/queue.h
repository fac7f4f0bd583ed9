#ifndef SESEMI_SCHED_QUEUE_H_
#define SESEMI_SCHED_QUEUE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "obs/trace.h"
#include "sched/admission.h"

namespace sesemi::sched {

/// \file
/// Per-function weighted-fair queues — the request scheduler's one record of
/// each scheduled function. RequestScheduler (sched/scheduler.h) wraps a
/// FairQueue with a clock and dispatch counters; ServerlessPlatform's
/// InvokeAsync submits into it and its dispatchers pop from it.
///
/// Each function's shard holds everything scheduling knows about it: the
/// registration params, the token bucket, the per-class deques, the backlog
/// depth and the WFQ finish tag. A request is looked up by name once, at
/// Enqueue, which also decides admission and its priority class; the pop
/// builds the whole dispatch unit from the shard it chose.
///
/// Ordering model: three strict priority classes; within the highest
/// non-empty class, a pluggable SchedulerPolicy picks which function's queue
/// to serve next. Enqueue touches only the target function's shard (one
/// small mutex + atomic counters), so concurrent submitters for different
/// functions never serialize; only the pop path — which must observe a
/// consistent cross-function view to order fairly — takes the queue-wide
/// mutex.

/// Which cross-function ordering the queue applies (selectable per platform
/// config).
enum class PolicyKind {
  kFifo,          ///< global arrival order (the pre-scheduler behaviour)
  kWeightedFair,  ///< start-time-fair virtual-time queuing over weights
  kDeadlineEdf,   ///< earliest absolute deadline first
};

const char* ToString(PolicyKind kind);

/// Strict priority tiers: all class-0 work dispatches before any class-1
/// work, and so on. Within one tier the policy decides.
inline constexpr int kNumPriorityClasses = 3;

/// Bit mask over priority classes (bit c set = class c eligible). The
/// execution tiers split dispatch with these: RT lanes pop with the
/// interactive-class mask, bulk dispatchers with its complement, and the
/// tier-less configuration uses kAllClasses — identical to unmasked popping.
using ClassMask = uint32_t;
inline constexpr ClassMask kAllClasses = (1u << kNumPriorityClasses) - 1;
inline constexpr ClassMask ClassMaskOf(int cls) { return 1u << cls; }
/// Classes [0, n) — the "n highest tiers" mask.
inline constexpr ClassMask ClassMaskUpTo(int n) {
  return n <= 0 ? 0u
         : n >= kNumPriorityClasses ? kAllClasses
                                    : ((1u << n) - 1);
}

inline constexpr TimeMicros kNoDeadline = std::numeric_limits<TimeMicros>::max();

/// Per-function scheduling parameters, fixed at function registration.
struct FunctionSchedParams {
  /// Weighted-fair share: under saturation a weight-2 function completes
  /// ~twice as many requests as a weight-1 function.
  double weight = 1.0;
  /// Token-bucket rate limit in requests/second (0 = unlimited).
  double rate_per_s = 0.0;
  /// Token-bucket burst depth (0 = max(1, rate_per_s)).
  double burst = 0.0;
  /// Per-function backlog cap; submissions beyond it are rejected with
  /// Unavailable (0 = unlimited).
  int max_queue_depth = 0;
  /// Same-model coalescing limit per dispatch (1 = batching off).
  int max_batch = 1;
  /// Default priority class for this function's requests (0 = highest).
  int priority = 1;
  /// Default deadline slack for DeadlineEdf: a request with no explicit
  /// deadline gets enqueue_time + default_slack (0 = no deadline).
  TimeMicros default_slack = 0;
};

/// One queued invocation: routing metadata the scheduler orders and batches
/// by, plus an opaque payload owned by the submitter (the platform stores the
/// request and its result promise there, so sched/ stays independent of the
/// serverless and semirt layers).
struct QueuedRequest {
  std::string function;
  std::string model_id;
  std::string session_id;  ///< user/session — batches never mix sessions
  /// -1 = function default; Enqueue clamps it to [0, kNumPriorityClasses)
  /// and stores the class the request is queued in.
  int priority = -1;
  TimeMicros deadline = kNoDeadline;  ///< absolute; kNoDeadline = function default

  /// Assigned by the queue at enqueue: global arrival sequence (FIFO order)
  /// and admission timestamp.
  uint64_t seq = 0;
  TimeMicros enqueue_time = 0;
  /// Assigned at pop: global dispatch sequence. Under the Fifo policy the
  /// dispatch order of any two requests matches their seq order — the
  /// regression contract for policy-ordered wakeup.
  uint64_t dispatch_seq = 0;
  /// Set by RequestScheduler::Submit: bytes charged against the global
  /// memory-backpressure budget while queued.
  uint64_t payload_bytes = 0;

  /// Trace propagation across the queue: the submitter's span context rides
  /// the request to whichever dispatcher thread pops it (zero when tracing
  /// is disabled — see obs/trace.h).
  obs::TraceContext trace;

  std::shared_ptr<void> payload;
};

/// What a policy sees for one candidate function (head of its deque in the
/// priority class being served). Snapshot taken under the pop lock.
struct QueueView {
  const std::string* function = nullptr;
  double weight = 1.0;
  /// Virtual finish tag this head would get if served next (WFQ bookkeeping
  /// maintained by the queue; smaller = more underserved).
  double virtual_finish = 0.0;
  uint64_t head_seq = 0;
  TimeMicros head_deadline = kNoDeadline;
  TimeMicros head_enqueue = 0;
  size_t depth = 0;
};

/// Cross-function ordering strategy. Implementations are stateless; all
/// fairness bookkeeping (virtual time) lives in the queue so policies can be
/// swapped without carrying state over.
class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;
  virtual const char* name() const = 0;
  /// Pick the index of the candidate to serve next. `candidates` is
  /// non-empty and all entries have backlog in the same priority class.
  virtual size_t PickNext(const std::vector<QueueView>& candidates) const = 0;
};

/// Global arrival order: min head_seq. Start order equals submission order.
class FifoPolicy final : public SchedulerPolicy {
 public:
  const char* name() const override { return "fifo"; }
  size_t PickNext(const std::vector<QueueView>& candidates) const override;
};

/// Start-time fair queuing: min virtual finish tag, i.e. each function
/// receives service in proportion to its weight under saturation and an
/// idle function re-enters at the current virtual time (no starvation and
/// no credit hoarding).
class WeightedFairPolicy final : public SchedulerPolicy {
 public:
  const char* name() const override { return "wfq"; }
  size_t PickNext(const std::vector<QueueView>& candidates) const override;
};

/// Earliest deadline first over the head deadlines (per-function deques are
/// kept deadline-sorted on enqueue); requests without a deadline sort last,
/// ties break on arrival order.
class DeadlineEdfPolicy final : public SchedulerPolicy {
 public:
  const char* name() const override { return "edf"; }
  size_t PickNext(const std::vector<QueueView>& candidates) const override;
};

std::unique_ptr<SchedulerPolicy> MakePolicy(PolicyKind kind);

/// Point-in-time queue statistics, per function (read through
/// RequestScheduler::PerFunctionStats).
struct FunctionQueueStats {
  std::string function;
  double weight = 1.0;
  size_t depth = 0;         ///< currently queued
  uint64_t enqueued = 0;    ///< accepted into the queue, cumulative
  uint64_t dispatched = 0;  ///< popped for execution, cumulative
};

/// The multi-function priority queue with admission in front of it. See the
/// file comment for the concurrency design; all public methods are
/// thread-safe.
class FairQueue {
 public:
  explicit FairQueue(PolicyKind kind, const AdmissionLimits& limits = {});

  /// Register `function` before any Enqueue for it. Fails on duplicates.
  Status RegisterFunction(const std::string& function,
                          const FunctionSchedParams& params);

  /// Admit and append one request: rate limit, then the function's backlog
  /// cap, then the global queued/byte budgets (request.payload_bytes), each a
  /// typed rejection (sched/admission.h). On admission, assigns seq, stamps
  /// enqueue_time with `now`, applies the function's default priority and
  /// deadline, and returns the priority class the request was queued in.
  Result<int> Enqueue(QueuedRequest request, TimeMicros now);

  /// Pop the next dispatch unit in policy order, considering only priority
  /// classes in `mask`: the head request plus up to max_batch - 1 queued
  /// companions of the same function with the same model, session and class,
  /// in arrival order, found within the first 4 x max_batch entries. A batch
  /// never mixes models (the enclave holds one loaded model) and never mixes
  /// sessions (the enclave caches one <uid,Moid> key pair). The unit shares
  /// one dispatch_seq and is charged k/weight of virtual time, so weighted
  /// shares hold with batching on.
  ///
  /// Under DeadlineEdf, requests whose deadline is already past on `clock`
  /// are moved to `expired` (non-null) instead; an expired head is replaced
  /// by the next pick. Returns an empty vector when nothing in `mask` is
  /// queued.
  std::vector<QueuedRequest> PopUnit(ClassMask mask, const Clock& clock,
                                     std::vector<QueuedRequest>* expired);

  /// Requests currently queued across all functions (racy snapshot).
  size_t TotalDepth() const { return total_depth_.load(std::memory_order_acquire); }

  /// Requests currently queued in the classes selected by `mask` (racy
  /// snapshot; the per-tier dispatcher exit condition).
  size_t DepthInClasses(ClassMask mask) const;

  PolicyKind policy_kind() const { return kind_; }

  std::vector<FunctionQueueStats> PerFunctionStats() const;

  const AdmissionCounters& admission_counters() const { return counters_; }

 private:
  /// The one record of a scheduled function.
  struct FunctionShard {
    std::string name;
    FunctionSchedParams params;
    std::unique_ptr<TokenBucket> bucket;  ///< null when rate unlimited
    std::mutex mutex;
    std::deque<QueuedRequest> pending[kNumPriorityClasses];  ///< guarded by mutex
    /// Queued requests; changed only under `mutex`, so the backlog cap
    /// checked there is exact.
    std::atomic<size_t> depth{0};
    std::atomic<uint64_t> enqueued{0};
    std::atomic<uint64_t> dispatched{0};
    /// WFQ finish tag of the last served request (guarded by pop_mutex_).
    double finish_tag = 0.0;
  };

  FunctionShard* FindShard(const std::string& function) const;

  /// Policy pick among `shards` with backlog in class `cls`, or null.
  /// Requires pop_mutex_.
  FunctionShard* PickLocked(const std::vector<FunctionShard*>& shards,
                            int cls) const;

  PolicyKind kind_;
  std::unique_ptr<SchedulerPolicy> policy_;
  const AdmissionLimits limits_;

  /// Function table: read-mostly (every Enqueue/Pop), written only by
  /// RegisterFunction; shard pointers are heap-stable once inserted, so
  /// lookups take the shared side and submitters for different functions
  /// contend on nothing but their own shard.
  mutable std::shared_mutex table_mutex_;
  std::unordered_map<std::string, std::unique_ptr<FunctionShard>> shards_;
  std::vector<FunctionShard*> shard_list_;  ///< append-only, guarded by table_mutex_

  /// Pop path + WFQ virtual time. Never held while executing requests.
  mutable std::mutex pop_mutex_;
  double virtual_time_ = 0.0;        ///< guarded by pop_mutex_
  uint64_t next_dispatch_seq_ = 0;   ///< guarded by pop_mutex_

  std::atomic<uint64_t> next_seq_{0};
  /// Queued requests and payload bytes across all functions: the counts the
  /// global admission limits are checked against. Enqueue claims a slot
  /// before the push (undone on rejection), the pop releases it after the
  /// removal, so neither count can go below the true backlog.
  std::atomic<size_t> total_depth_{0};
  std::atomic<uint64_t> queued_bytes_{0};
  /// Per-class share of total_depth_, so tier dispatchers can poll their
  /// slice without touching any shard. Raised inside the shard lock before
  /// the request becomes poppable, so it never dips below zero.
  std::array<std::atomic<size_t>, kNumPriorityClasses> class_depth_{};

  AdmissionCounters counters_;
};

}  // namespace sesemi::sched

#endif  // SESEMI_SCHED_QUEUE_H_
