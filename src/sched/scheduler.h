#ifndef SESEMI_SCHED_SCHEDULER_H_
#define SESEMI_SCHED_SCHEDULER_H_

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
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sesemi::sched {

/// \file
/// The request scheduler: ServerlessPlatform's InvokeAsync submits into it,
/// and its dispatchers and RT lanes pop dispatch units from it.
///
/// Each registered function has one shard holding everything scheduling
/// knows about it: the registration params, the token bucket, the per-class
/// deques, the backlog depth and the WFQ finish tag. A request is looked up
/// by name once, at Submit, which also decides admission and its priority
/// class; the pop builds the whole dispatch unit from the shard it chose.
///
/// Ordering model: three strict priority classes; within the highest
/// non-empty class, the PolicyKind's key picks which function's head to
/// serve next. Submit touches only the target function's shard (one small
/// mutex + atomic counters), so concurrent submitters for different
/// functions never serialize; only the pop path, which must see a consistent
/// cross-function view to order fairly, takes the scheduler-wide pop mutex.
///
/// Admission rejects a submission immediately with a typed Status (the
/// caller's future resolves with the error); it never blocks the submitter:
///  - ResourceExhausted  — per-function token bucket empty (rate limit), or
///                         the global backlog/byte budget is full;
///  - Unavailable        — the function's own backlog cap is full (transient:
///                         retry once the queue drains);
///  - NotFound           — function never registered.

/// Which cross-function ordering the scheduler applies (selectable per
/// platform config). Each compares one key per backlogged function's head;
/// ties break on arrival order.
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
  /// -1 = function default; Submit clamps it to [0, kNumPriorityClasses)
  /// and stores the class the request is queued in.
  int priority = -1;
  TimeMicros deadline = kNoDeadline;  ///< absolute; kNoDeadline = function default

  /// Assigned by the scheduler at admission: global arrival sequence (FIFO
  /// order) and admission timestamp.
  uint64_t seq = 0;
  TimeMicros enqueue_time = 0;
  /// Assigned at pop: global dispatch sequence. Under the Fifo policy the
  /// dispatch order of any two requests matches their seq order — the
  /// regression contract for policy-ordered wakeup.
  uint64_t dispatch_seq = 0;
  /// Set by Submit: bytes charged against the global memory-backpressure
  /// budget while queued.
  uint64_t payload_bytes = 0;

  /// Trace propagation across the queue: the submitter's span context rides
  /// the request to whichever dispatcher thread pops it (zero when tracing
  /// is disabled — see obs/trace.h).
  obs::TraceContext trace;

  std::shared_ptr<void> payload;
};

/// Platform-wide backpressure limits (0 = unlimited).
struct AdmissionLimits {
  /// Total requests queued across all functions.
  int max_queued = 0;
  /// Total payload bytes queued across all functions (memory backpressure).
  uint64_t max_queued_bytes = 0;
};

/// Scheduler-wide configuration (lives inside PlatformConfig).
struct SchedulerConfig {
  PolicyKind policy = PolicyKind::kFifo;
  AdmissionLimits limits;
};

/// Cumulative scheduler counts, incremented in place on the submit and pop
/// paths (admission's drops by reason live in AdmissionCounters). Queue wait
/// is not counted here: the platform stamps it on each InvocationResult.
struct SchedulerCounters {
  obs::Counter submitted;   ///< Submit calls
  obs::Counter dispatched;  ///< requests handed to workers (incl. batched)
  /// Requests shed at dispatch because their deadline had already passed
  /// (DeadlineEdf only). Shed work is never executed; the caller resolves its
  /// future with DeadlineExceeded.
  obs::Counter drops;
  obs::Counter batches;  ///< dispatch units popped (each 1..max_batch requests)
  /// Largest unit popped so far: a high-water mark, not a count.
  std::atomic<uint64_t> max_batch_size{0};

  /// Mean requests per dispatch unit (0 before the first pop).
  double avg_batch_size() const {
    const uint64_t units = batches.Value();
    return units == 0 ? 0.0
                      : static_cast<double>(dispatched.Value()) /
                            static_cast<double>(units);
  }
};

/// Cumulative admission counts (drops by reason), incremented in place.
struct AdmissionCounters {
  obs::Counter admitted;
  obs::Counter rejected_rate;    ///< token bucket empty
  obs::Counter rejected_depth;   ///< per-function backlog cap
  obs::Counter rejected_global;  ///< global queued / byte budget
};

/// Admission -> per-function priority-class deques -> policy pop of a
/// same-model unit. Passive — it never runs requests itself; the platform's
/// dispatcher tasks and RT lanes call PopBatch.
///
/// \threadsafety All methods safe to call concurrently. Submit contends only
/// on the target function's shard; PopBatch serializes on the pop mutex (held
/// for the ordering decision and the unit's removal, never across
/// execution). Lock order: pop -> table -> shard; Submit holds at most one of
/// them at a time.
class RequestScheduler {
 public:
  /// `clock` defaults to a process-lifetime RealClock; tests inject a
  /// ManualClock for deterministic token-bucket refill.
  explicit RequestScheduler(const SchedulerConfig& config, Clock* clock = nullptr);

  /// Register `function` before any Submit for it. Fails on duplicates and
  /// on a non-positive weight.
  Status RegisterFunction(const std::string& function,
                          const FunctionSchedParams& params);

  /// Admit + enqueue one request and return the priority class it was
  /// queued in (the caller routes its dispatch on it). Admission checks the
  /// rate limit, then the function's backlog cap, then the global
  /// queued/byte budgets (`payload_bytes`); a typed rejection (see the file
  /// comment) leaves the request un-queued, and the caller resolves its
  /// future with the error. On admission, assigns seq, stamps enqueue_time
  /// and applies the function's default priority and deadline.
  Result<int> Submit(QueuedRequest request, uint64_t payload_bytes);

  /// Pop the next dispatch unit in policy order: one request, extended with
  /// same-model/same-session companions up to the function's max_batch.
  /// Returns an empty vector when nothing is queued.
  ///
  /// Under DeadlineEdf, requests whose deadline already passed at dispatch
  /// time are shed instead of returned: deadlines gate execution, not just
  /// ordering. Shed requests are appended to `expired` (counted in
  /// counters().drops) so the caller can resolve their futures with a typed
  /// DeadlineExceeded; passing nullptr discards them.
  std::vector<QueuedRequest> PopBatch(std::vector<QueuedRequest>* expired = nullptr) {
    return PopBatch(kAllClasses, expired);
  }

  /// Class-restricted PopBatch: considers only priority classes in
  /// `classes`. The bulk tier's dispatchers pass the non-interactive mask so
  /// RT-routed work is never stolen onto a pool worker, and the RT lanes pass
  /// the interactive mask; with kAllClasses the behavior is exactly the
  /// unmasked PopBatch.
  ///
  /// The unit is the head plus up to max_batch - 1 queued companions of the
  /// same function with the same model, session and class, in arrival order,
  /// found within the first 4 x max_batch entries. A batch never mixes models
  /// (the enclave holds one loaded model) and never mixes sessions (the
  /// enclave caches one <uid,Moid> key pair). The unit shares one
  /// dispatch_seq and is charged k/weight of virtual time, so weighted shares
  /// hold with batching on. The unit's vector is the pop's only allocation.
  std::vector<QueuedRequest> PopBatch(ClassMask classes,
                                      std::vector<QueuedRequest>* expired);

  /// Requests currently queued across all functions (racy snapshot).
  size_t TotalDepth() const { return total_depth_.load(std::memory_order_acquire); }

  /// Requests currently queued in `classes` (racy snapshot; the per-tier
  /// dispatcher exit condition).
  size_t DepthInClasses(ClassMask classes) const;

  PolicyKind policy_kind() const { return kind_; }

  const SchedulerCounters& counters() const { return counters_; }
  const AdmissionCounters& admission_counters() const { return admission_; }

 private:
  /// The one record of a scheduled function.
  struct FunctionShard {
    /// `burst` is resolved at registration (0 -> max(1, rate_per_s)).
    FunctionSchedParams params;
    std::mutex mutex;
    std::deque<QueuedRequest> pending[kNumPriorityClasses];  ///< guarded by mutex
    /// Queued requests; changed only under `mutex`, so the backlog cap
    /// checked there is exact.
    std::atomic<size_t> depth{0};
    /// Token bucket (used when params.rate_per_s > 0), guarded by mutex.
    double tokens = 0.0;
    TimeMicros last_refill = 0;
    /// WFQ finish tag of the last served request (guarded by pop_mutex_).
    double finish_tag = 0.0;
  };

  /// The shard whose class-`cls` head the policy serves next, or null when
  /// no function has backlog in `cls`. Requires pop_mutex_ and table_mutex_.
  FunctionShard* PickLocked(int cls) const;

  /// PopBatch under the pop lock, without the dispatch counters; shed
  /// requests go to `expired`.
  std::vector<QueuedRequest> PopUnit(ClassMask classes,
                                     std::vector<QueuedRequest>& expired);

  const PolicyKind kind_;
  const AdmissionLimits limits_;

  std::unique_ptr<Clock> owned_clock_;
  Clock* clock_;

  /// Function table: read-mostly (every Submit/Pop), written only by
  /// RegisterFunction; shard pointers are heap-stable once inserted, so
  /// lookups take the shared side and submitters for different functions
  /// contend on nothing but their own shard.
  mutable std::shared_mutex table_mutex_;
  std::unordered_map<std::string, std::unique_ptr<FunctionShard>> shards_;
  std::vector<FunctionShard*> shard_list_;  ///< append-only, guarded by table_mutex_

  /// Pop path + WFQ virtual time. Never held while executing requests.
  std::mutex pop_mutex_;
  double virtual_time_ = 0.0;        ///< guarded by pop_mutex_
  uint64_t next_dispatch_seq_ = 0;   ///< guarded by pop_mutex_

  std::atomic<uint64_t> next_seq_{0};
  /// Queued requests and payload bytes across all functions: the counts the
  /// global admission limits are checked against. Submit claims a slot
  /// before the push (undone on rejection), the pop releases it after the
  /// removal, so neither count can go below the true backlog.
  std::atomic<size_t> total_depth_{0};
  std::atomic<uint64_t> queued_bytes_{0};
  /// Per-class share of total_depth_, so tier dispatchers can poll their
  /// slice without touching any shard. Raised inside the shard lock before
  /// the request becomes poppable, so it never dips below zero.
  std::array<std::atomic<size_t>, kNumPriorityClasses> class_depth_{};

  SchedulerCounters counters_;
  AdmissionCounters admission_;
};

}  // namespace sesemi::sched

#endif  // SESEMI_SCHED_SCHEDULER_H_
