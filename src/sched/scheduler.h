#ifndef SESEMI_SCHED_SCHEDULER_H_
#define SESEMI_SCHED_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "sched/queue.h"

namespace sesemi::sched {

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

/// The request scheduler: admission -> weighted-fair queues -> policy pop of
/// a same-model unit (all in FairQueue), plus the clock and the dispatch
/// counters. Passive — it never runs requests itself; the platform's
/// dispatcher tasks and RT lanes call PopBatch.
///
/// \threadsafety All methods safe to call concurrently. Submit contends only
/// on the target function's shard; PopBatch serializes on the queue's pop
/// lock (held for the ordering decision and the unit's removal, never across
/// execution).
class RequestScheduler {
 public:
  /// `clock` defaults to a process-lifetime RealClock; tests inject a
  /// ManualClock for deterministic token-bucket refill.
  explicit RequestScheduler(const SchedulerConfig& config, Clock* clock = nullptr);

  Status RegisterFunction(const std::string& function,
                          const FunctionSchedParams& params) {
    return queue_.RegisterFunction(function, params);
  }

  /// Admit + enqueue one request and return the priority class it was
  /// queued in (the caller routes its dispatch on it). `payload_bytes` feeds
  /// the global memory backpressure budget. Typed rejections (see
  /// sched/admission.h) leave the request un-queued; the caller resolves its
  /// future with the error.
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
  std::vector<QueuedRequest> PopBatch(ClassMask classes,
                                      std::vector<QueuedRequest>* expired);

  size_t TotalDepth() const { return queue_.TotalDepth(); }
  size_t DepthInClasses(ClassMask classes) const {
    return queue_.DepthInClasses(classes);
  }
  PolicyKind policy_kind() const { return queue_.policy_kind(); }
  std::vector<FunctionQueueStats> PerFunctionStats() const {
    return queue_.PerFunctionStats();
  }

  const SchedulerCounters& counters() const { return counters_; }
  const AdmissionCounters& admission_counters() const {
    return queue_.admission_counters();
  }

 private:
  FairQueue queue_;

  std::unique_ptr<Clock> owned_clock_;
  Clock* clock_;

  SchedulerCounters counters_;
};

}  // namespace sesemi::sched

#endif  // SESEMI_SCHED_SCHEDULER_H_
