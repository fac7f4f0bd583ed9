#ifndef SESEMI_SCHED_SCHEDULER_H_
#define SESEMI_SCHED_SCHEDULER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "sched/admission.h"
#include "sched/batcher.h"
#include "sched/queue.h"

namespace sesemi::sched {

/// Scheduler-wide configuration (lives inside PlatformConfig).
struct SchedulerConfig {
  PolicyKind policy = PolicyKind::kFifo;
  AdmissionLimits limits;
};

/// Point-in-time scheduler statistics: admission, queueing, batching, and
/// per-priority-class queue-wait percentiles. Consumed by bench_sched /
/// bench_fig11 as JSON and by tests as invariants.
struct SchedStats {
  const char* policy = "fifo";
  uint64_t submitted = 0;   ///< Submit calls
  uint64_t admitted = 0;
  uint64_t dispatched = 0;  ///< requests handed to workers (incl. batched)
  uint64_t rejected_rate = 0;
  uint64_t rejected_depth = 0;
  uint64_t rejected_global = 0;
  /// Requests shed at dispatch because their deadline had already passed
  /// (DeadlineEdf only). Shed work is never executed; the caller resolves its
  /// future with DeadlineExceeded.
  uint64_t drops = 0;
  size_t queue_depth = 0;   ///< currently queued
  uint64_t batches = 0;
  double avg_batch_size = 0.0;
  uint64_t max_batch_size = 0;

  struct ClassWait {
    uint64_t count = 0;    ///< dispatches sampled in this class
    TimeMicros p50 = 0;    ///< queue-wait percentiles over a sliding window
    TimeMicros p99 = 0;
  };
  std::array<ClassWait, kNumPriorityClasses> wait{};

  std::vector<FunctionQueueStats> functions;
};

/// The request scheduler: admission gate -> weighted-fair queues -> policy
/// pop -> same-model coalescing. Passive — it never runs requests itself;
/// the platform's dispatcher tasks and RT lanes call PopBatch.
///
/// \threadsafety All methods safe to call concurrently. Submit contends only
/// on the target function's shard; PopBatch serializes on the queue's pop
/// lock (held for the ordering decision only, never across execution).
class RequestScheduler {
 public:
  /// `clock` defaults to a process-lifetime RealClock; tests inject a
  /// ManualClock for deterministic token-bucket refill.
  explicit RequestScheduler(const SchedulerConfig& config, Clock* clock = nullptr);

  Status RegisterFunction(const std::string& function,
                          const FunctionSchedParams& params);

  /// Admit + enqueue one request. `payload_bytes` feeds the global memory
  /// backpressure budget. Typed rejections (see sched/admission.h) leave the
  /// request un-queued; the caller resolves its future with the error.
  Status Submit(QueuedRequest request, uint64_t payload_bytes);

  /// Pop the next dispatch unit in policy order: one request, extended with
  /// same-model/same-session companions up to the function's max_batch.
  /// Returns an empty vector when nothing is queued. Queue-wait samples are
  /// recorded here (dequeue time - enqueue time, per priority class).
  ///
  /// Under DeadlineEdf, requests whose deadline already passed at dispatch
  /// time are shed instead of returned: deadlines gate execution, not just
  /// ordering. Shed requests are appended to `expired` (counted in
  /// SchedStats.drops) so the caller can resolve their futures with a typed
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
  const FunctionSchedParams* function_params(const std::string& function) const;

  SchedStats stats() const;

 private:
  /// Sliding-window reservoir of queue-wait samples for one priority class.
  struct WaitWindow {
    static constexpr size_t kCapacity = 4096;
    mutable std::mutex mutex;
    std::vector<TimeMicros> samples;  ///< ring, guarded by mutex
    size_t next = 0;
    uint64_t count = 0;
  };

  void RecordWait(int priority, TimeMicros wait);

  FairQueue queue_;
  AdmissionController admission_;
  SameModelBatcher batcher_;

  std::unique_ptr<Clock> owned_clock_;
  Clock* clock_;

  /// Registration-time params, looked up by the dispatcher for max_batch
  /// (read-mostly; values are heap-stable once inserted).
  mutable std::shared_mutex params_mutex_;
  std::unordered_map<std::string, std::unique_ptr<FunctionSchedParams>> params_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> dispatched_{0};
  std::atomic<uint64_t> drops_{0};  ///< deadline-expired sheds (never executed)
  std::array<WaitWindow, kNumPriorityClasses> waits_;
};

}  // namespace sesemi::sched

#endif  // SESEMI_SCHED_SCHEDULER_H_
