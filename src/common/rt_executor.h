#ifndef SESEMI_COMMON_RT_EXECUTOR_H_
#define SESEMI_COMMON_RT_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <semaphore>
#include <thread>
#include <vector>

#include "common/executor.h"

namespace sesemi {

/// \file
/// The real-time execution tier (docs/ARCHITECTURE.md "Execution tiers"):
/// a small set of dedicated inference lanes for the latency-sensitive
/// priority classes, following the AARI real-time inference-thread pattern
/// (a high-priority thread fed through a semaphore/atomic handoff, never a
/// mutex on the signalling path).
///
/// Design:
///  - Handoff is a fixed-capacity lock-free MPMC slot ring (Vyukov bounded
///    queue: per-slot sequence numbers, one CAS per enqueue/dequeue). Submit
///    performs ZERO heap allocations — probe-tested — and never blocks: a
///    full ring returns false and the caller degrades to the bulk tier.
///  - Wake is a counting semaphore (futex-backed on Linux): one release per
///    submitted job. A lane pops until the ring is empty, then blocks on the
///    semaphore at once, so an idle lane burns no CPU. Lanes never spin:
///    spinning FIFO lanes that share a core only yield to each other, and
///    spinning at SCHED_FIFO runs into the kernel's RT throttle, which
///    stalls the whole core.
///  - Lane i is pinned to core ncpu-1-i (highest first, away from the bulk
///    pool's natural low-core affinity) and elevated to SCHED_FIFO. Lanes
///    are numbered per executor, so lane 0 of every executor in a process
///    shares the top core; a blocked lane leaves it to the others. Both are
///    privileged operations: EPERM (the normal CI-container outcome) is
///    detected once, logged once, and degrades to plain unpinned threads —
///    never an error.
///  - Every lane runs with CurrentExecTier() == kRealtime for its lifetime,
///    so ParallelFor inside a lane-executed job runs inline instead of
///    fanning into the bulk pool. While any lane is busy, the bulk pool's
///    per-job helper count is optionally clamped (SetBulkHelperLimit) so RT
///    work keeps whole cores.

struct RtExecutorConfig {
  /// Dedicated lanes (>= 1). Keep this small: each busy lane monopolizes a
  /// core that the bulk pool then shares N-1 ways.
  int num_lanes = 1;
  /// Slot-ring capacity (rounded up to a power of two). Submits beyond a
  /// full ring return false rather than blocking.
  uint32_t queue_capacity = 1024;
  /// Pin lane i to core (ncores-1-i); elevate to SCHED_FIFO. Both degrade
  /// gracefully when the kernel says no (see pinned/elevated in stats).
  bool pin_threads = true;
  bool elevate_priority = true;
  /// While >= 1 lane is busy, cap the threads concurrently draining any one
  /// bulk ParallelFor job (see SetBulkHelperLimit). 0 disables the clamp.
  /// The cap itself is bulk_helpers_while_busy, or the derived default
  /// max(1, ParallelismDegree() - num_lanes) when that is 0.
  bool clamp_bulk_while_busy = true;
  int bulk_helpers_while_busy = 0;
  /// Test hook: pretend every affinity/priority syscall failed with EPERM,
  /// forcing the unpinned-fallback path deterministically.
  bool simulate_sched_failure = false;
};

struct RtExecutorStats {
  int lanes = 0;
  int busy_lanes = 0;         ///< lanes currently executing a job
  uint64_t submitted = 0;     ///< accepted Submits
  uint64_t executed = 0;      ///< jobs whose body has returned on a lane;
                              ///< counted after the body, so it can trail
                              ///< the body's own side effects
  uint64_t rejected_full = 0; ///< Submits refused on a full ring
  bool pinned = false;        ///< affinity applied on every lane
  bool elevated = false;      ///< SCHED_FIFO applied on every lane
};

class RtExecutor {
 public:
  /// A job is a plain function pointer + context word (not std::function),
  /// so Submit can promise an allocation-free handoff.
  using JobFn = void (*)(void*);

  explicit RtExecutor(const RtExecutorConfig& config);
  /// Stops accepting work, lets lanes drain every queued job, joins them.
  ~RtExecutor();

  RtExecutor(const RtExecutor&) = delete;
  RtExecutor& operator=(const RtExecutor&) = delete;

  /// Queue `fn(arg)` on a lane: lock-free, allocation-free, non-blocking.
  /// False when the ring is full or the executor is shutting down (the
  /// caller falls back to the bulk tier). `arg` must stay valid until the
  /// job runs.
  bool Submit(JobFn fn, void* arg);

  /// Lane threads, i.e. jobs that can run concurrently.
  int lanes() const { return static_cast<int>(threads_.size()); }

  RtExecutorStats stats() const;

  /// True iff the calling thread is one of this process's RT lanes (any
  /// executor). The thread-identity half of the isolation contract.
  static bool OnRtLane();
  /// Lane index of the calling thread within its executor, or -1.
  static int LaneIndex();

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> seq{0};
    JobFn fn = nullptr;
    void* arg = nullptr;
  };

  void LaneLoop(int lane);
  bool TryPop(JobFn* fn, void** arg);
  /// Apply pinning/priority for the calling lane thread; records failures.
  void ApplyLaneScheduling(int lane);
  void EnterBusy();
  void LeaveBusy();

  RtExecutorConfig config_;
  int bulk_helper_cap_ = 0;  ///< resolved clamp value (0 = clamp off)
  uint32_t ring_mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  alignas(64) std::atomic<uint64_t> enqueue_pos_{0};
  alignas(64) std::atomic<uint64_t> dequeue_pos_{0};

  std::counting_semaphore<> ready_{0};
  std::atomic<bool> stop_{false};

  std::atomic<int> busy_lanes_{0};
  std::atomic<int> lanes_started_{0};
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> rejected_full_{0};
  std::atomic<bool> pin_failed_{false};
  std::atomic<bool> elevate_failed_{false};
  std::atomic<bool> warned_{false};

  std::vector<std::thread> threads_;
};

}  // namespace sesemi

#endif  // SESEMI_COMMON_RT_EXECUTOR_H_
