#ifndef SESEMI_COMMON_RT_EXECUTOR_H_
#define SESEMI_COMMON_RT_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <semaphore>
#include <thread>
#include <vector>

#include "common/executor.h"

namespace sesemi {

/// \file
/// The real-time execution tier (docs/ARCHITECTURE.md "Execution tiers"):
/// a small set of dedicated inference lanes for the latency-sensitive
/// priority classes, following the AARI real-time inference-thread pattern
/// (a high-priority thread fed through a semaphore, never a mutex on the
/// signalling path).
///
/// Design:
///  - The lanes are bound to one pump when they are built. The caller keeps
///    the queue (the platform's scheduler classes); the executor keeps only
///    a counting-semaphore doorbell (futex-backed on Linux). Kick(n) releases
///    n tokens, and a lane takes one token, runs `pump(arg, lane)` once and
///    repeats. Kick performs ZERO heap allocations (probe-tested), never
///    blocks and cannot fill.
///  - A lane with no token blocks on the semaphore, so an idle lane burns no
///    CPU. Lanes never spin: spinning FIFO lanes that share a core only
///    yield to each other, and spinning at SCHED_FIFO runs into the kernel's
///    RT throttle, which stalls the whole core.
///  - Lane i is pinned to core ncpu-1-i (highest first, away from the bulk
///    pool's natural low-core affinity) and elevated to SCHED_FIFO. Lanes
///    are numbered per executor, so lane 0 of every executor in a process
///    shares the top core; a blocked lane leaves it to the others. Both are
///    privileged operations: EPERM (the normal CI-container outcome) is
///    detected once, logged once, and degrades to plain unpinned threads —
///    never an error.
///  - Every lane runs with CurrentExecTier() == kRealtime for its lifetime,
///    so ParallelFor inside a pump runs inline instead of fanning into the
///    bulk pool.

struct RtExecutorConfig {
  /// Dedicated lanes (>= 1). Keep this small: each busy lane monopolizes a
  /// core that the bulk pool then shares N-1 ways.
  int num_lanes = 1;
  /// Pin lane i to core (ncores-1-i); elevate to SCHED_FIFO. Both degrade
  /// gracefully when the kernel says no (see pinned/elevated in stats).
  bool pin_threads = true;
  bool elevate_priority = true;
  /// Test hook: pretend every affinity/priority syscall failed with EPERM,
  /// forcing the unpinned-fallback path deterministically.
  bool simulate_sched_failure = false;
};

struct RtExecutorStats {
  int lanes = 0;
  int busy_lanes = 0;      ///< lanes currently running the pump
  uint64_t executed = 0;   ///< pump calls that have returned; counted after
                           ///< the call, so it can trail the pump's own
                           ///< side effects
  bool pinned = false;     ///< affinity applied on every lane
  bool elevated = false;   ///< SCHED_FIFO applied on every lane
};

class RtExecutor {
 public:
  /// The lanes' one job: a plain function pointer and context word (not
  /// std::function), called with the index of the lane running it.
  using PumpFn = void (*)(void* arg, int lane);

  /// Start the lanes. `arg` must stay valid until the destructor returns.
  RtExecutor(const RtExecutorConfig& config, PumpFn pump, void* arg);
  /// Stops the lanes and joins them. A pump already running finishes;
  /// tokens not yet taken are dropped.
  ~RtExecutor();

  RtExecutor(const RtExecutor&) = delete;
  RtExecutor& operator=(const RtExecutor&) = delete;

  /// Release `n` doorbell tokens: the pump runs once per token, on whichever
  /// lane takes it. Lock-free, allocation-free, non-blocking.
  void Kick(int n = 1);

  /// Lane threads, i.e. pump calls that can run concurrently.
  int lanes() const { return static_cast<int>(threads_.size()); }

  RtExecutorStats stats() const;

 private:
  void LaneLoop(int lane);
  /// Apply pinning/priority for the calling lane thread; records failures.
  void ApplyLaneScheduling(int lane);

  RtExecutorConfig config_;
  PumpFn pump_;
  void* arg_;

  std::counting_semaphore<> doorbell_{0};
  std::atomic<bool> stop_{false};

  std::atomic<int> busy_lanes_{0};
  std::atomic<int> lanes_started_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<bool> pin_failed_{false};
  std::atomic<bool> elevate_failed_{false};
  std::atomic<bool> warned_{false};

  std::vector<std::thread> threads_;
};

}  // namespace sesemi

#endif  // SESEMI_COMMON_RT_EXECUTOR_H_
