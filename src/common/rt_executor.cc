#include "common/rt_executor.h"

#include <algorithm>
#include <cerrno>

#include "common/logging.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace sesemi {

RtExecutor::RtExecutor(const RtExecutorConfig& config, PumpFn pump, void* arg)
    : config_(config), pump_(pump), arg_(arg) {
  config_.num_lanes = std::max(1, config_.num_lanes);

  threads_.reserve(static_cast<size_t>(config_.num_lanes));
  for (int i = 0; i < config_.num_lanes; ++i) {
    threads_.emplace_back([this, i] { LaneLoop(i); });
  }
  // Block until every lane has applied (or failed to apply) its pinning and
  // priority, so stats().pinned/elevated are deterministic from construction
  // and no kick can race a half-built lane set.
  while (lanes_started_.load(std::memory_order_acquire) < config_.num_lanes) {
    std::this_thread::yield();
  }
}

RtExecutor::~RtExecutor() {
  stop_.store(true, std::memory_order_release);
  // One token per lane. A lane exits at the first token it takes after the
  // stop store, so every parked lane wakes and untaken tokens are dropped.
  doorbell_.fetch_add(static_cast<int>(threads_.size()));
  doorbell_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void RtExecutor::Kick(int n) {
  if (n <= 0) return;
  // seq_cst, so a lane about to wait either reads the new count or is seen
  // as a waiter by the notify.
  doorbell_.fetch_add(n);
  if (n == 1) {
    doorbell_.notify_one();
  } else {
    doorbell_.notify_all();
  }
}

void RtExecutor::ApplyLaneScheduling(int lane) {
#if defined(__linux__)
  bool failed = false;
  if (config_.pin_threads) {
    const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
    cpu_set_t set;
    CPU_ZERO(&set);
    // Highest cores first: the bulk pool's workers have no affinity, so the
    // scheduler tends to spread them from low cores up; pinning lanes from
    // the top minimizes steady-state overlap.
    CPU_SET((ncpu - 1u - (static_cast<unsigned>(lane) % ncpu)) % ncpu, &set);
    const int rc = config_.simulate_sched_failure
                       ? EPERM
                       : pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
    if (rc != 0) {
      pin_failed_.store(true, std::memory_order_relaxed);
      failed = true;
    }
  }
  if (config_.elevate_priority) {
    sched_param param{};
    param.sched_priority = 40;
    const int rc = config_.simulate_sched_failure
                       ? EPERM
                       : pthread_setschedparam(pthread_self(), SCHED_FIFO, &param);
    if (rc != 0) {
      elevate_failed_.store(true, std::memory_order_relaxed);
      failed = true;
    }
  }
  if (failed && !warned_.exchange(true, std::memory_order_relaxed)) {
    // Expected in unprivileged containers (EPERM without CAP_SYS_NICE): the
    // tier still isolates by thread identity and dispatch order, just
    // without hard CPU reservations.
    SESEMI_WLOG << "rt lane pin/priority unavailable (EPERM?); "
                << "falling back to unpinned normal-priority lanes";
  }
#else
  (void)lane;
  if (config_.pin_threads) pin_failed_.store(true, std::memory_order_relaxed);
  if (config_.elevate_priority) {
    elevate_failed_.store(true, std::memory_order_relaxed);
  }
#endif
}

void RtExecutor::LaneLoop(int lane) {
  ScopedExecTier tier(ExecTier::kRealtime);
  ApplyLaneScheduling(lane);
  lanes_started_.fetch_add(1, std::memory_order_release);

  for (;;) {
    // Take one token, blocking at once while there is none: a lane never
    // spins, and it sleeps only against the 0 it read (see the header).
    int tokens = doorbell_.load();
    do {
      while (tokens == 0) {
        doorbell_.wait(0);
        tokens = doorbell_.load();
      }
    } while (!doorbell_.compare_exchange_weak(tokens, tokens - 1));
    if (stop_.load(std::memory_order_acquire)) return;
    busy_lanes_.fetch_add(1, std::memory_order_relaxed);
    pump_(arg_, lane);
    busy_lanes_.fetch_sub(1, std::memory_order_relaxed);
    executed_.fetch_add(1, std::memory_order_relaxed);
  }
}

RtExecutorStats RtExecutor::stats() const {
  RtExecutorStats s;
  s.lanes = static_cast<int>(threads_.size());
  s.busy_lanes = busy_lanes_.load(std::memory_order_relaxed);
  s.executed = executed_.load(std::memory_order_relaxed);
  s.pinned = config_.pin_threads && !pin_failed_.load(std::memory_order_relaxed);
  s.elevated =
      config_.elevate_priority && !elevate_failed_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace sesemi
