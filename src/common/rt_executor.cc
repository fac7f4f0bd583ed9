#include "common/rt_executor.h"

#include <algorithm>
#include <cerrno>

#include "common/logging.h"
#include "common/parallel_for.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace sesemi {

namespace {

thread_local int t_rt_lane_index = -1;

uint32_t RoundUpPow2(uint32_t v) {
  if (v < 2) return 2;
  v--;
  v |= v >> 1;
  v |= v >> 2;
  v |= v >> 4;
  v |= v >> 8;
  v |= v >> 16;
  return v + 1;
}

}  // namespace

bool RtExecutor::OnRtLane() { return t_rt_lane_index >= 0; }

int RtExecutor::LaneIndex() { return t_rt_lane_index; }

RtExecutor::RtExecutor(const RtExecutorConfig& config) : config_(config) {
  config_.num_lanes = std::max(1, config_.num_lanes);
  if (config_.clamp_bulk_while_busy) {
    bulk_helper_cap_ = config_.bulk_helpers_while_busy > 0
                           ? config_.bulk_helpers_while_busy
                           : std::max(1, ParallelismDegree() - config_.num_lanes);
  }

  const uint32_t capacity = RoundUpPow2(std::max<uint32_t>(config_.queue_capacity, 2));
  ring_mask_ = capacity - 1;
  slots_ = std::make_unique<Slot[]>(capacity);
  for (uint32_t i = 0; i < capacity; ++i) {
    slots_[i].seq.store(i, std::memory_order_relaxed);
  }

  threads_.reserve(static_cast<size_t>(config_.num_lanes));
  for (int i = 0; i < config_.num_lanes; ++i) {
    threads_.emplace_back([this, i] { LaneLoop(i); });
  }
  // Block until every lane has applied (or failed to apply) its pinning and
  // priority, so stats().pinned/elevated are deterministic from construction
  // and no submit can race a half-built lane set.
  while (lanes_started_.load(std::memory_order_acquire) < config_.num_lanes) {
    std::this_thread::yield();
  }
}

RtExecutor::~RtExecutor() {
  stop_.store(true, std::memory_order_release);
  // One token per lane: each post-stop lane consumes at most one (it drains
  // the ring and exits instead of re-parking), so every parked lane wakes.
  ready_.release(static_cast<std::ptrdiff_t>(threads_.size()));
  for (std::thread& t : threads_) t.join();
  // Lanes drained the ring before exiting; nothing queued can dangle.
}

bool RtExecutor::Submit(JobFn fn, void* arg) {
  if (stop_.load(std::memory_order_acquire)) return false;

  uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Slot& slot = slots_[pos & ring_mask_];
    const uint64_t seq = slot.seq.load(std::memory_order_acquire);
    const int64_t diff = static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
    if (diff == 0) {
      if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        slot.fn = fn;
        slot.arg = arg;
        slot.seq.store(pos + 1, std::memory_order_release);
        submitted_.fetch_add(1, std::memory_order_relaxed);
        ready_.release();
        return true;
      }
    } else if (diff < 0) {
      // The slot one full lap behind is still unconsumed: ring full.
      rejected_full_.fetch_add(1, std::memory_order_relaxed);
      return false;
    } else {
      pos = enqueue_pos_.load(std::memory_order_relaxed);
    }
  }
}

bool RtExecutor::TryPop(JobFn* fn, void** arg) {
  uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Slot& slot = slots_[pos & ring_mask_];
    const uint64_t seq = slot.seq.load(std::memory_order_acquire);
    const int64_t diff = static_cast<int64_t>(seq) - static_cast<int64_t>(pos + 1);
    if (diff == 0) {
      if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        *fn = slot.fn;
        *arg = slot.arg;
        slot.seq.store(pos + ring_mask_ + 1, std::memory_order_release);
        return true;
      }
    } else if (diff < 0) {
      return false;  // empty
    } else {
      pos = dequeue_pos_.load(std::memory_order_relaxed);
    }
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

void RtExecutor::EnterBusy() {
  const int prev = busy_lanes_.fetch_add(1, std::memory_order_acq_rel);
  if (prev == 0 && bulk_helper_cap_ > 0) SetBulkHelperLimit(bulk_helper_cap_);
}

void RtExecutor::LeaveBusy() {
  const int prev = busy_lanes_.fetch_sub(1, std::memory_order_acq_rel);
  if (prev == 1 && bulk_helper_cap_ > 0) SetBulkHelperLimit(0);
}

void RtExecutor::LaneLoop(int lane) {
  t_rt_lane_index = lane;
  ScopedExecTier tier(ExecTier::kRealtime);
  ApplyLaneScheduling(lane);
  lanes_started_.fetch_add(1, std::memory_order_release);

  JobFn fn = nullptr;
  void* arg = nullptr;
  for (;;) {
    // Pop before blocking, and block at once when the ring is empty. A lane
    // can pop a job without taking its token, so leftover tokens are normal;
    // each costs one non-blocking acquire and one empty pop. Never spin (see
    // the header), and never wait for a slot another submitter claimed but
    // has not published: that submitter may be preempted on this lane's
    // core, and its own token wakes the lane once the slot is published.
    if (!TryPop(&fn, &arg)) {
      if (stop_.load(std::memory_order_acquire)) {
        // Drain remaining jobs so nothing queued is abandoned, then exit.
        while (TryPop(&fn, &arg)) {
          EnterBusy();
          fn(arg);
          LeaveBusy();
          executed_.fetch_add(1, std::memory_order_relaxed);
        }
        return;
      }
      ready_.acquire();
      continue;
    }
    EnterBusy();
    fn(arg);
    LeaveBusy();
    executed_.fetch_add(1, std::memory_order_relaxed);
  }
}

RtExecutorStats RtExecutor::stats() const {
  RtExecutorStats s;
  s.lanes = static_cast<int>(threads_.size());
  s.busy_lanes = busy_lanes_.load(std::memory_order_relaxed);
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.executed = executed_.load(std::memory_order_relaxed);
  s.rejected_full = rejected_full_.load(std::memory_order_relaxed);
  s.pinned = config_.pin_threads && !pin_failed_.load(std::memory_order_relaxed);
  s.elevated =
      config_.elevate_priority && !elevate_failed_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace sesemi
