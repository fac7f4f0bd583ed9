// RT execution-tier tests: lane identity and tier propagation, the
// zero-allocation Submit guarantee (enforced by a global operator-new probe,
// not assumed), multi-producer handoff under contention (the TSan leg runs
// this), ring-full rejection, the bulk-helper clamp transitions, graceful
// degradation when pinning/priority syscalls fail (the normal outcome in an
// unprivileged CI container), ParallelFor collapsing to inline execution
// on a lane, and an idle lane blocking instead of burning CPU.
#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "common/parallel_for.h"
#include "common/rt_executor.h"

// Allocation probe: counts every global operator new in the test binary so
// Submit's zero-allocation guarantee is measured, not documented.
static std::atomic<uint64_t> g_allocs{0};

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sesemi {
namespace {

// CI containers usually lack CAP_SYS_NICE; default configs in tests disable
// the privileged knobs so stats assertions don't depend on the environment.
RtExecutorConfig PlainConfig() {
  RtExecutorConfig config;
  config.pin_threads = false;
  config.elevate_priority = false;
  config.clamp_bulk_while_busy = false;
  return config;
}

// Holds a lane inside a job until Open(), so a test can queue work behind it.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  std::atomic<bool> entered{false};

  static void Hold(void* arg) {
    auto* g = static_cast<Gate*>(arg);
    g->entered.store(true, std::memory_order_release);
    std::unique_lock<std::mutex> lock(g->mutex);
    g->cv.wait(lock, [g] { return g->open; });
  }
  void WaitEntered() {
    while (!entered.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
};

TEST(RtExecutorTest, ExecutesSubmittedJobs) {
  RtExecutor exec(PlainConfig());
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(exec.Submit(
        [](void* arg) {
          static_cast<std::atomic<int>*>(arg)->fetch_add(1,
                                                         std::memory_order_relaxed);
        },
        &ran));
  }
  // A lane counts a job as executed after its body returns, so wait on the
  // count itself: the bodies' own tally can reach 100 first.
  while (exec.stats().executed < 100u) std::this_thread::yield();
  const RtExecutorStats stats = exec.stats();
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 100);
  EXPECT_EQ(stats.submitted, 100u);
  EXPECT_EQ(stats.executed, 100u);
  EXPECT_EQ(stats.rejected_full, 0u);
}

TEST(RtExecutorTest, JobsRunOnLaneWithRealtimeTier) {
  RtExecutorConfig config = PlainConfig();
  config.num_lanes = 2;
  RtExecutor exec(config);
  EXPECT_EQ(exec.lanes(), 2);
  EXPECT_FALSE(RtExecutor::OnRtLane());  // the test thread is not a lane
  EXPECT_EQ(RtExecutor::LaneIndex(), -1);
  EXPECT_EQ(CurrentExecTier(), ExecTier::kBulk);

  struct Probe {
    std::atomic<bool> done{false};
    bool on_lane = false;
    int lane = -1;
    ExecTier tier = ExecTier::kBulk;
  } probe;
  ASSERT_TRUE(exec.Submit(
      [](void* arg) {
        auto* p = static_cast<Probe*>(arg);
        p->on_lane = RtExecutor::OnRtLane();
        p->lane = RtExecutor::LaneIndex();
        p->tier = CurrentExecTier();
        p->done.store(true, std::memory_order_release);
      },
      &probe));
  while (!probe.done.load(std::memory_order_acquire)) std::this_thread::yield();
  EXPECT_TRUE(probe.on_lane);
  EXPECT_GE(probe.lane, 0);
  EXPECT_LT(probe.lane, 2);
  EXPECT_EQ(probe.tier, ExecTier::kRealtime);
}

TEST(RtExecutorTest, SubmitPerformsZeroHeapAllocations) {
  RtExecutor exec(PlainConfig());
  std::atomic<int> ran{0};
  const auto fn = [](void* arg) {
    static_cast<std::atomic<int>*>(arg)->fetch_add(1, std::memory_order_relaxed);
  };
  // Warm the path once (first-use laziness elsewhere must not bill Submit).
  ASSERT_TRUE(exec.Submit(fn, &ran));
  while (ran.load(std::memory_order_relaxed) < 1) std::this_thread::yield();

  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(exec.Submit(fn, &ran));
  const uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "Submit allocated on the handoff path";
  while (ran.load(std::memory_order_relaxed) < 65) std::this_thread::yield();
}

TEST(RtExecutorTest, MultiProducerHandoffDeliversEveryJob) {
  RtExecutorConfig config = PlainConfig();
  config.num_lanes = 2;
  config.queue_capacity = 4096;
  RtExecutor exec(config);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::atomic<int> ran{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&exec, &ran] {
      for (int i = 0; i < kPerProducer; ++i) {
        while (!exec.Submit(
            [](void* arg) {
              static_cast<std::atomic<int>*>(arg)->fetch_add(
                  1, std::memory_order_relaxed);
            },
            &ran)) {
          std::this_thread::yield();  // transient full ring: retry
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  while (ran.load(std::memory_order_relaxed) < kProducers * kPerProducer) {
    std::this_thread::yield();
  }
  EXPECT_EQ(ran.load(std::memory_order_relaxed), kProducers * kPerProducer);
}

TEST(RtExecutorTest, FullRingRejectsInsteadOfBlocking) {
  Gate gate;
  RtExecutorConfig config = PlainConfig();
  config.num_lanes = 1;
  config.queue_capacity = 2;  // ring holds exactly 2 queued jobs
  RtExecutor exec(config);

  // Wedge the single lane so nothing drains.
  ASSERT_TRUE(exec.Submit(Gate::Hold, &gate));
  gate.WaitEntered();

  const auto noop = [](void*) {};
  ASSERT_TRUE(exec.Submit(noop, nullptr));
  ASSERT_TRUE(exec.Submit(noop, nullptr));
  // Ring full (lane busy, 2 slots queued): Submit must refuse, not block.
  EXPECT_FALSE(exec.Submit(noop, nullptr));
  EXPECT_GE(exec.stats().rejected_full, 1u);
  EXPECT_EQ(exec.stats().busy_lanes, 1);
  gate.Open();
}

TEST(RtExecutorTest, SchedulingFailureDegradesToUnpinnedLanes) {
  RtExecutorConfig config;
  config.pin_threads = true;
  config.elevate_priority = true;
  config.clamp_bulk_while_busy = false;
  config.simulate_sched_failure = true;  // force the EPERM path
  RtExecutor exec(config);

  const RtExecutorStats stats = exec.stats();
  EXPECT_FALSE(stats.pinned);
  EXPECT_FALSE(stats.elevated);

  // Degraded lanes still execute: the tier loses CPU reservations, never work.
  std::atomic<int> ran{0};
  ASSERT_TRUE(exec.Submit(
      [](void* arg) {
        static_cast<std::atomic<int>*>(arg)->fetch_add(1,
                                                       std::memory_order_relaxed);
      },
      &ran));
  while (ran.load(std::memory_order_relaxed) < 1) std::this_thread::yield();
}

TEST(RtExecutorTest, BusyLaneClampsBulkHelpersAndReleasesOnIdle) {
  ASSERT_EQ(BulkHelperLimit(), 0);

  Gate gate;
  RtExecutorConfig config = PlainConfig();
  config.clamp_bulk_while_busy = true;
  config.bulk_helpers_while_busy = 2;
  {
    RtExecutor exec(config);
    ASSERT_TRUE(exec.Submit(Gate::Hold, &gate));
    gate.WaitEntered();
    // Busy 0 -> 1 installed the clamp.
    EXPECT_EQ(BulkHelperLimit(), 2);
    gate.Open();
    while (exec.stats().busy_lanes != 0) std::this_thread::yield();
    // Busy 1 -> 0 removed it. The lane publishes the idle count one store
    // before it lifts the clamp, so give that store a bounded moment to land.
    for (int i = 0; i < 1000000 && BulkHelperLimit() != 0; ++i) {
      std::this_thread::yield();
    }
    EXPECT_EQ(BulkHelperLimit(), 0);
  }
}

TEST(RtExecutorTest, ParallelForRunsInlineOnLane) {
  RtExecutor exec(PlainConfig());
  struct Probe {
    std::atomic<bool> done{false};
    std::set<std::thread::id> threads;  // lane-only writes; no lock needed
  } probe;
  ASSERT_TRUE(exec.Submit(
      [](void* arg) {
        auto* p = static_cast<Probe*>(arg);
        // A wide range that the bulk pool would split across workers must
        // stay on the lane: fan-out would hand latency-critical work to the
        // very pool the tier exists to bypass.
        ParallelFor(0, 10000, 1, [p](int64_t, int64_t) {
          p->threads.insert(std::this_thread::get_id());
        });
        p->done.store(true, std::memory_order_release);
      },
      &probe));
  while (!probe.done.load(std::memory_order_acquire)) std::this_thread::yield();
  EXPECT_EQ(probe.threads.size(), 1u);
}

TEST(RtExecutorTest, DestructorDrainsQueuedJobs) {
  std::atomic<int> ran{0};
  constexpr int kJobs = 256;
  {
    RtExecutorConfig config = PlainConfig();
    config.queue_capacity = 512;
    RtExecutor exec(config);
    for (int i = 0; i < kJobs; ++i) {
      ASSERT_TRUE(exec.Submit(
          [](void* arg) {
            static_cast<std::atomic<int>*>(arg)->fetch_add(
                1, std::memory_order_relaxed);
          },
          &ran));
    }
  }
  // Destructor returns only after lanes drained everything queued.
  EXPECT_EQ(ran.load(std::memory_order_relaxed), kJobs);
}

// A lane that pops a queued job does not take that job's wake token, so a
// drained backlog leaves one token per job behind. An idle lane must still
// block on them, not poll. Thread CPU time accrues only while the lane runs,
// so the bound is one-sided: a blocked lane reads ~0 however slow or loaded
// the host is, and the sleep only gives a polling lane time to show itself.
TEST(RtExecutorTest, IdleLaneBurnsNoCpuAfterABacklog) {
  struct CpuProbe {
    std::atomic<bool> done{false};
    int64_t lane_cpu_ns = 0;
  };
  constexpr int kBacklog = 1000;
  Gate gate;
  std::atomic<int> ran{0};
  CpuProbe before;
  CpuProbe after;
  RtExecutorConfig config = PlainConfig();
  config.queue_capacity = 1024;  // the whole backlog queues behind the gate
  RtExecutor exec(config);

  ASSERT_TRUE(exec.Submit(Gate::Hold, &gate));
  gate.WaitEntered();
  for (int i = 0; i < kBacklog; ++i) {
    ASSERT_TRUE(exec.Submit(
        [](void* arg) {
          static_cast<std::atomic<int>*>(arg)->fetch_add(
              1, std::memory_order_relaxed);
        },
        &ran));
  }
  gate.Open();
  while (ran.load(std::memory_order_relaxed) < kBacklog) {
    std::this_thread::yield();
  }

  const auto read_lane_cpu = [](void* arg) {
    auto* p = static_cast<CpuProbe*>(arg);
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    p->lane_cpu_ns = int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
    p->done.store(true, std::memory_order_release);
  };
  ASSERT_TRUE(exec.Submit(read_lane_cpu, &before));
  while (!before.done.load(std::memory_order_acquire)) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(exec.Submit(read_lane_cpu, &after));
  while (!after.done.load(std::memory_order_acquire)) std::this_thread::yield();

  const int64_t idle_cpu_ns = after.lane_cpu_ns - before.lane_cpu_ns;
  EXPECT_LT(idle_cpu_ns, 20 * 1000 * 1000)
      << "an idle lane ran for " << idle_cpu_ns / 1000
      << " us of a 100 ms sleep instead of blocking";
}

}  // namespace
}  // namespace sesemi
