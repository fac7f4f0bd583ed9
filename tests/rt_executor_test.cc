// RT execution-tier tests: one pump call per doorbell token (single and
// multi-producer; the TSan leg runs these), lane identity and tier
// propagation, the zero-allocation Kick guarantee (enforced by a global
// operator-new probe, not assumed), graceful degradation when
// pinning/priority syscalls fail (the normal outcome in an unprivileged CI
// container), ParallelFor collapsing to inline execution on a lane, and an
// idle lane blocking instead of burning CPU.
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
// Kick's zero-allocation guarantee is measured, not documented.
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
  return config;
}

// The simplest pump: counts its calls.
struct CountingPump {
  std::atomic<int> calls{0};

  static void Pump(void* arg, int) {
    static_cast<CountingPump*>(arg)->calls.fetch_add(1, std::memory_order_relaxed);
  }
  void WaitFor(int n) const {
    while (calls.load(std::memory_order_relaxed) < n) std::this_thread::yield();
  }
};

void WaitExecuted(const RtExecutor& exec, uint64_t n) {
  while (exec.stats().executed < n) std::this_thread::yield();
}

// Holds a lane inside a pump call until Open(), so a test can queue tokens
// behind it.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  std::atomic<bool> entered{false};

  void Hold() {
    entered.store(true, std::memory_order_release);
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return open; });
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

TEST(RtExecutorTest, KickRunsThePumpOncePerToken) {
  CountingPump pump;
  RtExecutor exec(PlainConfig(), &CountingPump::Pump, &pump);
  for (int i = 0; i < 50; ++i) exec.Kick();
  exec.Kick(50);
  exec.Kick(0);  // no token
  // A lane counts a call as executed after the pump returns, so wait on the
  // count itself: the pump's own tally can reach 100 first.
  WaitExecuted(exec, 100);
  EXPECT_EQ(pump.calls.load(std::memory_order_relaxed), 100);
  EXPECT_EQ(exec.stats().executed, 100u);
}

TEST(RtExecutorTest, PumpSeesItsLaneAndTheRealtimeTier) {
  struct Probe {
    std::atomic<int> calls{0};
    std::atomic<int> out_of_range{0};
    std::atomic<int> not_realtime{0};

    static void Pump(void* arg, int lane) {
      auto* p = static_cast<Probe*>(arg);
      if (lane < 0 || lane >= 2) p->out_of_range.fetch_add(1);
      if (CurrentExecTier() != ExecTier::kRealtime) p->not_realtime.fetch_add(1);
      p->calls.fetch_add(1, std::memory_order_release);
    }
  } probe;
  RtExecutorConfig config = PlainConfig();
  config.num_lanes = 2;
  RtExecutor exec(config, &Probe::Pump, &probe);
  EXPECT_EQ(exec.lanes(), 2);
  EXPECT_EQ(CurrentExecTier(), ExecTier::kBulk);  // the test thread

  exec.Kick(64);
  while (probe.calls.load(std::memory_order_acquire) < 64) {
    std::this_thread::yield();
  }
  EXPECT_EQ(probe.out_of_range.load(), 0);
  EXPECT_EQ(probe.not_realtime.load(), 0);
}

TEST(RtExecutorTest, KickPerformsZeroHeapAllocations) {
  CountingPump pump;
  RtExecutor exec(PlainConfig(), &CountingPump::Pump, &pump);
  // Warm the path once (first-use laziness elsewhere must not bill Kick).
  exec.Kick();
  pump.WaitFor(1);

  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 64; ++i) exec.Kick();
  const uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "Kick allocated on the handoff path";
  pump.WaitFor(65);
}

TEST(RtExecutorTest, MultiProducerKicksRunThePumpExactlyOncePerToken) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  constexpr int kTotal = kProducers * kPerProducer;
  CountingPump pump;
  RtExecutorConfig config = PlainConfig();
  config.num_lanes = 2;
  RtExecutor exec(config, &CountingPump::Pump, &pump);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&exec] {
      for (int i = 0; i < kPerProducer; ++i) exec.Kick();
    });
  }
  for (std::thread& t : producers) t.join();
  WaitExecuted(exec, kTotal);
  EXPECT_EQ(pump.calls.load(std::memory_order_relaxed), kTotal);
  EXPECT_EQ(exec.stats().executed, static_cast<uint64_t>(kTotal));
}

TEST(RtExecutorTest, SchedulingFailureDegradesToUnpinnedLanes) {
  RtExecutorConfig config;
  config.pin_threads = true;
  config.elevate_priority = true;
  config.simulate_sched_failure = true;  // force the EPERM path
  CountingPump pump;
  RtExecutor exec(config, &CountingPump::Pump, &pump);

  const RtExecutorStats stats = exec.stats();
  EXPECT_FALSE(stats.pinned);
  EXPECT_FALSE(stats.elevated);

  // Degraded lanes still run the pump: the tier loses CPU reservations,
  // never work.
  exec.Kick();
  pump.WaitFor(1);
}

TEST(RtExecutorTest, ParallelForRunsInlineOnLane) {
  struct Probe {
    std::atomic<bool> done{false};
    std::set<std::thread::id> threads;  // lane-only writes; no lock needed
    static void Pump(void* arg, int) {
      auto* p = static_cast<Probe*>(arg);
      // A wide range that the bulk pool would split across workers must
      // stay on the lane: fan-out would hand latency-critical work to the
      // very pool the tier exists to bypass.
      ParallelFor(0, 10000, 1, [p](int64_t, int64_t) {
        p->threads.insert(std::this_thread::get_id());
      });
      p->done.store(true, std::memory_order_release);
    }
  } probe;
  RtExecutor exec(PlainConfig(), &Probe::Pump, &probe);
  exec.Kick();
  while (!probe.done.load(std::memory_order_acquire)) std::this_thread::yield();
  EXPECT_EQ(probe.threads.size(), 1u);
}

// A held lane's backlog of tokens runs the pump once per token and no more,
// and the lane then blocks instead of polling. Thread CPU time accrues only
// while the lane runs, so the CPU bound is one-sided: a blocked lane reads
// ~0 however slow or loaded the host is, and the sleep only gives a polling
// lane time to show itself.
TEST(RtExecutorTest, HeldLaneBacklogRunsOncePerTokenThenIdlesBlocked) {
  struct Probe {
    Gate gate;
    std::atomic<int> calls{0};
    std::atomic<int64_t> lane_cpu_ns{0};

    static void Pump(void* arg, int) {
      auto* p = static_cast<Probe*>(arg);
      timespec ts{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
      p->lane_cpu_ns.store(int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec,
                           std::memory_order_relaxed);
      if (p->calls.fetch_add(1, std::memory_order_acq_rel) == 0) p->gate.Hold();
    }
  } probe;
  constexpr int kBacklog = 1000;
  RtExecutor exec(PlainConfig(), &Probe::Pump, &probe);

  exec.Kick();
  probe.gate.WaitEntered();
  for (int i = 0; i < kBacklog; ++i) exec.Kick();
  probe.gate.Open();
  WaitExecuted(exec, kBacklog + 1);
  EXPECT_EQ(probe.calls.load(), kBacklog + 1);

  auto read_lane_cpu = [&](int calls) {
    exec.Kick();
    while (probe.calls.load(std::memory_order_acquire) < calls) {
      std::this_thread::yield();
    }
    return probe.lane_cpu_ns.load(std::memory_order_relaxed);
  };
  const int64_t before = read_lane_cpu(kBacklog + 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // No token was left over: the lane ran nothing while the test slept.
  EXPECT_EQ(probe.calls.load(), kBacklog + 2);
  const int64_t after = read_lane_cpu(kBacklog + 3);

  const int64_t idle_cpu_ns = after - before;
  EXPECT_LT(idle_cpu_ns, 20 * 1000 * 1000)
      << "an idle lane ran for " << idle_cpu_ns / 1000
      << " us of a 100 ms sleep instead of blocking";
  WaitExecuted(exec, kBacklog + 3);
  EXPECT_EQ(probe.calls.load(), kBacklog + 3);
}

}  // namespace
}  // namespace sesemi
