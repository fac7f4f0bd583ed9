#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/parallel_for.h"

namespace sesemi {
namespace {

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  constexpr int64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(0, kN, 64, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, EmptyAndTinyRanges) {
  int calls = 0;
  ParallelFor(5, 5, 1, [&](int64_t, int64_t) { calls++; });
  EXPECT_EQ(calls, 0);

  std::atomic<int64_t> sum{0};
  ParallelFor(0, 3, 100, [&](int64_t begin, int64_t end) {
    sum.fetch_add(end - begin);
  });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ParallelForTest, NestedCallsRunInline) {
  std::atomic<int64_t> total{0};
  ParallelFor(0, 16, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      // Nested ParallelFor must not deadlock; it degrades to a plain loop.
      ParallelFor(0, 8, 1, [&](int64_t b, int64_t e) {
        total.fetch_add(e - b);
      });
    }
  });
  EXPECT_EQ(total.load(), 16 * 8);
}

TEST(ParallelForTest, ConcurrentCallersFromManyThreads) {
  constexpr int kThreads = 8;
  constexpr int64_t kN = 2000;
  std::atomic<int64_t> total{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        ParallelFor(0, kN, 32, [&](int64_t begin, int64_t end) {
          total.fetch_add(end - begin);
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(total.load(), static_cast<int64_t>(kThreads) * 10 * kN);
}

TEST(TaskGroupTest, RunsEveryTaskExactlyOnce) {
  constexpr int kTasks = 200;
  std::vector<std::atomic<int>> runs(kTasks);
  TaskGroup group;
  for (int i = 0; i < kTasks; ++i) {
    group.Submit([&runs, i] { runs[i].fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(group.pending(), 0);
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
}

TEST(TaskGroupTest, WaitIsIdempotentAndReusable) {
  TaskGroup group;
  group.Wait();  // nothing submitted
  std::atomic<int> runs{0};
  group.Submit([&] { runs.fetch_add(1); });
  group.Wait();
  group.Wait();
  EXPECT_EQ(runs.load(), 1);
  // The group is reusable after a Wait.
  group.Submit([&] { runs.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(runs.load(), 2);
}

TEST(TaskGroupTest, TasksMayCallParallelFor) {
  constexpr int kTasks = 16;
  constexpr int64_t kN = 512;
  std::atomic<int64_t> total{0};
  TaskGroup group;
  for (int i = 0; i < kTasks; ++i) {
    group.Submit([&] {
      ParallelFor(0, kN, 16, [&](int64_t begin, int64_t end) {
        total.fetch_add(end - begin);
      });
    });
  }
  group.Wait();
  EXPECT_EQ(total.load(), static_cast<int64_t>(kTasks) * kN);
}

TEST(TaskGroupTest, NestedSubmissionFromInsideTasks) {
  std::atomic<int> runs{0};
  TaskGroup group;
  for (int i = 0; i < 8; ++i) {
    group.Submit([&] {
      runs.fetch_add(1);
      group.Submit([&] { runs.fetch_add(1); });
    });
  }
  group.Wait();
  EXPECT_EQ(runs.load(), 16);
}

TEST(TaskGroupTest, ConcurrentSubmittersAndWaiters) {
  std::atomic<int> runs{0};
  TaskGroup group;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        group.Submit([&] { runs.fetch_add(1); });
      }
      group.Wait();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(runs.load(), 200);
}

TEST(ParallelForTest, DegreeIsAtLeastOne) {
  EXPECT_GE(ParallelismDegree(), 1);
}

TEST(ParallelForTest, RealtimeTierRunsInline) {
  // A thread marked kRealtime must never fan into the shared pool: the RT
  // lanes exist to bypass it (see common/executor.h).
  ScopedExecTier tier(ExecTier::kRealtime);
  std::set<std::thread::id> threads;
  ParallelFor(0, 100000, 1, [&threads](int64_t, int64_t) {
    threads.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(threads.size(), 1u);
  EXPECT_EQ(*threads.begin(), std::this_thread::get_id());
}

}  // namespace
}  // namespace sesemi
