#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "sched/scheduler.h"

namespace sesemi::sched {
namespace {

QueuedRequest Make(const std::string& function, const std::string& model = "m0",
                   const std::string& session = "u0", int priority = -1,
                   TimeMicros deadline = kNoDeadline) {
  QueuedRequest r;
  r.function = function;
  r.model_id = model;
  r.session_id = session;
  r.priority = priority;
  r.deadline = deadline;
  return r;
}

/// Pops one unit from `queue` into *out; the FairQueueTest functions do not
/// batch, so every unit is one request.
bool PopOne(FairQueue& queue, QueuedRequest* out) {
  ManualClock clock;
  std::vector<QueuedRequest> expired;
  std::vector<QueuedRequest> unit = queue.PopUnit(kAllClasses, clock, &expired);
  if (unit.empty()) return false;
  *out = std::move(unit.front());
  return true;
}

TEST(TokenBucketTest, RejectsBeyondBurstThenRefills) {
  TokenBucket bucket(/*rate_per_s=*/10.0, /*burst=*/5.0);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bucket.TryAcquire(0)) << i;
  EXPECT_FALSE(bucket.TryAcquire(0));  // burst exhausted

  // 100 ms at 10 rps refills exactly one token.
  EXPECT_TRUE(bucket.TryAcquire(100000));
  EXPECT_FALSE(bucket.TryAcquire(100000));

  // Refill caps at the burst: a long idle period grants 5 tokens, not 50.
  const TimeMicros later = SecondsToMicros(100);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bucket.TryAcquire(later)) << i;
  EXPECT_FALSE(bucket.TryAcquire(later));
}

TEST(TokenBucketTest, ZeroRateIsUnlimited) {
  TokenBucket bucket(0.0, 0.0);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(bucket.TryAcquire(0));
}

TEST(AdmissionTest, PerFunctionDepthCapRejectsUnavailable) {
  ManualClock clock;
  RequestScheduler admission(SchedulerConfig{}, &clock);
  FunctionSchedParams params;
  params.max_queue_depth = 2;
  ASSERT_TRUE(admission.RegisterFunction("f", params).ok());

  EXPECT_TRUE(admission.Submit(Make("f"), 0).ok());
  EXPECT_TRUE(admission.Submit(Make("f"), 0).ok());
  Status third = admission.Submit(Make("f"), 0).status();
  EXPECT_EQ(third.code(), StatusCode::kUnavailable);
  EXPECT_EQ(admission.admission_counters().rejected_depth.Value(), 1u);

  ASSERT_EQ(admission.PopBatch().size(), 1u);  // releases one backlog slot
  EXPECT_TRUE(admission.Submit(Make("f"), 0).ok());
}

TEST(AdmissionTest, GlobalQueueAndByteBudgets) {
  ManualClock clock;
  SchedulerConfig config;
  config.limits.max_queued = 3;
  RequestScheduler admission(config, &clock);
  ASSERT_TRUE(admission.RegisterFunction("a", {}).ok());
  ASSERT_TRUE(admission.RegisterFunction("b", {}).ok());

  EXPECT_TRUE(admission.Submit(Make("a"), 0).ok());
  EXPECT_TRUE(admission.Submit(Make("b"), 0).ok());
  EXPECT_TRUE(admission.Submit(Make("a"), 0).ok());
  Status fourth = admission.Submit(Make("b"), 0).status();
  EXPECT_EQ(fourth.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(admission.admission_counters().rejected_global.Value(), 1u);

  SchedulerConfig byte_config;
  byte_config.limits.max_queued_bytes = 1000;
  RequestScheduler bytes(byte_config, &clock);
  ASSERT_TRUE(bytes.RegisterFunction("a", {}).ok());
  EXPECT_TRUE(bytes.Submit(Make("a"), 600).ok());
  EXPECT_FALSE(bytes.Submit(Make("a"), 600).ok());  // 1200 > 1000
  ASSERT_EQ(bytes.PopBatch().size(), 1u);  // releases its 600 bytes
  EXPECT_TRUE(bytes.Submit(Make("a"), 600).ok());
}

TEST(AdmissionTest, UnknownFunctionIsNotFound) {
  RequestScheduler admission(SchedulerConfig{});
  EXPECT_TRUE(admission.Submit(Make("ghost"), 0).status().IsNotFound());
}

TEST(FairQueueTest, FifoPopsInGlobalArrivalOrder) {
  FairQueue queue(PolicyKind::kFifo);
  ASSERT_TRUE(queue.RegisterFunction("a", {}).ok());
  ASSERT_TRUE(queue.RegisterFunction("b", {}).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(queue.Enqueue(Make(i % 2 ? "b" : "a"), i).ok());
  }
  uint64_t last_seq = 0;
  for (int i = 0; i < 10; ++i) {
    QueuedRequest r;
    ASSERT_TRUE(PopOne(queue, &r));
    if (i > 0) EXPECT_GT(r.seq, last_seq) << "FIFO must follow arrival order";
    EXPECT_EQ(r.dispatch_seq, static_cast<uint64_t>(i));
    last_seq = r.seq;
  }
  QueuedRequest r;
  EXPECT_FALSE(PopOne(queue, &r));
}

TEST(FairQueueTest, WeightedFairRatioUnderSaturation) {
  FairQueue queue(PolicyKind::kWeightedFair);
  FunctionSchedParams heavy;
  heavy.weight = 2.0;
  FunctionSchedParams light;
  light.weight = 1.0;
  ASSERT_TRUE(queue.RegisterFunction("heavy", heavy).ok());
  ASSERT_TRUE(queue.RegisterFunction("light", light).ok());

  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(queue.Enqueue(Make("heavy"), i).ok());
    ASSERT_TRUE(queue.Enqueue(Make("light"), i).ok());
  }
  // Both stay backlogged for the first 300 pops; service there must follow
  // the 2:1 weights.
  int heavy_count = 0, light_count = 0;
  for (int i = 0; i < 300; ++i) {
    QueuedRequest r;
    ASSERT_TRUE(PopOne(queue, &r));
    (r.function == "heavy" ? heavy_count : light_count)++;
  }
  ASSERT_GT(light_count, 0);
  const double ratio = static_cast<double>(heavy_count) / light_count;
  EXPECT_NEAR(ratio, 2.0, 0.3) << heavy_count << ":" << light_count;
}

TEST(FairQueueTest, LowWeightFunctionIsNotStarved) {
  FairQueue queue(PolicyKind::kWeightedFair);
  FunctionSchedParams huge;
  huge.weight = 100.0;
  ASSERT_TRUE(queue.RegisterFunction("huge", huge).ok());
  ASSERT_TRUE(queue.RegisterFunction("tiny", {}).ok());  // weight 1

  for (int i = 0; i < 400; ++i) ASSERT_TRUE(queue.Enqueue(Make("huge"), i).ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(queue.Enqueue(Make("tiny"), i).ok());

  // Within 102 pops (one virtual-time unit at weight 100 + slack) the tiny
  // function must receive service: finish tags bound its wait.
  bool tiny_served = false;
  for (int i = 0; i < 102 && !tiny_served; ++i) {
    QueuedRequest r;
    ASSERT_TRUE(PopOne(queue, &r));
    tiny_served = r.function == "tiny";
  }
  EXPECT_TRUE(tiny_served) << "low-weight function starved";
}

TEST(FairQueueTest, EdfPopsEarliestDeadlineFirst) {
  FairQueue queue(PolicyKind::kDeadlineEdf);
  ASSERT_TRUE(queue.RegisterFunction("a", {}).ok());
  ASSERT_TRUE(queue.RegisterFunction("b", {}).ok());
  ASSERT_TRUE(queue.Enqueue(Make("a", "m0", "u0", -1, 5000), 0).ok());
  ASSERT_TRUE(queue.Enqueue(Make("b", "m0", "u0", -1, 1000), 0).ok());
  ASSERT_TRUE(queue.Enqueue(Make("a", "m0", "u0", -1, 3000), 0).ok());
  ASSERT_TRUE(queue.Enqueue(Make("b", "m0", "u0", -1, kNoDeadline), 0).ok());

  TimeMicros last = 0;
  for (int i = 0; i < 4; ++i) {
    QueuedRequest r;
    ASSERT_TRUE(PopOne(queue, &r));
    EXPECT_GE(r.deadline, last);
    last = r.deadline;
  }
  EXPECT_EQ(last, kNoDeadline);  // deadline-less work runs last
}

TEST(FairQueueTest, DefaultSlackAssignsDeadlines) {
  FairQueue queue(PolicyKind::kDeadlineEdf);
  FunctionSchedParams params;
  params.default_slack = 2000;
  ASSERT_TRUE(queue.RegisterFunction("a", params).ok());
  ASSERT_TRUE(queue.Enqueue(Make("a"), 1000).ok());
  QueuedRequest r;
  ASSERT_TRUE(PopOne(queue, &r));
  EXPECT_EQ(r.deadline, 3000);
}

TEST(FairQueueTest, PriorityClassesAreStrict) {
  FairQueue queue(PolicyKind::kFifo);
  ASSERT_TRUE(queue.RegisterFunction("a", {}).ok());
  ASSERT_TRUE(queue.Enqueue(Make("a", "m0", "u0", /*priority=*/2), 0).ok());
  ASSERT_TRUE(queue.Enqueue(Make("a", "m0", "u0", /*priority=*/1), 1).ok());
  ASSERT_TRUE(queue.Enqueue(Make("a", "m0", "u0", /*priority=*/0), 2).ok());

  QueuedRequest r;
  ASSERT_TRUE(PopOne(queue, &r));
  EXPECT_EQ(r.priority, 0);  // latest arrival, highest class, first out
  ASSERT_TRUE(PopOne(queue, &r));
  EXPECT_EQ(r.priority, 1);
  ASSERT_TRUE(PopOne(queue, &r));
  EXPECT_EQ(r.priority, 2);
}

TEST(SchedulerTest, RateLimitedSubmitRejectsTyped) {
  ManualClock clock;
  SchedulerConfig config;
  RequestScheduler scheduler(config, &clock);
  FunctionSchedParams params;
  params.rate_per_s = 2.0;
  params.burst = 2.0;
  ASSERT_TRUE(scheduler.RegisterFunction("f", params).ok());

  EXPECT_TRUE(scheduler.Submit(Make("f"), 0).ok());
  EXPECT_TRUE(scheduler.Submit(Make("f"), 0).ok());
  Status third = scheduler.Submit(Make("f"), 0).status();
  EXPECT_TRUE(third.IsResourceExhausted());
  EXPECT_EQ(scheduler.admission_counters().rejected_rate.Value(), 1u);

  clock.Advance(SecondsToMicros(1));  // 2 tokens back
  EXPECT_TRUE(scheduler.Submit(Make("f"), 0).ok());
}

/// Submit decides the class once and reports it: the per-call priority, else
/// the function default, clamped to the valid classes. The platform rings the
/// tier doorbell from this value.
TEST(SchedulerTest, SubmitReportsTheClassItQueuedIn) {
  ManualClock clock;
  RequestScheduler scheduler(SchedulerConfig{}, &clock);
  FunctionSchedParams params;
  params.priority = 99;
  ASSERT_TRUE(scheduler.RegisterFunction("f", params).ok());

  EXPECT_EQ(*scheduler.Submit(Make("f"), 0), kNumPriorityClasses - 1);
  EXPECT_EQ(*scheduler.Submit(Make("f", "m0", "u0", /*priority=*/0), 0), 0);
  EXPECT_EQ(*scheduler.Submit(Make("f", "m0", "u0", /*priority=*/1), 0), 1);
  EXPECT_EQ(scheduler.DepthInClasses(ClassMaskOf(kNumPriorityClasses - 1)), 1u);
  EXPECT_EQ(scheduler.DepthInClasses(ClassMaskOf(0)), 1u);
}

TEST(SchedulerTest, PopBatchCoalescesUpToLimit) {
  ManualClock clock;
  RequestScheduler scheduler(SchedulerConfig{}, &clock);
  FunctionSchedParams params;
  params.max_batch = 4;
  ASSERT_TRUE(scheduler.RegisterFunction("f", params).ok());

  for (int i = 0; i < 6; ++i) ASSERT_TRUE(scheduler.Submit(Make("f"), 0).ok());
  EXPECT_EQ(scheduler.PopBatch().size(), 4u);
  EXPECT_EQ(scheduler.PopBatch().size(), 2u);
  EXPECT_TRUE(scheduler.PopBatch().empty());

  const SchedulerCounters& counters = scheduler.counters();
  EXPECT_EQ(counters.dispatched.Value(), 6u);
  EXPECT_EQ(counters.batches.Value(), 2u);
  EXPECT_EQ(counters.max_batch_size.load(), 4u);
  EXPECT_DOUBLE_EQ(counters.avg_batch_size(), 3.0);
}

TEST(SchedulerTest, BatcherNeverMixesModelsOrSessions) {
  ManualClock clock;
  RequestScheduler scheduler(SchedulerConfig{}, &clock);
  FunctionSchedParams params;
  params.max_batch = 8;
  ASSERT_TRUE(scheduler.RegisterFunction("f", params).ok());

  // Interleave two models and two sessions.
  int submitted = 0;
  for (int i = 0; i < 24; ++i) {
    const std::string model = (i % 3 == 0) ? "m1" : "m0";
    const std::string session = (i % 2 == 0) ? "alice" : "bob";
    ASSERT_TRUE(scheduler.Submit(Make("f", model, session), 0).ok());
    submitted++;
  }

  int dispatched = 0;
  for (;;) {
    std::vector<QueuedRequest> batch = scheduler.PopBatch();
    if (batch.empty()) break;
    for (const QueuedRequest& r : batch) {
      EXPECT_EQ(r.model_id, batch.front().model_id) << "batch mixed models";
      EXPECT_EQ(r.session_id, batch.front().session_id) << "batch mixed sessions";
    }
    dispatched += static_cast<int>(batch.size());
  }
  EXPECT_EQ(dispatched, submitted);  // coalescing loses nothing
  EXPECT_EQ(scheduler.TotalDepth(), 0u);
}

/// Regression for the PR 3 batcher fairness bug: a coalesced batch used to
/// charge only the head's 1/weight of virtual time, so a batch-eligible
/// function over-served any unbatched competitor under WeightedFair (a full
/// batch of 8 consumed 8 requests of service for one request's worth of
/// virtual time — 16:1 completions here instead of 2:1). With batches
/// charged batch_size/weight, 2:1 weights must yield 2:1 *completions* even
/// when only the heavy function batches.
TEST(SchedulerTest, WeightedFairHoldsWithBatchingEnabled) {
  ManualClock clock;
  SchedulerConfig config;
  config.policy = PolicyKind::kWeightedFair;
  RequestScheduler scheduler(config, &clock);

  FunctionSchedParams heavy;
  heavy.weight = 2.0;
  heavy.max_batch = 8;  // single-model single-session stream: full batches
  FunctionSchedParams light;
  light.weight = 1.0;   // max_batch = 1: dispatches one request at a time
  ASSERT_TRUE(scheduler.RegisterFunction("heavy", heavy).ok());
  ASSERT_TRUE(scheduler.RegisterFunction("light", light).ok());

  for (int i = 0; i < 320; ++i) {
    ASSERT_TRUE(scheduler.Submit(Make("heavy"), 0).ok());
    if (i < 160) ASSERT_TRUE(scheduler.Submit(Make("light"), 0).ok());
  }

  // Count completed requests per function over the first 240 dispatched
  // requests — at a fair 2:1 that is 160 heavy + 80 light, so both functions
  // stay backlogged throughout the window.
  int heavy_done = 0, light_done = 0;
  while (heavy_done + light_done < 240) {
    std::vector<QueuedRequest> batch = scheduler.PopBatch();
    ASSERT_FALSE(batch.empty());
    (batch.front().function == "heavy" ? heavy_done : light_done) +=
        static_cast<int>(batch.size());
  }
  ASSERT_GT(light_done, 0);
  const double ratio = static_cast<double>(heavy_done) / light_done;
  EXPECT_NEAR(ratio, 2.0, 0.2) << heavy_done << ":" << light_done;

  EXPECT_GE(scheduler.counters().max_batch_size.load(), 8u);
}

/// DeadlineEdf must shed work whose deadline already passed at dispatch time
/// (not just order by deadline): expired requests come back via the `expired`
/// out-param, counted in counters().drops, and are never part of a batch.
TEST(SchedulerTest, EdfShedsExpiredRequestsAtDispatch) {
  ManualClock clock;
  SchedulerConfig config;
  config.policy = PolicyKind::kDeadlineEdf;
  RequestScheduler scheduler(config, &clock);
  ASSERT_TRUE(scheduler.RegisterFunction("f", {}).ok());

  ASSERT_TRUE(scheduler.Submit(Make("f", "m0", "u0", -1, /*deadline=*/1000), 0).ok());
  ASSERT_TRUE(scheduler.Submit(Make("f", "m0", "u0", -1, /*deadline=*/1500), 0).ok());
  ASSERT_TRUE(scheduler.Submit(Make("f", "m0", "u0", -1, /*deadline=*/50000), 0).ok());
  ASSERT_TRUE(scheduler.Submit(Make("f"), 0).ok());  // no deadline: never shed

  clock.Advance(2000);  // the first two deadlines are now in the past

  std::vector<QueuedRequest> expired;
  std::vector<QueuedRequest> batch = scheduler.PopBatch(&expired);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front().deadline, 50000);  // first live head
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0].deadline, 1000);
  EXPECT_EQ(expired[1].deadline, 1500);

  batch = scheduler.PopBatch(&expired);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front().deadline, kNoDeadline);
  EXPECT_EQ(expired.size(), 2u);  // nothing new shed

  const SchedulerCounters& counters = scheduler.counters();
  EXPECT_EQ(counters.drops.Value(), 2u);
  EXPECT_EQ(counters.dispatched.Value(), 2u);  // shed work never dispatched
  EXPECT_EQ(scheduler.TotalDepth(), 0u);  // accounting balanced either way
}

/// ThreadSanitizer target: many producers, several consumers, two functions
/// with batching on one of them. Invariants: nothing lost, nothing
/// double-dispatched, batches stay pure, accounting balances.
TEST(SchedulerConcurrencyTest, MultiProducerMultiConsumerStress) {
  RequestScheduler scheduler(SchedulerConfig{});
  FunctionSchedParams batched;
  batched.max_batch = 4;
  batched.weight = 2.0;
  ASSERT_TRUE(scheduler.RegisterFunction("a", batched).ok());
  ASSERT_TRUE(scheduler.RegisterFunction("b", {}).ok());

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  std::atomic<int> submitted{0};
  std::atomic<bool> producing{true};
  std::atomic<int> dispatched{0};
  std::atomic<int> impure_batches{0};
  std::atomic<uint64_t> seq_seen_twice{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::string fn = (i % 3 == 0) ? "b" : "a";
        const std::string model = (i % 5 == 0) ? "m1" : "m0";
        if (scheduler.Submit(Make(fn, model, "u" + std::to_string(p % 2)), 16)
                .ok()) {
          submitted.fetch_add(1);
        }
      }
    });
  }

  std::mutex seen_mutex;
  std::set<uint64_t> seen;
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        std::vector<QueuedRequest> batch = scheduler.PopBatch();
        if (batch.empty()) {
          if (!producing.load() && scheduler.TotalDepth() == 0) return;
          std::this_thread::yield();
          continue;
        }
        for (const QueuedRequest& r : batch) {
          if (r.model_id != batch.front().model_id ||
              r.session_id != batch.front().session_id ||
              r.function != batch.front().function) {
            impure_batches.fetch_add(1);
          }
        }
        {
          std::lock_guard<std::mutex> lock(seen_mutex);
          for (const QueuedRequest& r : batch) {
            if (!seen.insert(r.seq).second) seq_seen_twice.fetch_add(1);
          }
        }
        dispatched.fetch_add(static_cast<int>(batch.size()));
      }
    });
  }

  for (auto& t : producers) t.join();
  producing.store(false);
  for (auto& t : consumers) t.join();

  EXPECT_EQ(dispatched.load(), submitted.load());
  EXPECT_EQ(impure_batches.load(), 0);
  EXPECT_EQ(seq_seen_twice.load(), 0u);
  EXPECT_EQ(scheduler.TotalDepth(), 0u);

  EXPECT_EQ(scheduler.counters().dispatched.Value(),
            static_cast<uint64_t>(dispatched.load()));
  for (const FunctionQueueStats& f : scheduler.PerFunctionStats()) {
    EXPECT_EQ(f.enqueued, f.dispatched) << f.function;
    EXPECT_EQ(f.depth, 0u) << f.function;
  }
}

/// Under the Fifo policy, dispatch order must equal admission order even with
/// concurrent submitters (the policy-ordered-wakeup regression: the old
/// window woke blocked submitters in arbitrary mutex order).
TEST(SchedulerConcurrencyTest, FifoDispatchMatchesAdmissionOrder) {
  RequestScheduler scheduler(SchedulerConfig{});
  ASSERT_TRUE(scheduler.RegisterFunction("f", {}).ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(scheduler.Submit(Make("f"), 0).ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  uint64_t last_seq = 0;
  bool first = true;
  for (;;) {
    std::vector<QueuedRequest> batch = scheduler.PopBatch();
    if (batch.empty()) break;
    ASSERT_EQ(batch.size(), 1u);
    if (!first) {
      EXPECT_GT(batch[0].seq, last_seq)
          << "FIFO dispatched out of admission order";
    }
    first = false;
    last_seq = batch[0].seq;
  }
}

/// Both admission caps must hold exactly while many threads submit at once:
/// the per-function backlog cap (Unavailable) and the global queued budget
/// (ResourceExhausted). Nothing pops, so every accepted request stays queued.
TEST(SchedulerConcurrencyTest, AdmissionCapsAreExactUnderConcurrentSubmitters) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 64;
  constexpr int kTotal = kThreads * kPerThread;

  // Submits kPerThread requests from each of kThreads threads, spreading
  // them over `functions`; returns {ok, unavailable, resource_exhausted}.
  auto hammer = [&](RequestScheduler& scheduler,
                    const std::vector<std::string>& functions) {
    std::atomic<int> ok{0}, unavailable{0}, exhausted{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::string& fn = functions[(t + i) % functions.size()];
          const Status s = scheduler.Submit(Make(fn), 0).status();
          if (s.ok()) {
            ok.fetch_add(1);
          } else if (s.code() == StatusCode::kUnavailable) {
            unavailable.fetch_add(1);
          } else if (s.code() == StatusCode::kResourceExhausted) {
            exhausted.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    return std::array<int, 3>{ok.load(), unavailable.load(), exhausted.load()};
  };

  {
    RequestScheduler scheduler(SchedulerConfig{});
    FunctionSchedParams params;
    params.max_queue_depth = 50;
    ASSERT_TRUE(scheduler.RegisterFunction("f", params).ok());
    const auto [ok, unavailable, exhausted] = hammer(scheduler, {"f"});
    EXPECT_EQ(ok, 50);
    EXPECT_EQ(unavailable, kTotal - 50);
    EXPECT_EQ(exhausted, 0);
    EXPECT_EQ(scheduler.TotalDepth(), 50u);
    EXPECT_EQ(scheduler.admission_counters().rejected_depth.Value(),
              static_cast<uint64_t>(kTotal - 50));
  }
  {
    SchedulerConfig config;
    config.limits.max_queued = 40;
    RequestScheduler scheduler(config);
    ASSERT_TRUE(scheduler.RegisterFunction("a", {}).ok());
    ASSERT_TRUE(scheduler.RegisterFunction("b", {}).ok());
    const auto [ok, unavailable, exhausted] = hammer(scheduler, {"a", "b"});
    EXPECT_EQ(ok, 40);
    EXPECT_EQ(unavailable, 0);
    EXPECT_EQ(exhausted, kTotal - 40);
    EXPECT_EQ(scheduler.TotalDepth(), 40u);
    EXPECT_EQ(scheduler.admission_counters().rejected_global.Value(),
              static_cast<uint64_t>(kTotal - 40));
  }
}

TEST(SchedulerTest, ClassMaskHelpers) {
  EXPECT_EQ(ClassMaskUpTo(0), 0u);
  EXPECT_EQ(ClassMaskUpTo(1), ClassMaskOf(0));
  EXPECT_EQ(ClassMaskUpTo(2), ClassMaskOf(0) | ClassMaskOf(1));
  EXPECT_EQ(ClassMaskUpTo(kNumPriorityClasses), kAllClasses);
  EXPECT_EQ(ClassMaskUpTo(kNumPriorityClasses + 5), kAllClasses);
}

TEST(SchedulerTest, MaskedPopBatchServesOnlyRequestedClasses) {
  ManualClock clock;
  RequestScheduler scheduler(SchedulerConfig{}, &clock);
  ASSERT_TRUE(scheduler.RegisterFunction("f", {}).ok());

  ASSERT_TRUE(scheduler.Submit(Make("f", "m0", "u0", /*priority=*/0), 0).ok());
  ASSERT_TRUE(scheduler.Submit(Make("f", "m0", "u0", /*priority=*/1), 0).ok());
  ASSERT_TRUE(scheduler.Submit(Make("f", "m0", "u0", /*priority=*/0), 0).ok());

  EXPECT_EQ(scheduler.DepthInClasses(ClassMaskOf(0)), 2u);
  EXPECT_EQ(scheduler.DepthInClasses(ClassMaskOf(1)), 1u);
  EXPECT_EQ(scheduler.DepthInClasses(kAllClasses), 3u);

  // A bulk dispatcher masked to class 1 must never pop the class-0 backlog.
  const ClassMask bulk = kAllClasses & ~ClassMaskOf(0);
  std::vector<QueuedRequest> batch = scheduler.PopBatch(bulk, nullptr);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].priority, 1);
  EXPECT_TRUE(scheduler.PopBatch(bulk, nullptr).empty());
  EXPECT_EQ(scheduler.DepthInClasses(ClassMaskOf(0)), 2u);

  batch = scheduler.PopBatch(ClassMaskOf(0), nullptr);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].priority, 0);
  EXPECT_EQ(scheduler.TotalDepth(), 1u);
}

TEST(SchedulerTest, MaskedPopBatchShedsExpiredDeadlines) {
  ManualClock clock;
  SchedulerConfig config;
  config.policy = PolicyKind::kDeadlineEdf;
  RequestScheduler scheduler(config, &clock);
  FunctionSchedParams params;
  params.priority = 0;
  ASSERT_TRUE(scheduler.RegisterFunction("f", params).ok());

  ASSERT_TRUE(scheduler
                  .Submit(Make("f", "m0", "u0", 0, /*deadline=*/100), 0)
                  .ok());
  ASSERT_TRUE(scheduler
                  .Submit(Make("f", "m0", "u0", 0, /*deadline=*/SecondsToMicros(10)), 0)
                  .ok());
  clock.Advance(200);  // first deadline passed while queued

  // The RT lanes' pop: masked to the interactive class, shedding the expired
  // head on the way to the live request behind it.
  std::vector<QueuedRequest> expired;
  std::vector<QueuedRequest> batch = scheduler.PopBatch(ClassMaskOf(0), &expired);
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].deadline, 100);
  EXPECT_EQ(batch[0].deadline, SecondsToMicros(10));
  EXPECT_EQ(scheduler.counters().drops.Value(), 1u);
}

TEST(SchedulerTest, CoalesceKeepsPerClassDepthConsistent) {
  ManualClock clock;
  RequestScheduler scheduler(SchedulerConfig{}, &clock);
  FunctionSchedParams params;
  params.max_batch = 4;
  params.priority = 2;
  ASSERT_TRUE(scheduler.RegisterFunction("f", params).ok());

  for (int i = 0; i < 6; ++i) ASSERT_TRUE(scheduler.Submit(Make("f"), 0).ok());
  ASSERT_EQ(scheduler.DepthInClasses(ClassMaskOf(2)), 6u);
  // Coalescing pulls companions out from under the per-class counters too.
  EXPECT_EQ(scheduler.PopBatch().size(), 4u);
  EXPECT_EQ(scheduler.DepthInClasses(ClassMaskOf(2)), 2u);
  EXPECT_EQ(scheduler.PopBatch().size(), 2u);
  EXPECT_EQ(scheduler.DepthInClasses(ClassMaskOf(2)), 0u);
  EXPECT_EQ(scheduler.DepthInClasses(kAllClasses), 0u);
}

}  // namespace
}  // namespace sesemi::sched
