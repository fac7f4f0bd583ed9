#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "fnpacker/router.h"

namespace sesemi::fnpacker {
namespace {

FnPoolSpec PoolOf(std::vector<std::string> models, int endpoints,
                  TimeMicros idle_timeout = SecondsToMicros(30)) {
  FnPoolSpec spec;
  spec.models = std::move(models);
  spec.num_endpoints = endpoints;
  spec.exclusive_idle_timeout = idle_timeout;
  return spec;
}

TEST(FnPackerTest, UnknownModelRejected) {
  FnPackerRouter router(PoolOf({"m0"}, 1));
  EXPECT_FALSE(router.Route("m9", 0).ok());
}

TEST(FnPackerTest, PendingRequestsStickToEndpoint) {
  FnPackerRouter router(PoolOf({"m0", "m1"}, 2));
  auto e1 = router.Route("m0", 0);
  ASSERT_TRUE(e1.ok());
  // Still in flight: the next m0 request must go to the same endpoint,
  // which is now exclusive.
  auto e2 = router.Route("m0", 1000);
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(*e1, *e2);
  EXPECT_EQ(router.endpoint_state(*e1).exclusive_model, "m0");
  EXPECT_EQ(router.model_state("m0").pending, 2);
}

TEST(FnPackerTest, IdleModelAvoidsBusyEndpoint) {
  FnPackerRouter router(PoolOf({"m0", "m1"}, 2));
  auto e0 = router.Route("m0", 0);
  ASSERT_TRUE(e0.ok());
  // m0 still pending; m1 must get the other endpoint.
  auto e1 = router.Route("m1", 10);
  ASSERT_TRUE(e1.ok());
  EXPECT_NE(*e0, *e1);
}

TEST(FnPackerTest, CompletedModelFreesEndpointAfterTimeout) {
  const TimeMicros timeout = SecondsToMicros(30);
  FnPackerRouter router(PoolOf({"m0", "m1"}, 1, timeout));
  auto e0 = router.Route("m0", 0);
  ASSERT_TRUE(e0.ok());
  router.OnComplete("m0", *e0, SecondsToMicros(1));

  // Endpoint 0 is exclusive to m0 and recently used: m1 has nowhere clean to
  // go (single endpoint) -> falls back, counted as overflow OR reuses after
  // timeout. Before timeout the endpoint is still marked.
  auto e1 = router.Route("m1", SecondsToMicros(2));
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ(*e1, 0);  // only endpoint
  router.OnComplete("m1", *e1, SecondsToMicros(3));

  // After the idle timeout the exclusivity expires cleanly.
  auto e2 = router.Route("m1", SecondsToMicros(40));
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(*e2, 0);
}

TEST(FnPackerTest, InfrequentModelsPackOntoSharedEndpoint) {
  // Three cold models, two endpoints: sequential (non-overlapping) requests
  // should all reuse the first endpoint — that's the packing that saves
  // cold starts (Table IV).
  FnPackerRouter router(PoolOf({"m2", "m3", "m4"}, 2));
  TimeMicros t = 0;
  for (const std::string m : {"m2", "m3", "m4", "m2", "m3"}) {
    auto e = router.Route(m, t);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(*e, 0) << "sequential idle-model requests should share endpoint 0";
    router.OnComplete(m, *e, t + SecondsToMicros(1));
    t += SecondsToMicros(2);
  }
}

TEST(FnPackerTest, HotModelKeepsExclusiveEndpointWhileColdModelsShare) {
  // m0 streams continuously; m2/m3 arrive occasionally. m0 must never share.
  FnPackerRouter router(PoolOf({"m0", "m2", "m3"}, 2));
  auto hot = router.Route("m0", 0);
  ASSERT_TRUE(hot.ok());

  TimeMicros t = SecondsToMicros(1);
  auto c1 = router.Route("m2", t);
  ASSERT_TRUE(c1.ok());
  EXPECT_NE(*c1, *hot);
  router.OnComplete("m2", *c1, t + 100);

  auto c2 = router.Route("m3", t + SecondsToMicros(1));
  ASSERT_TRUE(c2.ok());
  EXPECT_NE(*c2, *hot) << "cold models must not preempt the hot endpoint";
  router.OnComplete("m3", *c2, t + SecondsToMicros(1) + 100);

  // m0's stream continues on its endpoint.
  auto hot2 = router.Route("m0", t + SecondsToMicros(2));
  ASSERT_TRUE(hot2.ok());
  EXPECT_EQ(*hot2, *hot);
}

TEST(FnPackerTest, PrefersEndpointWithModelLoaded) {
  FnPackerRouter router(PoolOf({"m0", "m1"}, 2));
  auto e0 = router.Route("m0", 0);
  ASSERT_TRUE(e0.ok());
  router.OnComplete("m0", *e0, 100);
  // m0 again, idle: should return to the endpoint that has it loaded.
  auto e1 = router.Route("m0", 200);
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ(*e0, *e1);
  EXPECT_EQ(router.counters().model_switches.Value(), 0u);
}

TEST(FnPackerTest, OverflowFallsBackToLeastLoaded) {
  FnPackerRouter router(PoolOf({"m0", "m1", "m2"}, 2));
  ASSERT_TRUE(router.Route("m0", 0).ok());   // ep busy
  ASSERT_TRUE(router.Route("m1", 1).ok());   // other ep busy
  ASSERT_TRUE(router.Route("m1", 2).ok());   // m1's ep now pending=2
  auto e = router.Route("m2", 3);            // everything busy
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(router.counters().overflow.Value(), 1u);
  // Fallback picks the least-loaded endpoint: m0's (pending 1 vs m1's 2).
  EXPECT_EQ(router.endpoint_state(*e).pending, 2);  // 1 (m0) + the overflow
  EXPECT_GE(*e, 0);
  EXPECT_LT(*e, 2);
}

TEST(FnPackerTest, StatsCountRoutingDecisions) {
  FnPackerRouter router(PoolOf({"m0", "m1"}, 1));
  ASSERT_TRUE(router.Route("m0", 0).ok());
  router.OnComplete("m0", 0, 1);
  ASSERT_TRUE(router.Route("m1", SecondsToMicros(60)).ok());
  router.OnComplete("m1", 0, SecondsToMicros(61));
  ASSERT_TRUE(router.Route("m0", SecondsToMicros(120)).ok());
  EXPECT_EQ(router.counters().routed.Value(), 3u);
  // Same endpoint, switches counted per model.
  EXPECT_EQ(router.counters().model_switches.Value(), 0u);
}

TEST(OneToOneTest, EachModelGetsOwnEndpoint) {
  OneToOneRouter router({"m0", "m1", "m2"});
  EXPECT_EQ(router.num_endpoints(), 3);
  auto e0 = router.Route("m0", 0);
  auto e1 = router.Route("m1", 0);
  auto e2 = router.Route("m2", 0);
  ASSERT_TRUE(e0.ok() && e1.ok() && e2.ok());
  EXPECT_NE(*e0, *e1);
  EXPECT_NE(*e1, *e2);
  // Stable over time.
  EXPECT_EQ(*router.Route("m0", 100), *e0);
  EXPECT_FALSE(router.Route("m9", 0).ok());
}

TEST(AllInOneTest, EverythingLandsOnEndpointZero) {
  AllInOneRouter router;
  EXPECT_EQ(router.num_endpoints(), 1);
  EXPECT_EQ(*router.Route("m0", 0), 0);
  EXPECT_EQ(*router.Route("m1", 5), 0);
  EXPECT_EQ(*router.Route("anything", 10), 0);
}

/// Property sweep: under interleaved two-model traffic, FnPacker never
/// routes a request for model A onto an endpoint with model B's work in
/// flight (no interleaving on one sandbox).
class FnPackerInterleaveTest : public ::testing::TestWithParam<int> {};

TEST_P(FnPackerInterleaveTest, NeverMixesInFlightModels) {
  int endpoints = GetParam();
  FnPackerRouter router(PoolOf({"a", "b"}, endpoints));
  std::map<int, std::string> in_flight_model;  // endpoint -> model
  TimeMicros t = 0;
  for (int i = 0; i < 100; ++i) {
    std::string model = (i % 3 == 0) ? "b" : "a";
    auto e = router.Route(model, t);
    ASSERT_TRUE(e.ok());
    auto it = in_flight_model.find(*e);
    if (it != in_flight_model.end()) {
      EXPECT_EQ(it->second, model)
          << "endpoint " << *e << " mixed models at step " << i;
    }
    in_flight_model[*e] = model;
    // Complete every request after two steps to keep some overlap.
    if (i % 2 == 1) {
      router.OnComplete(model, *e, t + 1);
      in_flight_model.erase(*e);
    }
    t += 1000;
  }
}

INSTANTIATE_TEST_SUITE_P(EndpointCounts, FnPackerInterleaveTest,
                         ::testing::Values(2, 3, 4));

/// ThreadSanitizer target: hammers Route/OnComplete and the read-side
/// accessors from many threads at once. The lock-free model lookup must not
/// race with the locked decision path, and the counters must balance once
/// every request completes.
TEST(FnPackerConcurrencyTest, ParallelRouteAndCompleteStaysConsistent) {
  const std::vector<std::string> models = {"m0", "m1", "m2", "m3"};
  FnPackerRouter router(PoolOf(models, 4));
  constexpr int kThreads = 8;
  constexpr int kIters = 400;

  std::atomic<int> bad_endpoints{0};
  std::atomic<int> route_errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string& model = models[t % models.size()];
      for (int i = 0; i < kIters; ++i) {
        auto endpoint = router.Route(model, i);
        if (!endpoint.ok()) {
          route_errors.fetch_add(1);
          continue;
        }
        if (*endpoint < 0 || *endpoint >= router.num_endpoints()) {
          bad_endpoints.fetch_add(1);
        }
        // Exercise the shared-lock read side concurrently with writers.
        (void)router.counters().routed.Value();
        (void)router.model_state(model);
        (void)router.endpoint_state(*endpoint);
        router.OnComplete(model, *endpoint, i + 1);
      }
      // Unknown models must keep failing cleanly under concurrency too.
      EXPECT_FALSE(router.Route("missing", 0).ok());
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(route_errors.load(), 0);
  EXPECT_EQ(bad_endpoints.load(), 0);
  EXPECT_EQ(router.counters().routed.Value(),
            static_cast<uint64_t>(kThreads * kIters));
  for (const std::string& m : models) {
    EXPECT_EQ(router.model_state(m).pending, 0) << m;
  }
  for (int e = 0; e < router.num_endpoints(); ++e) {
    EXPECT_EQ(router.endpoint_state(e).pending, 0) << e;
  }
}

/// Per-endpoint CAS slots: routing decisions for disjoint models must
/// proceed in parallel on their own endpoints with no cross-talk. Each model
/// is pinned to a distinct endpoint by an initial (held) request, then one
/// thread per model hammers the sticky path concurrently — every decision
/// must land on the pinned endpoint, and the packed {exclusive, pending}
/// words must balance exactly once everything completes.
TEST(FnPackerConcurrencyTest, DistinctEndpointsRouteInParallel) {
  const std::vector<std::string> models = {"m0", "m1", "m2", "m3"};
  FnPackerRouter router(PoolOf(models, 4));

  // Pin: sequential first routes land on distinct endpoints (idle scan).
  std::vector<int> pinned(models.size());
  for (size_t i = 0; i < models.size(); ++i) {
    auto e = router.Route(models[i], 0);
    ASSERT_TRUE(e.ok());
    pinned[i] = *e;
    for (size_t j = 0; j < i; ++j) ASSERT_NE(pinned[i], pinned[j]);
  }

  constexpr int kIters = 500;
  std::atomic<int> unpinned_routes{0};
  std::vector<std::thread> threads;
  for (size_t m = 0; m < models.size(); ++m) {
    threads.emplace_back([&, m] {
      for (int i = 0; i < kIters; ++i) {
        // The initial request is still pending, so every route must stick to
        // the pinned endpoint regardless of what other threads are doing on
        // theirs.
        auto e = router.Route(models[m], i + 1);
        if (!e.ok() || *e != pinned[m]) {
          unpinned_routes.fetch_add(1);
          continue;
        }
        (void)router.endpoint_state(*e);  // reader mixed into the writers
        router.OnComplete(models[m], *e, i + 2);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(unpinned_routes.load(), 0);
  EXPECT_EQ(router.counters().routed.Value(),
            static_cast<uint64_t>(models.size() * (kIters + 1)));
  EXPECT_EQ(router.counters().overflow.Value(), 0u);
  EXPECT_EQ(router.counters().model_switches.Value(), 0u);

  // Release the pins; all counters must return to zero.
  for (size_t i = 0; i < models.size(); ++i) {
    router.OnComplete(models[i], pinned[i], 1000);
    EXPECT_EQ(router.model_state(models[i]).pending, 0) << models[i];
  }
  for (int e = 0; e < router.num_endpoints(); ++e) {
    EXPECT_EQ(router.endpoint_state(e).pending, 0) << e;
  }
}

// ------------------------------------------------------------ circuit breaker

FnPoolSpec BreakerPoolOf(std::vector<std::string> models, int endpoints,
                         int threshold, int probes = 1) {
  FnPoolSpec spec;
  spec.models = std::move(models);
  spec.num_endpoints = endpoints;
  spec.breaker_failure_threshold = threshold;
  spec.breaker_half_open_probes = probes;
  return spec;
}

TEST(FnPackerBreakerTest, DisabledByDefaultNeverOpens) {
  FnPackerRouter router(PoolOf({"m0"}, 1));
  for (int i = 0; i < 10; ++i) {
    auto e = router.Route("m0", i);
    ASSERT_TRUE(e.ok());
    router.OnFailure("m0", *e, i);
  }
  EXPECT_FALSE(router.endpoint_state(0).breaker_open);
  EXPECT_EQ(router.counters().breaker_opens.Value(), 0u);
}

TEST(FnPackerBreakerTest, OpensAfterConsecutiveFailuresAndRoutesAround) {
  FnPackerRouter router(BreakerPoolOf({"m0"}, 2, /*threshold=*/2));
  auto first = router.Route("m0", 0);
  ASSERT_TRUE(first.ok());
  router.OnFailure("m0", *first, 1);
  EXPECT_FALSE(router.endpoint_state(*first).breaker_open);  // 1 < threshold

  auto again = router.Route("m0", 2);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *first);  // still preferred while closed
  router.OnFailure("m0", *again, 3);

  EXPECT_TRUE(router.endpoint_state(*first).breaker_open);
  EXPECT_EQ(router.counters().breaker_opens.Value(), 1u);
  EXPECT_EQ(router.endpoint_state(*first).breaker_failures, 2);

  // The open endpoint is skipped: traffic lands on the replica.
  auto rerouted = router.Route("m0", 4);
  ASSERT_TRUE(rerouted.ok());
  EXPECT_NE(*rerouted, *first);

  // A success resets the replica's failure streak.
  router.OnComplete("m0", *rerouted, 5);
  EXPECT_EQ(router.endpoint_state(*rerouted).breaker_failures, 0);
}

TEST(FnPackerBreakerTest, AllEndpointsOpenShedsWithTypedUnavailable) {
  FnPackerRouter router(BreakerPoolOf({"m0"}, 2, /*threshold=*/1));
  for (int round = 0; round < 2; ++round) {
    auto e = router.Route("m0", round);
    ASSERT_TRUE(e.ok());
    router.OnFailure("m0", *e, round);
  }
  EXPECT_TRUE(router.endpoint_state(0).breaker_open);
  EXPECT_TRUE(router.endpoint_state(1).breaker_open);

  // Inside the open interval every endpoint rejects: typed shed, no endpoint.
  auto shed = router.Route("m0", 10);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(router.counters().breaker_rejections.Value(), 1u);
}

TEST(FnPackerBreakerTest, HalfOpenProbeClosesOnSuccess) {
  FnPoolSpec spec = BreakerPoolOf({"m0"}, 1, /*threshold=*/1);
  spec.breaker_open_interval = 1000;
  FnPackerRouter router(spec);

  auto e = router.Route("m0", 0);
  ASSERT_TRUE(e.ok());
  router.OnFailure("m0", *e, 0);  // opens until t=1000
  ASSERT_TRUE(router.endpoint_state(0).breaker_open);
  EXPECT_FALSE(router.Route("m0", 500).ok());  // still open

  // Past the interval one probe is admitted; its success closes the breaker.
  auto probe = router.Route("m0", 2000);
  ASSERT_TRUE(probe.ok());
  router.OnComplete("m0", *probe, 2001);
  EXPECT_FALSE(router.endpoint_state(0).breaker_open);
  EXPECT_EQ(router.endpoint_state(0).breaker_failures, 0);
  EXPECT_TRUE(router.Route("m0", 2002).ok());  // normal service resumed
  EXPECT_EQ(router.counters().breaker_opens.Value(), 1u);
}

TEST(FnPackerBreakerTest, HalfOpenProbeFailureReopens) {
  FnPoolSpec spec = BreakerPoolOf({"m0"}, 1, /*threshold=*/1);
  spec.breaker_open_interval = 1000;
  FnPackerRouter router(spec);

  auto e = router.Route("m0", 0);
  ASSERT_TRUE(e.ok());
  router.OnFailure("m0", *e, 0);

  auto probe = router.Route("m0", 2000);  // half-open probe admitted
  ASSERT_TRUE(probe.ok());
  router.OnFailure("m0", *probe, 2001);  // probe failed: reopen immediately

  EXPECT_TRUE(router.endpoint_state(0).breaker_open);
  EXPECT_EQ(router.counters().breaker_opens.Value(), 2u);
  EXPECT_FALSE(router.Route("m0", 2500).ok());  // new open interval running
}

TEST(FnPackerBreakerTest, HalfOpenAdmitsConfiguredProbeBudget) {
  FnPoolSpec spec = BreakerPoolOf({"m0"}, 1, /*threshold=*/1, /*probes=*/2);
  spec.breaker_open_interval = 1000;
  FnPackerRouter router(spec);

  auto e = router.Route("m0", 0);
  ASSERT_TRUE(e.ok());
  router.OnFailure("m0", *e, 0);

  // Two probes pass (distinct Route calls), the third is rejected while the
  // probe outcomes are still pending.
  EXPECT_TRUE(router.Route("m0", 2000).ok());
  EXPECT_TRUE(router.Route("m0", 2001).ok());
  EXPECT_FALSE(router.Route("m0", 2002).ok());
}

}  // namespace
}  // namespace sesemi::fnpacker
