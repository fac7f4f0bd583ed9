// Cluster dataplane tests: consistent-hash placement properties (bounded
// churn, determinism, bounded skew), the autoscaling policy, and the
// multi-node router (placement stability, warm-slot stealing, reroute on
// node loss, stats-driven scaling against real node backlogs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "client/clients.h"
#include "cluster/cluster.h"
#include "cluster/hash_ring.h"
#include "model/zoo.h"
#include "workload/generators.h"

namespace sesemi::cluster {
namespace {

using client::KeyServiceClient;
using client::ModelOwner;
using client::ModelUser;

// ---------------------------------------------------------------------------
// HashRing: property-style placement tests. Everything here is a pure
// function of (seed, membership, key), so the assertions are exact.
// ---------------------------------------------------------------------------

std::vector<std::string> MakeKeys(int n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (int i = 0; i < n; ++i) keys.push_back("fn" + std::to_string(i) + "|m");
  return keys;
}

TEST(HashRingTest, DeterministicForFixedSeed) {
  HashRingConfig config;
  config.seed = 0x1234;
  HashRing a(config), b(config);
  for (int i = 0; i < 6; ++i) {
    a.AddNode(i);
    b.AddNode(i);
  }
  for (const std::string& key : MakeKeys(500)) {
    EXPECT_EQ(a.Pick(key), b.Pick(key)) << key;
  }

  // A different seed is a different ring layout: some keys must move.
  HashRingConfig other = config;
  other.seed = 0x9999;
  HashRing c(other);
  for (int i = 0; i < 6; ++i) c.AddNode(i);
  int moved = 0;
  for (const std::string& key : MakeKeys(500)) moved += a.Pick(key) != c.Pick(key);
  EXPECT_GT(moved, 0);
}

TEST(HashRingTest, EmptyRingPicksNothing) {
  HashRing ring;
  EXPECT_EQ(ring.Pick("k"), -1);
  EXPECT_TRUE(ring.Preference("k", 3).empty());
  ring.AddNode(7);
  EXPECT_EQ(ring.Pick("k"), 7);
  ring.RemoveNode(7);
  EXPECT_EQ(ring.Pick("k"), -1);
}

TEST(HashRingTest, RemovalMovesOnlyTheRemovedNodesKeys) {
  HashRing ring;
  const int kNodes = 8;
  for (int i = 0; i < kNodes; ++i) ring.AddNode(i);
  const std::vector<std::string> keys = MakeKeys(4000);

  std::map<std::string, int> before;
  for (const std::string& key : keys) before[key] = ring.Pick(key);

  const int removed = 3;
  ring.RemoveNode(removed);
  int moved = 0;
  for (const std::string& key : keys) {
    const int now = ring.Pick(key);
    EXPECT_NE(now, removed);
    if (before[key] == removed) {
      moved++;
    } else {
      // Consistent hashing's defining property: keys not on the removed
      // node keep their placement exactly.
      EXPECT_EQ(now, before[key]) << key;
    }
  }
  // ~1/8 of the keys lived on the removed node; allow generous spread.
  EXPECT_GT(moved, static_cast<int>(keys.size()) / 24);
  EXPECT_LT(moved, static_cast<int>(keys.size()) / 3);

  // Re-adding restores the original layout bit-for-bit (vnode positions
  // derive from (seed, node, replica), not insertion order).
  ring.AddNode(removed);
  for (const std::string& key : keys) EXPECT_EQ(ring.Pick(key), before[key]);
}

TEST(HashRingTest, AdditionMovesBoundedFraction) {
  HashRing ring;
  const int kNodes = 8;
  for (int i = 0; i < kNodes; ++i) ring.AddNode(i);
  const std::vector<std::string> keys = MakeKeys(4000);

  std::map<std::string, int> before;
  for (const std::string& key : keys) before[key] = ring.Pick(key);

  ring.AddNode(kNodes);
  int moved = 0;
  for (const std::string& key : keys) {
    const int now = ring.Pick(key);
    if (now != before[key]) {
      // Keys only ever move *to* the new node, never between old nodes.
      EXPECT_EQ(now, kNodes) << key;
      moved++;
    }
  }
  // Expected share ~1/9; bound it well under 2x.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, static_cast<int>(keys.size()) * 2 / 9);
}

TEST(HashRingTest, PreferenceStartsAtHomeAndIsDistinct) {
  HashRing ring;
  for (int i = 0; i < 5; ++i) ring.AddNode(i);
  for (const std::string& key : MakeKeys(100)) {
    std::vector<int> preference = ring.Preference(key, 5);
    ASSERT_EQ(preference.size(), 5u);
    EXPECT_EQ(preference.front(), ring.Pick(key));
    std::set<int> distinct(preference.begin(), preference.end());
    EXPECT_EQ(distinct.size(), 5u);
  }
}

// Bounded-load invariant (Mirrokni et al.): placing each key on
// PickBounded and charging it to the node keeps every node's load within
// ceil(c * (total + 1) / n) at every step — even under heavy Zipf key skew,
// where plain consistent hashing piles the hot tenants onto whatever nodes
// their hashes land on.
TEST(HashRingTest, ZipfSkewStaysWithinLoadBound) {
  HashRingConfig config;
  config.load_factor = 1.25;
  HashRing ring(config);
  const int kNodes = 8;
  for (int i = 0; i < kNodes; ++i) ring.AddNode(i);

  // Zipf(1.2) popularity over 32 tenants, 4000 placements total.
  std::vector<double> rates = workload::ZipfRates(32, 1.2, 4000.0);
  std::vector<uint64_t> bounded_load(kNodes, 0), plain_load(kNodes, 0);
  uint64_t total = 0;
  for (size_t tenant = 0; tenant < rates.size(); ++tenant) {
    const std::string key = "tenant" + std::to_string(tenant) + "|m";
    const int requests = static_cast<int>(rates[tenant]);
    for (int r = 0; r < requests; ++r) {
      const int node = ring.PickBounded(
          key, [&](int n) { return bounded_load[n]; }, total);
      ASSERT_GE(node, 0);
      const uint64_t bound = static_cast<uint64_t>(
          std::ceil(config.load_factor * static_cast<double>(total + 1) /
                    kNodes));
      EXPECT_LE(bounded_load[node] + 1, bound);
      bounded_load[node]++;
      plain_load[ring.Pick(key)]++;
      total++;
    }
  }
  const uint64_t bounded_max =
      *std::max_element(bounded_load.begin(), bounded_load.end());
  const uint64_t plain_max =
      *std::max_element(plain_load.begin(), plain_load.end());
  // The bound also ends tighter than the unbounded skew it protects against
  // (plain hashing puts the two hottest Zipf tenants wherever they hash).
  EXPECT_LE(bounded_max, plain_max);
  EXPECT_LE(static_cast<double>(bounded_max),
            std::ceil(config.load_factor * static_cast<double>(total) / kNodes) + 1);
}

TEST(HashRingTest, PickBoundedFallsBackToHomeWhenAllSaturated) {
  HashRing ring;
  for (int i = 0; i < 3; ++i) ring.AddNode(i);
  // Every node reports absurd load vs a tiny total: the bound excludes all,
  // and the work-conserving fallback must still return the home node.
  const int home = ring.Pick("k");
  EXPECT_EQ(ring.PickBounded("k", [](int) { return 1000; }, 1), home);
}

// ---------------------------------------------------------------------------
// Autoscaler: pure policy unit tests.
// ---------------------------------------------------------------------------

NodeLoadSample Sample(int node, uint64_t depth, uint64_t failures = 0) {
  NodeLoadSample s;
  s.node = node;
  s.queue_depth = depth;
  s.enclave_failures_delta = failures;
  return s;
}

TEST(AutoscalerTest, ScalesUpOnBacklogThenCoolsDown) {
  AutoscaleConfig config;
  config.scale_up_backlog_per_node = 8.0;
  config.cooldown_ticks = 2;
  Autoscaler scaler(config);
  EXPECT_EQ(scaler.Tick({Sample(0, 20), Sample(1, 20)}), ScaleDecision::kUp);
  // Two cooldown holds follow even though the backlog persists.
  EXPECT_EQ(scaler.Tick({Sample(0, 20), Sample(1, 20)}), ScaleDecision::kHold);
  EXPECT_EQ(scaler.Tick({Sample(0, 20), Sample(1, 20)}), ScaleDecision::kHold);
  EXPECT_EQ(scaler.Tick({Sample(0, 20), Sample(1, 20)}), ScaleDecision::kUp);
  EXPECT_EQ(scaler.stats().ups, 2u);
  EXPECT_EQ(scaler.stats().cooldown_holds, 2u);
}

TEST(AutoscalerTest, ScalesDownWhenIdleButRespectsMinNodes) {
  AutoscaleConfig config;
  config.cooldown_ticks = 0;
  config.min_nodes = 1;
  Autoscaler scaler(config);
  EXPECT_EQ(scaler.Tick({Sample(0, 0), Sample(1, 0)}), ScaleDecision::kDown);
  EXPECT_EQ(scaler.Tick({Sample(0, 0)}), ScaleDecision::kHold);  // at min
  EXPECT_EQ(scaler.stats().downs, 1u);
}

TEST(AutoscalerTest, DegradedNodeVetoesScaleDown) {
  AutoscaleConfig config;
  config.cooldown_ticks = 0;
  config.degraded_failures_per_tick = 2;
  Autoscaler scaler(config);
  // Idle backlog, but node 1 just burned 5 enclaves: capacity is about to
  // relaunch, not idle — hold.
  EXPECT_EQ(scaler.Tick({Sample(0, 0), Sample(1, 0, 5)}), ScaleDecision::kHold);
  EXPECT_EQ(scaler.Tick({Sample(0, 0), Sample(1, 0, 0)}), ScaleDecision::kDown);
}

TEST(AutoscalerTest, MaxNodesCapsScaleUp) {
  AutoscaleConfig config;
  config.max_nodes = 2;
  config.cooldown_ticks = 0;
  Autoscaler scaler(config);
  EXPECT_EQ(scaler.Tick({Sample(0, 100), Sample(1, 100)}), ScaleDecision::kHold);
  EXPECT_EQ(scaler.Tick({Sample(0, 100)}), ScaleDecision::kUp);
}

TEST(AutoscalerTest, DisabledAlwaysHolds) {
  AutoscaleConfig config;
  config.enabled = false;
  Autoscaler scaler(config);
  EXPECT_EQ(scaler.Tick({Sample(0, 1000)}), ScaleDecision::kHold);
  EXPECT_EQ(scaler.Tick({}), ScaleDecision::kHold);
}

// ---------------------------------------------------------------------------
// ClusterDataplane: routing against real nodes.
// ---------------------------------------------------------------------------

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto server = keyservice::StartKeyService(&ks_platform_);
    ASSERT_TRUE(server.ok());
    keyservice_ = std::move(*server);
    auto ks_client = KeyServiceClient::Connect(
        keyservice_.get(), &authority_,
        keyservice::KeyServiceEnclave::ExpectedMeasurement());
    ASSERT_TRUE(ks_client.ok());
    client_ = std::move(*ks_client);

    owner_ = std::make_unique<ModelOwner>("owner");
    user_ = std::make_unique<ModelUser>("user");
    ASSERT_TRUE(owner_->Register(client_.get()).ok());
    ASSERT_TRUE(user_->Register(client_.get()).ok());

    model::ZooSpec spec;
    spec.model_id = "m0";
    spec.scale = 0.002;
    spec.input_hw = 16;
    auto graph = model::BuildModel(spec);
    ASSERT_TRUE(graph.ok());
    graph_ = *graph;
    ASSERT_TRUE(owner_->DeployModel(client_.get(), &storage_, *graph).ok());
  }

  void MakeCluster(ClusterConfig config) {
    cluster_ = std::make_unique<ClusterDataplane>(config, &authority_, &storage_,
                                                  keyservice_.get(), &clock_);
  }

  void DeployAndAuthorize(const std::string& fn_name,
                          sched::FunctionSchedParams sched = {}) {
    serverless::FunctionSpec spec;
    spec.name = fn_name;
    spec.sched = sched;
    ASSERT_TRUE(cluster_->DeployFunction(spec).ok());
    if (!authorized_) {
      sgx::Measurement es = semirt::SemirtInstance::MeasurementFor({});
      ASSERT_TRUE(owner_->GrantAccess(client_.get(), "m0", es, user_->id()).ok());
      ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), "m0", es).ok());
      authorized_ = true;
    }
  }

  semirt::InferenceRequest BuildRequest() {
    Bytes input = model::GenerateRandomInput(graph_, 1);
    auto request = user_->BuildRequest("m0", input);
    EXPECT_TRUE(request.ok());
    return *request;
  }

  Result<std::vector<float>> InvokeOnce(const std::string& fn) {
    serverless::InvocationResult out =
        cluster_->InvokeAsync(fn, BuildRequest()).get();
    SESEMI_ASSIGN_OR_RETURN(Bytes sealed, std::move(out.response));
    SESEMI_ASSIGN_OR_RETURN(Bytes output, user_->DecryptResult("m0", sealed));
    return model::ParseOutput(output);
  }

  // The one node currently holding all of `fn`'s containers, or -1.
  int SoleContainerNode(const std::string& fn) {
    int found = -1;
    for (int i = 0; i < cluster_->total_nodes(); ++i) {
      if (cluster_->node(i)->ContainerCount(fn) > 0) {
        if (found >= 0) return -1;
        found = i;
      }
    }
    return found;
  }

  sgx::AttestationAuthority authority_;
  sgx::SgxPlatform ks_platform_{sgx::SgxGeneration::kSgx2, &authority_};
  std::unique_ptr<keyservice::KeyServiceServer> keyservice_;
  std::unique_ptr<KeyServiceClient> client_;
  std::unique_ptr<ModelOwner> owner_;
  std::unique_ptr<ModelUser> user_;
  storage::InMemoryObjectStore storage_;
  model::ModelGraph graph_;
  ManualClock clock_;
  bool authorized_ = false;
  std::unique_ptr<ClusterDataplane> cluster_;
};

TEST_F(ClusterTest, RoutesExecutesAndCountsPerNode) {
  ClusterConfig config;
  config.initial_nodes = 3;
  MakeCluster(config);
  DeployAndAuthorize("predict");

  constexpr int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    auto result = InvokeOnce("predict");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->empty());
  }

  EXPECT_EQ(cluster_->counters().invocations.Value(), kRequests);
  EXPECT_EQ(cluster_->counters().no_capacity.Value(), 0u);
  uint64_t routed = 0;
  for (int i = 0; i < cluster_->total_nodes(); ++i) {
    routed += cluster_->node_counters(i).routed.Value();
  }
  EXPECT_EQ(routed, kRequests);
}

TEST_F(ClusterTest, PlacementIsStableAtLowLoad) {
  ClusterConfig config;
  config.initial_nodes = 4;
  MakeCluster(config);
  DeployAndAuthorize("predict");

  // Sequential low-load invocations of one (function, model) key all land
  // on its home node: no backlog means the bounded pick never diverts.
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(InvokeOnce("predict").ok());
  EXPECT_EQ(cluster_->counters().home_hits.Value(), 8u);
  EXPECT_EQ(cluster_->counters().steals.Value(), 0u);
  int nodes_used = 0;
  for (int i = 0; i < cluster_->total_nodes(); ++i) {
    nodes_used += cluster_->node_counters(i).routed.Value() > 0;
  }
  EXPECT_EQ(nodes_used, 1);
  // All containers sit on that one home node.
  EXPECT_GE(SoleContainerNode("predict"), 0);
}

TEST_F(ClusterTest, StealsToAWarmNodeInsteadOfColdStarting) {
  ClusterConfig config;
  config.initial_nodes = 3;
  config.node.keep_alive = SecondsToMicros(60);
  MakeCluster(config);
  DeployAndAuthorize("predict");

  // Warm the home node, then reap its container and warm a different node
  // directly (bypassing the router): the next routed request finds a
  // container-less home and a warm peer — it must steal, not cold start.
  ASSERT_TRUE(InvokeOnce("predict").ok());
  const int home = SoleContainerNode("predict");
  ASSERT_GE(home, 0);
  clock_.Advance(SecondsToMicros(120));
  ASSERT_EQ(cluster_->node(home)->ReapIdleContainers(), 1);

  const int warm = (home + 1) % cluster_->total_nodes();
  ASSERT_TRUE(cluster_->node(warm)->Invoke("predict", BuildRequest()).ok());
  ASSERT_EQ(cluster_->node(warm)->ContainerCount("predict"), 1);

  ASSERT_TRUE(InvokeOnce("predict").ok());
  EXPECT_EQ(cluster_->counters().steals.Value(), 1u);
  ASSERT_EQ(cluster_->total_nodes(), 3);
  EXPECT_EQ(cluster_->node_counters(warm).steal_wins.Value(), 1u);
  // The steal reused the warm container: still exactly one, still no
  // container at home.
  EXPECT_EQ(cluster_->node(warm)->ContainerCount("predict"), 1);
  EXPECT_EQ(cluster_->node(home)->ContainerCount("predict"), 0);
  // The warm node's one cold start is the direct warm-up above.
  EXPECT_EQ(cluster_->node(warm)->counters().cold_starts.Value(), 1u);
}

TEST_F(ClusterTest, ReroutesWhenHomeNodeDeactivates) {
  ClusterConfig config;
  config.initial_nodes = 3;
  MakeCluster(config);
  DeployAndAuthorize("predict");

  ASSERT_TRUE(InvokeOnce("predict").ok());
  const int home = SoleContainerNode("predict");
  ASSERT_GE(home, 0);

  ASSERT_TRUE(cluster_->DeactivateNode(home).ok());
  EXPECT_EQ(cluster_->active_nodes(), 2);
  ASSERT_TRUE(InvokeOnce("predict").ok());
  // The second request landed somewhere else (a fresh cold start there —
  // the deactivated node's warm container is not eligible for stealing).
  uint64_t routed_elsewhere = 0;
  for (int i = 0; i < cluster_->total_nodes(); ++i) {
    if (i != home) routed_elsewhere += cluster_->node_counters(i).routed.Value();
  }
  EXPECT_EQ(routed_elsewhere, 1u);

  // Reactivating restores the original ring layout, so the key goes home
  // again — and now *steals back* to the node that kept the warm container.
  ASSERT_TRUE(cluster_->ActivateNode(home).ok());
  ASSERT_TRUE(InvokeOnce("predict").ok());
  EXPECT_EQ(cluster_->node_counters(home).routed.Value(), 2u);
}

TEST_F(ClusterTest, DeactivateLastNodeRefused) {
  ClusterConfig config;
  config.initial_nodes = 1;
  MakeCluster(config);
  EXPECT_EQ(cluster_->DeactivateNode(0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster_->ActivateNode(0).code(),
            StatusCode::kFailedPrecondition);  // already active
  EXPECT_TRUE(cluster_->DeactivateNode(9).IsInvalidArgument());
}

TEST_F(ClusterTest, UnknownFunctionResolvesTyped) {
  ClusterConfig config;
  config.initial_nodes = 2;
  MakeCluster(config);
  DeployAndAuthorize("predict");
  serverless::InvocationResult out =
      cluster_->InvokeAsync("ghost", BuildRequest()).get();
  EXPECT_TRUE(out.response.status().IsNotFound());
}

TEST_F(ClusterTest, AutoscaleUpFromRealBacklogThenDownWhenIdle) {
  ClusterConfig config;
  config.initial_nodes = 1;
  config.standby_nodes = 1;
  config.autoscale.scale_up_backlog_per_node = 4.0;
  config.autoscale.scale_down_backlog_per_node = 0.5;
  config.autoscale.cooldown_ticks = 0;
  MakeCluster(config);
  DeployAndAuthorize("predict");
  ASSERT_EQ(cluster_->active_nodes(), 1);

  // Gate node 0's dispatcher so submissions pile up in its scheduler — a
  // real queue_depth backlog, observed by AutoscaleTick via queue_depth().
  cluster_->node(0)->PauseDispatch();
  std::vector<std::future<serverless::InvocationResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(cluster_->InvokeAsync("predict", BuildRequest()));
  }
  EXPECT_EQ(cluster_->AutoscaleTick(), +1);
  EXPECT_EQ(cluster_->active_nodes(), 2);
  EXPECT_EQ(cluster_->counters().scale_ups.Value(), 1u);

  cluster_->node(0)->ResumeDispatch();
  for (auto& f : futures) {
    serverless::InvocationResult out = f.get();
    EXPECT_TRUE(out.response.ok()) << out.response.status().ToString();
  }

  // Idle again: the next tick drains the emptier node back out.
  EXPECT_EQ(cluster_->AutoscaleTick(), -1);
  EXPECT_EQ(cluster_->active_nodes(), 1);
  EXPECT_EQ(cluster_->counters().scale_downs.Value(), 1u);
  // And at min_nodes the policy holds.
  EXPECT_EQ(cluster_->AutoscaleTick(), 0);
}

TEST_F(ClusterTest, PerNodeAdmissionStaysTyped) {
  ClusterConfig config;
  config.initial_nodes = 2;
  MakeCluster(config);
  // Backlog cap of 2 per node: flooding one key's home node must shed with
  // typed ResourceExhausted, never an exception or a hung future.
  sched::FunctionSchedParams sched;
  sched.max_queue_depth = 2;
  DeployAndAuthorize("predict", sched);

  cluster_->node(0)->PauseDispatch();
  cluster_->node(1)->PauseDispatch();
  std::vector<std::future<serverless::InvocationResult>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(cluster_->InvokeAsync("predict", BuildRequest()));
  }
  cluster_->node(0)->ResumeDispatch();
  cluster_->node(1)->ResumeDispatch();

  int ok = 0, shed = 0;
  for (auto& f : futures) {
    serverless::InvocationResult out = f.get();
    const StatusCode code = out.response.status().code();
    if (code == StatusCode::kOk) {
      ok++;
    } else {
      // The scheduler sheds backlog overflow as typed Unavailable ("queue
      // full") and inflight overflow as ResourceExhausted — never an
      // exception, an untyped code, or a hung future.
      EXPECT_TRUE(code == StatusCode::kUnavailable ||
                  code == StatusCode::kResourceExhausted)
          << out.response.status().ToString();
      shed++;
    }
  }
  EXPECT_EQ(ok + shed, 24);
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0);  // cap 2 + inflight slack cannot absorb 24 paused submits
}

}  // namespace
}  // namespace sesemi::cluster
