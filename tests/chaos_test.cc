// Chaos soak for the failure-recovery layer: every cross-component fault
// point armed at a low rate while many threads drive the platform, then the
// faults are disarmed and the platform must return to a fully-healthy steady
// state. Run under TSan and ASan in CI. The injector draws from a seeded
// generator, so a failing soak replays under the same seed.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "client/clients.h"
#include "cluster/cluster.h"
#include "common/faultpoint.h"
#include "model/zoo.h"
#include "serverless/platform.h"

namespace sesemi::serverless {
namespace {

using client::KeyServiceClient;
using client::ModelOwner;
using client::ModelUser;

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().DisarmAll();
    FaultInjector::Instance().Reseed(0xc4a05);

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

    // Tight retry/relaunch backoffs so the soak converges in test time; the
    // policy shape (jittered, bounded, idempotent-only) is what's under test.
    config_.recovery.retry.max_attempts = 3;
    config_.recovery.retry.backoff_base_micros = 50;
    config_.recovery.retry.backoff_max_micros = 500;
    config_.recovery.relaunch_max_attempts = 1000;
    config_.recovery.relaunch_backoff_base_micros = 100;
    config_.recovery.relaunch_backoff_max_micros = 1000;
    platform_ = std::make_unique<ServerlessPlatform>(config_, &authority_,
                                                     &storage_, keyservice_.get());

    FunctionSpec fn;
    fn.name = "predict";
    ASSERT_TRUE(platform_->DeployFunction(fn).ok());
    sgx::Measurement es = semirt::SemirtInstance::MeasurementFor({});
    ASSERT_TRUE(owner_->GrantAccess(client_.get(), "m0", es, user_->id()).ok());
    ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), "m0", es).ok());
  }

  void TearDown() override { FaultInjector::Instance().DisarmAll(); }

  semirt::InferenceRequest BuildRequest() {
    Bytes input = model::GenerateRandomInput(graph_, 1);
    auto request = user_->BuildRequest("m0", input);
    EXPECT_TRUE(request.ok());
    return *request;
  }

  sgx::AttestationAuthority authority_;
  sgx::SgxPlatform ks_platform_{sgx::SgxGeneration::kSgx2, &authority_};
  std::unique_ptr<keyservice::KeyServiceServer> keyservice_;
  std::unique_ptr<KeyServiceClient> client_;
  std::unique_ptr<ModelOwner> owner_;
  std::unique_ptr<ModelUser> user_;
  storage::InMemoryObjectStore storage_;
  model::ModelGraph graph_;
  PlatformConfig config_;
  std::unique_ptr<ServerlessPlatform> platform_;
};

// Is `code` one of the codes the platform is allowed to surface under chaos?
// kAborted (the never-executed default) and kInternal (poisoning must be
// translated before it escapes) are specifically forbidden.
bool IsTypedChaosOutcome(StatusCode code) {
  return code == StatusCode::kOk || code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kResourceExhausted;
}

TEST_F(ChaosTest, SoakRecoversToSteadyState) {
  // ~1-2% fault rate across every hardened boundary, mixed codes + latency.
  auto arm = [](std::string_view point, double p, StatusCode code,
                TimeMicros latency = 0) {
    FaultConfig config;
    config.probability = p;
    config.error_code = code;
    config.latency_micros = latency;
    FaultInjector::Instance().Arm(point, config);
  };
  arm(faults::kEcallEnter, 0.02, StatusCode::kInternal);  // poisons enclaves
  arm(faults::kEnclaveHeapAlloc, 0.01, StatusCode::kUnavailable);
  arm(faults::kKeyServiceFetch, 0.02, StatusCode::kUnavailable);
  arm(faults::kRatlsHandshake, 0.01, StatusCode::kUnavailable, 200);
  arm(faults::kStorageGet, 0.02, StatusCode::kUnavailable);
  arm(faults::kServerlessDispatch, 0.01, StatusCode::kUnavailable);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 75;
  std::atomic<int> ok_count{0};
  std::atomic<int> failed_count{0};
  std::atomic<int> untyped_count{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<std::future<InvocationResult>> futures;
      futures.reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        futures.push_back(platform_->InvokeAsync("predict", BuildRequest()));
      }
      // Every future must resolve — a lost promise would hang right here.
      for (auto& f : futures) {
        InvocationResult out = f.get();
        const StatusCode code = out.response.status().code();
        if (!IsTypedChaosOutcome(code)) untyped_count.fetch_add(1);
        if (out.response.ok()) {
          ok_count.fetch_add(1);
        } else {
          failed_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(untyped_count.load(), 0) << "untyped/default code escaped";
  EXPECT_GT(ok_count.load(), 0) << "chaos rate swamped the platform";
  EXPECT_EQ(ok_count.load() + failed_count.load(), kThreads * kPerThread);
  EXPECT_GT(FaultInjector::Instance().total_fires(), 0u)
      << "soak exercised no faults — rates too low for the request volume";

  // Faults off: the platform must recover without intervention. Any poisoned
  // enclave relaunches (bounded backoff), so a bounded settle loop reaches a
  // first success...
  FaultInjector::Instance().DisarmAll();
  bool recovered = false;
  for (int i = 0; i < 200 && !recovered; ++i) {
    auto r = platform_->Invoke("predict", BuildRequest());
    recovered = r.ok();
    if (!recovered) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(recovered) << "platform did not return to service";

  // ...and steady state after it is fault-free.
  for (int i = 0; i < 20; ++i) {
    auto r = platform_->Invoke("predict", BuildRequest());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }

  // Each poisoned container retired at its last release, taking all of its
  // TCS slots out of service; the counters must agree after a sweep too.
  platform_->ReapIdleContainers();
  const PlatformCounters& counters = platform_->counters();
  if (counters.enclave_failures.Value() > 0) {
    EXPECT_GE(counters.quarantined_slots.Value(),
              counters.enclave_failures.Value());
  }
  EXPECT_GE(platform_->ContainerCount("predict"), 1);
}

// Poisoning must quarantine and relaunch deterministically, not just under
// load: one guaranteed ecall fault, then the very next (retried) traffic is
// healthy again and the stats show exactly one failure.
TEST_F(ChaosTest, SingleEcallFaultQuarantinesAndRelaunches) {
  auto warm = platform_->Invoke("predict", BuildRequest());
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  {
    FaultConfig config;
    config.probability = 1.0;
    config.max_fires = 1;
    config.error_code = StatusCode::kInternal;
    ScopedFault fault(faults::kEcallEnter, config);
    auto r = platform_->Invoke("predict", BuildRequest());
    ASSERT_FALSE(r.ok());
    // Poisoning surfaces as typed Unavailable — the ecall is never retried.
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(r.status().message().find("enclave failure"), std::string::npos);
  }

  const PlatformCounters& counters = platform_->counters();
  EXPECT_EQ(counters.enclave_failures.Value(), 1u);
  // The inference ecall is not an idempotent stage.
  EXPECT_EQ(counters.retries.Value(), 0u);

  // Service resumes on fresh capacity (bounded settle for relaunch backoff).
  bool recovered = false;
  for (int i = 0; i < 200 && !recovered; ++i) {
    recovered = platform_->Invoke("predict", BuildRequest()).ok();
    if (!recovered) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_TRUE(recovered);
  platform_->ReapIdleContainers();  // the poisoned enclave already retired
  EXPECT_GE(counters.quarantined_slots.Value(), 1u);
}

// Idempotent-stage faults (model fetch here) are retried inside one Invoke:
// a single guaranteed fault still yields an OK result and one retry counted.
TEST_F(ChaosTest, IdempotentStageFaultIsRetriedTransparently) {
  FaultConfig config;
  config.probability = 1.0;
  config.max_fires = 1;
  config.error_code = StatusCode::kUnavailable;
  {
    ScopedFault fault(faults::kStorageGet, config);
    auto r = platform_->Invoke("predict", BuildRequest());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(platform_->counters().retries.Value(), 1u);
    EXPECT_EQ(platform_->counters().enclave_failures.Value(), 0u);
  }

  // The same rule for a coalesced unit: the fault fails the shared model
  // fetch for all four requests at once, so the unit is retried as a whole.
  // One dispatcher, so the paused backlog forms one unit.
  PlatformConfig batched_config = config_;
  batched_config.max_inflight = 1;
  ServerlessPlatform batched(batched_config, &authority_, &storage_,
                             keyservice_.get());
  FunctionSpec fn;
  fn.name = "predict";
  fn.sched.max_batch = 4;
  ASSERT_TRUE(batched.DeployFunction(fn).ok());
  ScopedFault fault(faults::kStorageGet, config);
  batched.PauseDispatch();
  std::vector<std::future<InvocationResult>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(batched.InvokeAsync("predict", BuildRequest()));
  }
  batched.ResumeDispatch();
  int ok = 0;
  for (auto& future : futures) {
    InvocationResult out = future.get();
    EXPECT_TRUE(out.response.ok()) << out.response.status().ToString();
    EXPECT_EQ(out.batch_size, 4);
    ok += out.response.ok() ? 1 : 0;
  }
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(batched.counters().retries.Value(), 1u);
  EXPECT_EQ(batched.counters().enclave_failures.Value(), 0u);
}

// ---------------------------------------------------------------------------
// Cluster chaos: one node dies mid-replay while low-rate enclave poisoning
// runs cluster-wide. The router must reroute around the dead node (typed
// outcomes only, every future resolved), and after the faults disarm the
// cluster must return to steady state *including* home routing to the
// revived node.
// ---------------------------------------------------------------------------

class ClusterChaosTest : public ChaosTest {
 protected:
  void SetUp() override {
    ChaosTest::SetUp();
    cluster::ClusterConfig config;
    config.initial_nodes = 3;
    // Short health cooldown so the post-chaos settle loop re-probes the
    // revived node quickly; per-node recovery uses the same tight backoffs
    // as the single-platform soak.
    config.health_cooldown = SecondsToMicros(0.002);
    config.node.recovery.retry.max_attempts = 3;
    config.node.recovery.retry.backoff_base_micros = 50;
    config.node.recovery.retry.backoff_max_micros = 500;
    config.node.recovery.relaunch_max_attempts = 1000;
    config.node.recovery.relaunch_backoff_base_micros = 100;
    config.node.recovery.relaunch_backoff_max_micros = 1000;
    cluster_ = std::make_unique<cluster::ClusterDataplane>(
        config, &authority_, &storage_, keyservice_.get());
    FunctionSpec fn;
    fn.name = "predict";
    ASSERT_TRUE(cluster_->DeployFunction(fn).ok());
    // Model grants/keys were provisioned by the base fixture.
  }

  Result<Bytes> ClusterInvoke() {
    InvocationResult out =
        cluster_->InvokeAsync("predict", BuildRequest()).get();
    return std::move(out.response);
  }

  std::unique_ptr<cluster::ClusterDataplane> cluster_;
};

TEST_F(ClusterChaosTest, NodeKillMidReplayReroutesAndRecovers) {
  // Warm once to learn the function's home node — the chaos victim.
  auto warm = ClusterInvoke();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  int victim = -1;
  for (int i = 0; i < cluster_->total_nodes(); ++i) {
    if (cluster_->node(i)->ContainerCount("predict") > 0) victim = i;
  }
  ASSERT_GE(victim, 0);
  const obs::Counter& victim_routed = cluster_->node_counters(victim).routed;
  const uint64_t victim_routed_before = victim_routed.Value();

  // Storm: the victim's dispatch path fails every probe (a dead node), and
  // a low-rate ecall fault poisons enclaves anywhere in the cluster.
  {
    FaultConfig dead;
    dead.probability = 1.0;
    dead.error_code = StatusCode::kUnavailable;
    FaultInjector::Instance().Arm(cluster::NodeDispatchFaultPoint(victim), dead);
    FaultConfig poison;
    poison.probability = 0.02;
    poison.error_code = StatusCode::kInternal;
    FaultInjector::Instance().Arm(faults::kEcallEnter, poison);
  }

  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::atomic<int> ok_count{0};
  std::atomic<int> failed_count{0};
  std::atomic<int> untyped_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<std::future<InvocationResult>> futures;
      futures.reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        futures.push_back(cluster_->InvokeAsync("predict", BuildRequest()));
      }
      // Every future must resolve — a lost promise hangs right here.
      for (auto& f : futures) {
        InvocationResult out = f.get();
        const StatusCode code = out.response.status().code();
        if (!IsTypedChaosOutcome(code)) untyped_count.fetch_add(1);
        if (out.response.ok()) {
          ok_count.fetch_add(1);
        } else {
          failed_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(untyped_count.load(), 0) << "untyped/default code escaped";
  EXPECT_GT(ok_count.load(), 0) << "router failed to reroute around the victim";
  EXPECT_EQ(ok_count.load() + failed_count.load(), kThreads * kPerThread);

  EXPECT_GT(cluster_->counters().reroutes.Value(), 0u);
  // The dead node's dispatch probe never admitted a request.
  EXPECT_EQ(victim_routed.Value(), victim_routed_before);

  // Faults off: the cluster must recover unaided — first to service, then
  // to home routing on the revived victim (its health cooldown expires and
  // the bounded-load home pick sends the key back).
  FaultInjector::Instance().DisarmAll();
  bool recovered = false;
  for (int i = 0; i < 500 && !recovered; ++i) {
    const bool ok = ClusterInvoke().ok();
    recovered = ok && victim_routed.Value() > victim_routed_before;
    if (!recovered) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(recovered) << "victim node never rejoined routing";

  // Steady state is fault-free.
  for (int i = 0; i < 20; ++i) {
    auto r = ClusterInvoke();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }

  // Counter consistency: every routed request is an invocation, and the
  // routed totals across nodes account for all of them.
  uint64_t routed = 0;
  for (int i = 0; i < cluster_->total_nodes(); ++i) {
    routed += cluster_->node_counters(i).routed.Value();
  }
  EXPECT_EQ(routed, cluster_->counters().invocations.Value());
  EXPECT_EQ(cluster_->counters().no_capacity.Value(), 0u);
}

}  // namespace
}  // namespace sesemi::serverless
