// Latency-class isolation regression tests: with the bulk classes saturated,
// interactive requests must execute exclusively on RT lane threads — never
// on a shared-pool worker (thread-identity assertion via
// InvocationResult::exec_thread / rt_lane). The latency bound this buys
// (interactive p99 <= 0.5x the shared path, docs/ARCHITECTURE.md "Execution
// tiers") is wall-clock, so it is gated by the retrying
// `bench_sched --isolation-check` CI step, not here. Also covers the
// RT-disabled identity (zeroed stats, rt_lane == -1) and pause/resume across
// the tier.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "client/clients.h"
#include "model/zoo.h"
#include "serverless/platform.h"

namespace sesemi::serverless {
namespace {

using client::KeyServiceClient;
using client::ModelOwner;
using client::ModelUser;

class RtIsolationTest : public ::testing::Test {
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

    // Two models, mirroring the workload shape the tier targets: a heavy
    // bulk model whose burst genuinely saturates the shared pool (the Dense
    // layers dominate at scale 0.05, as in bench_sched's overhead section),
    // and a light interactive model whose single-threaded lane execution is
    // cheap.
    model::ZooSpec heavy;
    heavy.model_id = "m0";
    heavy.scale = 0.05;
    heavy.input_hw = 16;
    auto heavy_graph = model::BuildModel(heavy);
    ASSERT_TRUE(heavy_graph.ok());
    heavy_graph_ = *heavy_graph;
    ASSERT_TRUE(owner_->DeployModel(client_.get(), &storage_, *heavy_graph).ok());

    model::ZooSpec light;
    light.model_id = "m1";
    light.scale = 0.002;
    light.input_hw = 16;
    auto light_graph = model::BuildModel(light);
    ASSERT_TRUE(light_graph.ok());
    light_graph_ = *light_graph;
    ASSERT_TRUE(owner_->DeployModel(client_.get(), &storage_, *light_graph).ok());
  }

  // A real-clock platform (queue_wait and latencies are wall time).
  void BuildPlatform(bool rt_enabled) {
    PlatformConfig config;
    if (rt_enabled) {
      config.rt.enabled = true;
      config.rt.classes = 1;  // class 0 = interactive
      config.rt.executor.num_lanes = 1;
      // Request the privileged knobs; where the container lacks
      // CAP_SYS_NICE this exercises the EPERM fallback instead.
      config.rt.executor.pin_threads = true;
      config.rt.executor.elevate_priority = true;
    }
    platform_ = std::make_unique<ServerlessPlatform>(config, &authority_,
                                                     &storage_, keyservice_.get());
  }

  void Deploy(const std::string& fn_name, int priority, int max_batch = 1) {
    FunctionSpec spec;
    spec.name = fn_name;
    spec.sched.priority = priority;
    spec.sched.max_batch = max_batch;
    ASSERT_TRUE(platform_->DeployFunction(spec).ok());
    sgx::Measurement es = semirt::SemirtInstance::MeasurementFor({});
    if (!granted_) {
      for (const char* model : {"m0", "m1"}) {
        ASSERT_TRUE(
            owner_->GrantAccess(client_.get(), model, es, user_->id()).ok());
        ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), model, es).ok());
      }
      granted_ = true;
    }
  }

  std::future<InvocationResult> Fire(const std::string& fn,
                                     const std::string& model = "m1",
                                     const InvokeOptions& options = {}) {
    const model::ModelGraph& graph =
        model == "m0" ? heavy_graph_ : light_graph_;
    Bytes input = model::GenerateRandomInput(graph, 1);
    auto request = user_->BuildRequest(model, input);
    EXPECT_TRUE(request.ok());
    return platform_->InvokeAsync(fn, std::move(*request), options);
  }

  sgx::AttestationAuthority authority_;
  sgx::SgxPlatform ks_platform_{sgx::SgxGeneration::kSgx2, &authority_};
  std::unique_ptr<keyservice::KeyServiceServer> keyservice_;
  std::unique_ptr<KeyServiceClient> client_;
  std::unique_ptr<ModelOwner> owner_;
  std::unique_ptr<ModelUser> user_;
  storage::InMemoryObjectStore storage_;
  model::ModelGraph heavy_graph_;
  model::ModelGraph light_graph_;
  bool granted_ = false;
  std::unique_ptr<ServerlessPlatform> platform_;
};

TEST_F(RtIsolationTest, InteractiveNeverExecutesOnBulkPoolUnderSaturation) {
  BuildPlatform(/*rt_enabled=*/true);
  Deploy("bulk", /*priority=*/1, /*max_batch=*/4);
  Deploy("interactive", /*priority=*/0);

  // Deep bulk backlog, so the shared pool stays busy while the interactive
  // requests arrive.
  constexpr int kBulk = 96;
  constexpr int kInteractive = 16;

  // Warm both paths so each has its container before the saturation phase.
  ASSERT_TRUE(Fire("bulk", "m0").get().response.ok());
  ASSERT_TRUE(Fire("interactive").get().response.ok());

  // Saturate the bulk class first, then trickle interactive requests in
  // while the shared pool is busy chewing through the backlog.
  std::vector<std::future<InvocationResult>> bulk;
  bulk.reserve(kBulk);
  for (int i = 0; i < kBulk; ++i) bulk.push_back(Fire("bulk", "m0"));

  std::vector<InvocationResult> interactive;
  interactive.reserve(kInteractive);
  for (int i = 0; i < kInteractive; ++i) {
    interactive.push_back(Fire("interactive").get());
  }

  std::set<uint64_t> bulk_threads;
  for (auto& f : bulk) {
    InvocationResult r = f.get();
    ASSERT_TRUE(r.response.ok()) << r.response.status().ToString();
    EXPECT_EQ(r.rt_lane, -1);
    bulk_threads.insert(r.exec_thread);
  }

  for (const InvocationResult& r : interactive) {
    ASSERT_TRUE(r.response.ok()) << r.response.status().ToString();
    // The core isolation contract: executed on an RT lane, on a thread the
    // bulk path never used.
    EXPECT_GE(r.rt_lane, 0);
    EXPECT_EQ(bulk_threads.count(r.exec_thread), 0u)
        << "interactive request executed on a bulk pool worker";
  }

  ASSERT_NE(platform_->rt_executor(), nullptr);  // the tier is enabled
  EXPECT_EQ(platform_->rt_executor()->lanes(), 1);
  EXPECT_GE(platform_->counters().rt_dispatches.Value(),
            static_cast<uint64_t>(kInteractive));
}

TEST_F(RtIsolationTest, RtDisabledKeepsSharedPathAndZeroStats) {
  BuildPlatform(/*rt_enabled=*/false);
  Deploy("interactive", /*priority=*/0);

  InvocationResult r = Fire("interactive").get();
  ASSERT_TRUE(r.response.ok()) << r.response.status().ToString();
  EXPECT_EQ(r.rt_lane, -1);

  // Tier disabled: no executor, hence no lanes, and no RT dispatches.
  EXPECT_EQ(platform_->rt_executor(), nullptr);
  EXPECT_EQ(platform_->counters().rt_dispatches.Value(), 0u);
}

/// A per-call priority outside [0, kNumPriorityClasses) is clamped, and a
/// negative one falls back to the function's default. The tier doorbell the
/// platform rings must follow the class the request is actually queued in,
/// or the request would wait for a pump that never pops its class.
TEST_F(RtIsolationTest, OutOfRangePrioritiesRouteToTheClassTheyQueueIn) {
  BuildPlatform(/*rt_enabled=*/true);
  Deploy("rt_fn", /*priority=*/0);
  Deploy("bulk_fn", /*priority=*/99);

  auto run = [&](const std::string& fn, int priority) {
    InvocationResult r = Fire(fn, "m1", {.priority = priority}).get();
    EXPECT_TRUE(r.response.ok()) << r.response.status().ToString();
    return r.rt_lane;
  };
  // -1 inherits rt_fn's class 0; 0 is explicit class 0.
  EXPECT_GE(run("rt_fn", -1), 0);
  EXPECT_GE(run("bulk_fn", 0), 0);
  // 99 clamps to the lowest class; -1 inherits bulk_fn's clamped default.
  EXPECT_EQ(run("rt_fn", 99), -1);
  EXPECT_EQ(run("bulk_fn", -1), -1);

  EXPECT_EQ(platform_->counters().rt_dispatches.Value(), 2u);
  EXPECT_EQ(platform_->queue_depth(), 0u);
}

TEST_F(RtIsolationTest, PauseParksRtClassesAndResumeDrainsThem) {
  BuildPlatform(/*rt_enabled=*/true);
  Deploy("interactive", /*priority=*/0);

  platform_->PauseDispatch();
  std::vector<std::future<InvocationResult>> inflight;
  for (int i = 0; i < 4; ++i) inflight.push_back(Fire("interactive"));

  // Paused: nothing may dispatch, on either tier.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(platform_->counters().rt_dispatches.Value(), 0u);
  EXPECT_EQ(platform_->interactive_depth(), 4u);

  platform_->ResumeDispatch();
  for (auto& f : inflight) {
    InvocationResult r = f.get();
    ASSERT_TRUE(r.response.ok()) << r.response.status().ToString();
    EXPECT_GE(r.rt_lane, 0);
  }
  EXPECT_EQ(platform_->interactive_depth(), 0u);
}

TEST_F(RtIsolationTest, ShutdownWithParkedRtBacklogResolvesEveryFuture) {
  BuildPlatform(/*rt_enabled=*/true);
  Deploy("interactive", /*priority=*/0);

  platform_->PauseDispatch();
  std::vector<std::future<InvocationResult>> inflight;
  for (int i = 0; i < 8; ++i) inflight.push_back(Fire("interactive"));
  platform_.reset();  // destructor drains: every future must resolve, typed

  for (auto& f : inflight) {
    InvocationResult r = f.get();  // must not hang
    // Either executed during the drain or typed-rejected; never abandoned.
    if (!r.response.ok()) {
      EXPECT_TRUE(r.response.status().IsUnavailable() ||
                  r.response.status().code() == StatusCode::kDeadlineExceeded)
          << r.response.status().ToString();
    }
  }
}

}  // namespace
}  // namespace sesemi::serverless
