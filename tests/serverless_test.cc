#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "client/clients.h"
#include "common/faultpoint.h"
#include "fnpacker/router.h"
#include "model/zoo.h"
#include "obs/metrics.h"
#include "serverless/platform.h"

namespace sesemi::serverless {
namespace {

using client::KeyServiceClient;
using client::ModelOwner;
using client::ModelUser;

// An object store whose Gets of one key park until the test opens the gate.
// A request that must fetch that object holds its container slot until then,
// so a test can fill a container without timing assumptions.
class GatedStore final : public storage::ObjectStore {
 public:
  GatedStore(storage::ObjectStore* inner, std::string gated_key)
      : inner_(inner), gated_key_(std::move(gated_key)) {}

  Result<Bytes> Get(const std::string& key) const override {
    if (key == gated_key_) {
      std::unique_lock<std::mutex> lock(mutex_);
      ++parked_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    return inner_->Get(key);
  }
  Status Put(const std::string& key, Bytes data) override {
    return inner_->Put(key, std::move(data));
  }
  Status Delete(const std::string& key) override { return inner_->Delete(key); }
  bool Exists(const std::string& key) const override { return inner_->Exists(key); }
  Result<uint64_t> Size(const std::string& key) const override {
    return inner_->Size(key);
  }
  std::vector<std::string> List(const std::string& prefix) const override {
    return inner_->List(prefix);
  }

  void WaitForParked(int n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return parked_ >= n; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  storage::ObjectStore* inner_;
  const std::string gated_key_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable int parked_ = 0;
  bool open_ = false;
};

class ServerlessTest : public ::testing::Test {
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

    PlatformConfig config;
    config.keep_alive = SecondsToMicros(180);
    platform_ = std::make_unique<ServerlessPlatform>(config, &authority_, &storage_,
                                                     keyservice_.get(), &clock_);
  }

  void DeployAndAuthorize(const std::string& fn_name,
                          semirt::SemirtOptions options = {}) {
    FunctionSpec spec;
    spec.name = fn_name;
    spec.options = options;
    ASSERT_TRUE(platform_->DeployFunction(spec).ok());
    sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(options);
    ASSERT_TRUE(owner_->GrantAccess(client_.get(), "m0", es, user_->id()).ok());
    ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), "m0", es).ok());
  }

  Result<std::vector<float>> InvokeOnce(const std::string& fn, bool* cold = nullptr,
                                        const sgx::Measurement* es = nullptr) {
    Bytes input = model::GenerateRandomInput(graph_, 1);
    SESEMI_ASSIGN_OR_RETURN(semirt::InferenceRequest request,
                            user_->BuildRequest("m0", input, es));
    SESEMI_ASSIGN_OR_RETURN(Bytes sealed,
                            platform_->Invoke(fn, request, nullptr, cold));
    SESEMI_ASSIGN_OR_RETURN(Bytes output, user_->DecryptResult("m0", sealed, es));
    return model::ParseOutput(output);
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
  std::unique_ptr<ServerlessPlatform> platform_;
};

TEST_F(ServerlessTest, ColdThenWarmInvocation) {
  DeployAndAuthorize("predict");
  bool cold = false;
  auto r1 = InvokeOnce("predict", &cold);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE(cold);
  EXPECT_EQ(platform_->ContainerCount("predict"), 1);

  auto r2 = InvokeOnce("predict", &cold);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(cold);  // warm container reused
  EXPECT_EQ(platform_->ContainerCount("predict"), 1);
  EXPECT_EQ(platform_->counters().cold_starts.Value(), 1u);
  EXPECT_EQ(platform_->counters().invocations.Value(), 2u);
}

TEST_F(ServerlessTest, UnknownFunctionRejected) {
  semirt::InferenceRequest request;
  request.user_id = "u";
  request.model_id = "m0";
  request.encrypted_input = Bytes(16, 0);
  EXPECT_TRUE(platform_->Invoke("ghost", request).status().IsNotFound());
}

TEST_F(ServerlessTest, DuplicateDeployRejected) {
  DeployAndAuthorize("predict");
  FunctionSpec dup;
  dup.name = "predict";
  EXPECT_EQ(platform_->DeployFunction(dup).code(), StatusCode::kAlreadyExists);
}

TEST_F(ServerlessTest, KeepAliveReapsIdleContainers) {
  DeployAndAuthorize("predict");
  ASSERT_TRUE(InvokeOnce("predict").ok());
  EXPECT_EQ(platform_->ContainerCount(), 1);

  clock_.Advance(SecondsToMicros(179));
  EXPECT_EQ(platform_->ReapIdleContainers(), 0);  // still within keep-alive
  clock_.Advance(SecondsToMicros(2));
  EXPECT_EQ(platform_->ReapIdleContainers(), 1);
  EXPECT_EQ(platform_->ContainerCount(), 0);

  // Next invocation cold-starts again.
  bool cold = false;
  ASSERT_TRUE(InvokeOnce("predict", &cold).ok());
  EXPECT_TRUE(cold);
}

// A keep-alive sweep holds the function's pool mutex while it scans. A
// request that acquires during the sweep must wait for it and reuse the warm
// container, not cold-start another: with a ManualClock nothing ever expires,
// so one 16-TCS container serves every request however often sweeps run.
TEST_F(ServerlessTest, KeepAliveSweepNeverColdStartsAWarmFunction) {
  semirt::SemirtOptions options;
  options.num_tcs = 16;
  DeployAndAuthorize("predict", options);
  ASSERT_TRUE(InvokeOnce("predict").ok());  // the one cold start

  // Built up front: the client is not safe to share with the sweeper thread.
  std::vector<semirt::InferenceRequest> requests;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto request =
        user_->BuildRequest("m0", model::GenerateRandomInput(graph_, seed));
    ASSERT_TRUE(request.ok());
    requests.push_back(std::move(*request));
  }

  constexpr int kRequests = 1000;
  constexpr size_t kInFlight = 8;
  std::atomic<bool> done{false};
  std::thread sweeper([&] {
    while (!done.load(std::memory_order_relaxed)) platform_->ReapIdleContainers();
  });
  int failed = 0;
  std::deque<std::future<InvocationResult>> inflight;
  for (int i = 0; i < kRequests || !inflight.empty();) {
    if (i < kRequests && inflight.size() < kInFlight) {
      inflight.push_back(
          platform_->InvokeAsync("predict", requests[i % requests.size()]));
      ++i;
      continue;
    }
    if (!inflight.front().get().response.ok()) ++failed;
    inflight.pop_front();
  }
  done.store(true, std::memory_order_relaxed);
  sweeper.join();

  EXPECT_EQ(failed, 0);
  EXPECT_EQ(platform_->counters().cold_starts.Value(), 1u);
  EXPECT_EQ(platform_->ContainerCount("predict"), 1);
}

// Fig. 4's hot path across containers: of two warm containers with free
// slots, a request takes the one that holds its model, even when the other
// was released more recently. Four RT lanes give four concurrent dispatchers
// whatever the size of the shared pool.
TEST_F(ServerlessTest, WarmAcquisitionPrefersTheContainerHoldingTheModel) {
  std::map<std::string, model::ModelGraph> graphs = {{"m0", graph_}};
  for (const char* id : {"m1", "m2"}) {
    model::ZooSpec zoo;
    zoo.model_id = id;
    zoo.scale = 0.002;
    zoo.input_hw = 16;
    auto graph = model::BuildModel(zoo);
    ASSERT_TRUE(graph.ok());
    ASSERT_TRUE(owner_->DeployModel(client_.get(), &storage_, *graph).ok());
    graphs[id] = *graph;
  }
  semirt::SemirtOptions options;
  options.num_tcs = 3;
  const sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(options);
  for (const auto& [id, graph] : graphs) {
    ASSERT_TRUE(owner_->GrantAccess(client_.get(), id, es, user_->id()).ok());
    ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), id, es).ok());
  }
  auto request_for = [&](const std::string& id) {
    auto request = user_->BuildRequest(id, model::GenerateRandomInput(graphs[id], 1));
    EXPECT_TRUE(request.ok());
    return *request;
  };

  GatedStore store(&storage_, semirt::SemirtInstance::ModelObjectKey("m0"));
  PlatformConfig config;
  config.rt.enabled = true;
  config.rt.classes = sched::kNumPriorityClasses;
  config.rt.executor.num_lanes = 4;
  config.rt.executor.pin_threads = false;
  config.rt.executor.elevate_priority = false;
  ServerlessPlatform platform(config, &authority_, &store, keyservice_.get(),
                              &clock_);
  FunctionSpec spec;
  spec.name = "pool";
  spec.options = options;
  ASSERT_TRUE(platform.DeployFunction(spec).ok());

  // Container A launches for m2 and goes idle with three free slots. Three m0
  // requests then take all three and park on the m0 fetch.
  ASSERT_TRUE(platform.Invoke("pool", request_for("m2")).ok());
  std::vector<std::future<InvocationResult>> parked;
  for (int i = 0; i < 3; ++i) {
    parked.push_back(platform.InvokeAsync("pool", request_for("m0")));
  }
  store.WaitForParked(3);
  // A is full, so m1 launches container B, which loads m1 and goes idle.
  bool cold = false;
  ASSERT_TRUE(platform.Invoke("pool", request_for("m1"), nullptr, &cold).ok());
  EXPECT_TRUE(cold);
  // A's slots are released last, with m0 loaded.
  store.Open();
  for (auto& future : parked) {
    InvocationResult out = future.get();
    ASSERT_TRUE(out.response.ok()) << out.response.status().ToString();
  }
  ASSERT_EQ(platform.ContainerCount("pool"), 2);

  // The next m1 request runs on B: no launch, no model load (hot).
  semirt::StageTimings timings;
  ASSERT_TRUE(platform.Invoke("pool", request_for("m1"), &timings, &cold).ok());
  EXPECT_FALSE(cold);
  EXPECT_EQ(timings.kind, semirt::InvocationKind::kHot);
  EXPECT_EQ(platform.counters().cold_starts.Value(), 2u);
}

// A poisoned container retires at its last release: it leaves
// ContainerCount() and returns its memory with no keep-alive sweep (the
// ManualClock never reaches the sweep interval), although three of its four
// slots were never in use.
TEST_F(ServerlessTest, PoisonedContainerRetiresAtItsLastRelease) {
  semirt::SemirtOptions four;
  four.num_tcs = 4;
  const semirt::SemirtOptions one;
  PlatformConfig config;
  config.invoker_memory_bytes = 300ull << 20;  // one 256 MB container
  ServerlessPlatform platform(config, &authority_, &storage_, keyservice_.get(),
                              &clock_);
  FunctionSpec predict;
  predict.name = "predict";
  predict.options = four;
  ASSERT_TRUE(platform.DeployFunction(predict).ok());
  FunctionSpec other;
  other.name = "other";
  other.options = one;
  ASSERT_TRUE(platform.DeployFunction(other).ok());
  const sgx::Measurement es_four = semirt::SemirtInstance::MeasurementFor(four);
  const sgx::Measurement es_one = semirt::SemirtInstance::MeasurementFor(one);
  for (const sgx::Measurement* es : {&es_four, &es_one}) {
    ASSERT_TRUE(owner_->GrantAccess(client_.get(), "m0", *es, user_->id()).ok());
    ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), "m0", *es).ok());
  }
  const Bytes input = model::GenerateRandomInput(graph_, 1);
  auto for_four = user_->BuildRequest("m0", input, &es_four);
  auto for_one = user_->BuildRequest("m0", input, &es_one);
  ASSERT_TRUE(for_four.ok() && for_one.ok());

  ASSERT_TRUE(platform.Invoke("predict", *for_four).ok());
  ASSERT_EQ(platform.ContainerCount("predict"), 1);
  {
    FaultConfig poison;
    poison.max_fires = 1;
    poison.error_code = StatusCode::kInternal;
    ScopedFault fault(faults::kEcallEnter, poison);
    EXPECT_EQ(platform.Invoke("predict", *for_four).status().code(),
              StatusCode::kUnavailable);
  }
  EXPECT_EQ(platform.counters().enclave_failures.Value(), 1u);
  EXPECT_EQ(platform.counters().quarantined_slots.Value(), 4u);
  EXPECT_EQ(platform.ContainerCount("predict"), 0);
  // The memory is back: another function's launch fits in the budget.
  bool cold = false;
  auto other_result = platform.Invoke("other", *for_one, nullptr, &cold);
  EXPECT_TRUE(other_result.ok()) << other_result.status().ToString();
  EXPECT_TRUE(cold);
  EXPECT_EQ(platform.counters().reaped_containers.Value(), 0u);
}

// DeployFunction refuses every spec SemirtInstance::Create would refuse on
// its options alone. Accepted, each would fail every cold start and arm the
// node-wide relaunch gate against the healthy functions too.
TEST_F(ServerlessTest, DeployRefusesWhatEveryLaunchWouldRefuse) {
  std::vector<semirt::SemirtOptions> refused(4);
  refused[0].num_tcs = 0;
  refused[1].num_tcs = semirt::kMaxTcs + 1;
  refused[2].sequential_mode = true;
  refused[2].num_tcs = 2;
  refused[3].mode = semirt::RuntimeMode::kNative;
  refused[3].num_tcs = 2;
  for (size_t i = 0; i < refused.size(); ++i) {
    FunctionSpec spec;
    spec.name = "refused-" + std::to_string(i);
    spec.options = refused[i];
    EXPECT_EQ(platform_->DeployFunction(spec).code(), StatusCode::kInvalidArgument)
        << spec.name;
  }

  // A trusted mode needs a KeyService; the untrusted baseline does not.
  ServerlessPlatform no_keyservice(PlatformConfig{}, &authority_, &storage_,
                                   /*keyservice=*/nullptr, &clock_);
  FunctionSpec trusted;
  trusted.name = "trusted";
  EXPECT_EQ(no_keyservice.DeployFunction(trusted).code(),
            StatusCode::kInvalidArgument);
  FunctionSpec untrusted;
  untrusted.name = "untrusted";
  untrusted.options.mode = semirt::RuntimeMode::kUntrusted;
  EXPECT_TRUE(no_keyservice.DeployFunction(untrusted).ok());

  // The refusals left the node healthy: a good function still launches.
  DeployAndAuthorize("predict");
  bool cold = false;
  auto result = InvokeOnce("predict", &cold);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(cold);
}

TEST_F(ServerlessTest, MemoryExhaustionSurfaces) {
  semirt::SemirtOptions options;
  DeployAndAuthorize("predict", options);
  // Each container books 256 MB, so the default 4 GB invoker fits 16.
  // Shrink the budget to one container instead of filling it:
  PlatformConfig tiny;
  tiny.invoker_memory_bytes = 300ull << 20;  // fits one 256 MB container
  ServerlessPlatform small(tiny, &authority_, &storage_, keyservice_.get(), &clock_);
  FunctionSpec spec;
  spec.name = "predict";
  ASSERT_TRUE(small.DeployFunction(spec).ok());

  // First request occupies the only container slot; a concurrent second
  // request cannot get memory for another container.
  Bytes input = model::GenerateRandomInput(graph_, 1);
  auto request = user_->BuildRequest("m0", input);
  ASSERT_TRUE(request.ok());

  std::atomic<bool> second_failed{false};
  std::thread t1([&] { (void)small.Invoke("predict", *request); });
  std::thread t2([&] {
    // Races with t1: either reuses the container (in_flight check) or fails
    // with ResourceExhausted — both acceptable; what must not happen is a
    // second container.
    auto r = small.Invoke("predict", *request);
    second_failed = !r.ok();
  });
  t1.join();
  t2.join();
  EXPECT_LE(small.ContainerCount(), 1);
}

TEST_F(ServerlessTest, FunctionsIsolatedAcrossNodes) {
  DeployAndAuthorize("predict");
  semirt::SemirtOptions other;
  other.framework = inference::FrameworkKind::kTflm;
  FunctionSpec spec;
  spec.name = "predict-tflm";
  spec.options = other;
  ASSERT_TRUE(platform_->DeployFunction(spec).ok());
  sgx::Measurement tflm_es = semirt::SemirtInstance::MeasurementFor(other);
  ASSERT_TRUE(owner_->GrantAccess(client_.get(), "m0", tflm_es, user_->id()).ok());
  ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), "m0", tflm_es).ok());
  sgx::Measurement tvm_es =
      semirt::SemirtInstance::MeasurementFor(semirt::SemirtOptions{});

  // Two deployments provisioned: requests must name the target enclave.
  EXPECT_FALSE(InvokeOnce("predict").ok());  // ambiguous without identity
  ASSERT_TRUE(InvokeOnce("predict", nullptr, &tvm_es).ok());
  ASSERT_TRUE(InvokeOnce("predict-tflm", nullptr, &tflm_es).ok());
  EXPECT_EQ(platform_->ContainerCount("predict"), 1);
  EXPECT_EQ(platform_->ContainerCount("predict-tflm"), 1);
}

TEST_F(ServerlessTest, ConcurrentInvokeAsyncMatchesSerialExecution) {
  // Two functions with distinct enclave identities and TCS budgets; requests
  // for both interleave through InvokeAsync and every response must decrypt
  // to exactly what a serial Invoke of the same input produces.
  semirt::SemirtOptions options_a;
  options_a.num_tcs = 4;
  DeployAndAuthorize("fn-a", options_a);

  semirt::SemirtOptions options_b;
  options_b.num_tcs = 2;
  options_b.framework = inference::FrameworkKind::kTflm;
  FunctionSpec spec_b;
  spec_b.name = "fn-b";
  spec_b.options = options_b;
  ASSERT_TRUE(platform_->DeployFunction(spec_b).ok());
  sgx::Measurement es_b = semirt::SemirtInstance::MeasurementFor(options_b);
  ASSERT_TRUE(owner_->GrantAccess(client_.get(), "m0", es_b, user_->id()).ok());
  ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), "m0", es_b).ok());
  sgx::Measurement es_a = semirt::SemirtInstance::MeasurementFor(options_a);

  struct Case {
    std::string fn;
    const sgx::Measurement* es;
    uint64_t seed;
  };
  std::vector<Case> cases;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    cases.push_back({"fn-a", &es_a, seed});
    cases.push_back({"fn-b", &es_b, seed});
  }

  // Serial baselines, one per (function, seed).
  std::map<std::pair<std::string, uint64_t>, std::vector<float>> expected;
  for (const Case& c : cases) {
    Bytes input = model::GenerateRandomInput(graph_, c.seed);
    auto request = user_->BuildRequest("m0", input, c.es);
    ASSERT_TRUE(request.ok());
    auto sealed = platform_->Invoke(c.fn, *request);
    ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
    auto output = user_->DecryptResult("m0", *sealed, c.es);
    ASSERT_TRUE(output.ok());
    auto parsed = model::ParseOutput(*output);
    ASSERT_TRUE(parsed.ok());
    expected[{c.fn, c.seed}] = *parsed;
  }

  // Stress: several caller threads each fire a burst of InvokeAsync calls
  // across the mixed cases, then verify plaintext parity per request.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::pair<const Case*, std::future<InvocationResult>>> inflight;
      for (int i = 0; i < kPerThread; ++i) {
        const Case& c = cases[(t * kPerThread + i) % cases.size()];
        Bytes input = model::GenerateRandomInput(graph_, c.seed);
        auto request = user_->BuildRequest("m0", input, c.es);
        if (!request.ok()) {
          failures.fetch_add(1);
          continue;
        }
        inflight.emplace_back(&c,
                              platform_->InvokeAsync(c.fn, std::move(*request)));
      }
      for (auto& [c, future] : inflight) {
        InvocationResult result = future.get();
        if (!result.response.ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto output = user_->DecryptResult("m0", *result.response, c->es);
        if (!output.ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto parsed = model::ParseOutput(*output);
        if (!parsed.ok()) {
          failures.fetch_add(1);
          continue;
        }
        std::vector<float> scores = *parsed;
        const std::vector<float>& want = expected.at({c->fn, c->seed});
        if (scores.size() != want.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t j = 0; j < scores.size(); ++j) {
          if (std::abs(scores[j] - want[j]) > 1e-6f) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // Serial baselines + concurrent burst all counted.
  EXPECT_EQ(platform_->counters().invocations.Value(),
            static_cast<uint64_t>(cases.size() + kThreads * kPerThread));
  // Warm reuse: at most one container per function beyond what concurrency
  // forced (each fn-a container carries 4 TCS, fn-b carries 2).
  EXPECT_GE(platform_->ContainerCount("fn-a"), 1);
  EXPECT_GE(platform_->ContainerCount("fn-b"), 1);
}

TEST_F(ServerlessTest, FifoPolicyPreservesSubmissionOrderUnderContention) {
  // Regression for the pre-scheduler backpressure: callers blocked on the
  // in-flight window woke in arbitrary mutex order. With the scheduler, a
  // submission's admission order (sched_seq) must equal its dispatch order
  // (dispatch_seq) under the default FIFO policy, no matter how many threads
  // race to submit.
  DeployAndAuthorize("predict");
  platform_->PauseDispatch();  // build a contended backlog first

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::future<InvocationResult>> futures(kThreads * kPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Bytes input = model::GenerateRandomInput(graph_, 1);
        auto request = user_->BuildRequest("m0", input);
        ASSERT_TRUE(request.ok());
        futures[t * kPerThread + i] =
            platform_->InvokeAsync("predict", std::move(*request));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(platform_->queue_depth(),
            static_cast<size_t>(kThreads * kPerThread));

  platform_->ResumeDispatch();
  std::vector<std::pair<uint64_t, uint64_t>> order;  // (sched_seq, dispatch_seq)
  for (auto& f : futures) {
    InvocationResult result = f.get();
    ASSERT_TRUE(result.response.ok()) << result.response.status().ToString();
    order.emplace_back(result.sched_seq, result.dispatch_seq);
  }
  std::sort(order.begin(), order.end());
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GT(order[i].second, order[i - 1].second)
        << "dispatch order diverged from FIFO admission order at " << i;
  }
}

TEST_F(ServerlessTest, BatchedSameModelInvocationsMatchSerial) {
  semirt::SemirtOptions options;
  options.num_tcs = 2;
  FunctionSpec spec;
  spec.name = "batched";
  spec.options = options;
  spec.sched.max_batch = 4;
  ASSERT_TRUE(platform_->DeployFunction(spec).ok());
  sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(options);
  ASSERT_TRUE(owner_->GrantAccess(client_.get(), "m0", es, user_->id()).ok());
  ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), "m0", es).ok());

  // Serial baselines per seed.
  std::map<uint64_t, std::vector<float>> expected;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Bytes input = model::GenerateRandomInput(graph_, seed);
    auto request = user_->BuildRequest("m0", input);
    ASSERT_TRUE(request.ok());
    auto sealed = platform_->Invoke("batched", *request);
    ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
    auto output = user_->DecryptResult("m0", *sealed);
    ASSERT_TRUE(output.ok());
    auto parsed = model::ParseOutput(*output);
    ASSERT_TRUE(parsed.ok());
    expected[seed] = *parsed;
  }

  // Queue 12 same-model requests while dispatch is paused so the coalescer
  // has a backlog to batch, then release.
  platform_->PauseDispatch();
  std::vector<std::pair<uint64_t, std::future<InvocationResult>>> futures;
  for (int i = 0; i < 12; ++i) {
    const uint64_t seed = static_cast<uint64_t>(i % 3) + 1;
    Bytes input = model::GenerateRandomInput(graph_, seed);
    auto request = user_->BuildRequest("m0", input);
    ASSERT_TRUE(request.ok());
    futures.emplace_back(seed,
                         platform_->InvokeAsync("batched", std::move(*request)));
  }
  platform_->ResumeDispatch();

  int max_batch_seen = 0;
  for (auto& [seed, future] : futures) {
    InvocationResult result = future.get();
    ASSERT_TRUE(result.response.ok()) << result.response.status().ToString();
    max_batch_seen = std::max(max_batch_seen, result.batch_size);
    auto output = user_->DecryptResult("m0", *result.response);
    ASSERT_TRUE(output.ok());
    auto parsed = model::ParseOutput(*output);
    ASSERT_TRUE(parsed.ok());
    const std::vector<float>& want = expected.at(seed);
    ASSERT_EQ(parsed->size(), want.size());
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_NEAR((*parsed)[j], want[j], 1e-5f) << "seed " << seed;
    }
  }
  EXPECT_GT(max_batch_seen, 1) << "coalescer never built a batch";
  const sched::SchedulerCounters& counters = platform_->scheduler().counters();
  EXPECT_GT(counters.avg_batch_size(), 1.0);
  EXPECT_LE(counters.max_batch_size.load(), 4u);  // respects the configured cap
  EXPECT_EQ(platform_->counters().invocations.Value(), 3u + 12u);
}

TEST_F(ServerlessTest, RateLimitedFunctionRejectsTyped) {
  semirt::SemirtOptions options;
  FunctionSpec spec;
  spec.name = "limited";
  spec.options = options;
  spec.sched.rate_per_s = 2.0;
  spec.sched.burst = 2.0;
  ASSERT_TRUE(platform_->DeployFunction(spec).ok());
  sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(options);
  ASSERT_TRUE(owner_->GrantAccess(client_.get(), "m0", es, user_->id()).ok());
  ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), "m0", es).ok());

  auto submit = [&] {
    Bytes input = model::GenerateRandomInput(graph_, 1);
    auto request = user_->BuildRequest("m0", input);
    EXPECT_TRUE(request.ok());
    return platform_->InvokeAsync("limited", std::move(*request));
  };

  auto r1 = submit().get();
  auto r2 = submit().get();
  auto r3 = submit().get();  // token bucket empty (ManualClock: no refill)
  EXPECT_TRUE(r1.response.ok()) << r1.response.status().ToString();
  EXPECT_TRUE(r2.response.ok());
  EXPECT_TRUE(r3.response.status().IsResourceExhausted())
      << r3.response.status().ToString();
  EXPECT_EQ(platform_->scheduler().admission_counters().rejected_rate.Value(),
            1u);

  clock_.Advance(SecondsToMicros(1));  // refill 2 tokens
  auto r4 = submit().get();
  EXPECT_TRUE(r4.response.ok());
}

TEST_F(ServerlessTest, WeightedFairPolicyServesBacklogByWeight) {
  PlatformConfig config;
  config.scheduler.policy = sched::PolicyKind::kWeightedFair;
  config.max_inflight = 1;  // single dispatcher: dispatch order == pop order
  ServerlessPlatform platform(config, &authority_, &storage_, keyservice_.get(),
                              &clock_);

  semirt::SemirtOptions options;
  sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(options);
  ASSERT_TRUE(owner_->GrantAccess(client_.get(), "m0", es, user_->id()).ok());
  ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), "m0", es).ok());
  for (const auto& [name, weight] :
       std::vector<std::pair<std::string, double>>{{"heavy", 2.0}, {"light", 1.0}}) {
    FunctionSpec spec;
    spec.name = name;
    spec.options = options;
    spec.sched.weight = weight;
    ASSERT_TRUE(platform.DeployFunction(spec).ok());
  }

  platform.PauseDispatch();
  std::vector<std::pair<std::string, std::future<InvocationResult>>> futures;
  for (int i = 0; i < 12; ++i) {
    for (const std::string fn : {"heavy", "light"}) {
      Bytes input = model::GenerateRandomInput(graph_, 1);
      auto request = user_->BuildRequest("m0", input);
      ASSERT_TRUE(request.ok());
      futures.emplace_back(fn, platform.InvokeAsync(fn, std::move(*request)));
    }
  }
  platform.ResumeDispatch();

  // Among the first 12 dispatches (both functions still backlogged), service
  // must follow the 2:1 weights.
  std::vector<std::pair<uint64_t, std::string>> dispatches;
  for (auto& [fn, future] : futures) {
    InvocationResult result = future.get();
    ASSERT_TRUE(result.response.ok()) << result.response.status().ToString();
    dispatches.emplace_back(result.dispatch_seq, fn);
  }
  std::sort(dispatches.begin(), dispatches.end());
  int heavy_count = 0, light_count = 0;
  for (int i = 0; i < 12; ++i) {
    (dispatches[i].second == "heavy" ? heavy_count : light_count)++;
  }
  EXPECT_EQ(heavy_count, 8) << "2:1 weights over 12 dispatches";
  EXPECT_EQ(light_count, 4);
}

TEST_F(ServerlessTest, DeadlineEdfShedsExpiredWorkInsteadOfExecuting) {
  // DeadlineEdf used to be ordering-only: a request whose deadline had long
  // passed was still dispatched into the enclave. It must be shed at dispatch
  // time — a typed DeadlineExceeded on the future, counted in the
  // scheduler's drops, and *never executed*.
  PlatformConfig config;
  config.scheduler.policy = sched::PolicyKind::kDeadlineEdf;
  ServerlessPlatform platform(config, &authority_, &storage_, keyservice_.get(),
                              &clock_);

  semirt::SemirtOptions options;
  sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(options);
  ASSERT_TRUE(owner_->GrantAccess(client_.get(), "m0", es, user_->id()).ok());
  ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), "m0", es).ok());
  FunctionSpec spec;
  spec.name = "deadline";
  spec.options = options;
  ASSERT_TRUE(platform.DeployFunction(spec).ok());

  // Build the backlog with dispatch paused, then let the deadline expire
  // before releasing the dispatchers.
  platform.PauseDispatch();
  auto make_request = [&] {
    Bytes input = model::GenerateRandomInput(graph_, 1);
    auto request = user_->BuildRequest("m0", input);
    EXPECT_TRUE(request.ok());
    return std::move(*request);
  };
  InvokeOptions expiring;
  expiring.deadline = clock_.Now() + 1000;
  auto doomed = platform.InvokeAsync("deadline", make_request(), expiring);
  auto live = platform.InvokeAsync("deadline", make_request());  // no deadline

  clock_.Advance(SecondsToMicros(5));  // the 1 ms deadline is long gone
  platform.ResumeDispatch();

  InvocationResult shed = doomed.get();
  EXPECT_EQ(shed.response.status().code(), StatusCode::kDeadlineExceeded)
      << shed.response.status().ToString();

  InvocationResult ran = live.get();
  EXPECT_TRUE(ran.response.ok()) << ran.response.status().ToString();

  // The expired request never reached an enclave: exactly one invocation ran.
  EXPECT_EQ(platform.counters().invocations.Value(), 1u);
  EXPECT_EQ(platform.scheduler().counters().drops.Value(), 1u);
}

TEST_F(ServerlessTest, RouterIntegrationFnPackerOverPlatform) {
  // FnPacker routes two models onto pooled endpoints deployed as platform
  // functions — the live-mode analogue of the Table III/IV setup.
  DeployAndAuthorize("pool-ep0");
  semirt::SemirtOptions options;  // same identity as pool-ep0's options
  FunctionSpec ep1;
  ep1.name = "pool-ep1";
  ep1.options = options;
  ASSERT_TRUE(platform_->DeployFunction(ep1).ok());

  fnpacker::FnPoolSpec pool;
  pool.models = {"m0"};
  pool.num_endpoints = 2;
  fnpacker::FnPackerRouter router(pool);
  auto endpoint = router.Route("m0", clock_.Now());
  ASSERT_TRUE(endpoint.ok());
  std::string fn = "pool-ep" + std::to_string(*endpoint);
  auto result = InvokeOnce(fn);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  router.OnComplete("m0", *endpoint, clock_.Now());
  EXPECT_EQ(router.counters().routed.Value(), 1u);
}

TEST_F(ServerlessTest, ShutdownResolvesBacklogWithTypedUnavailable) {
  // Destroying the platform with a parked backlog used to execute the queued
  // work during teardown; it must instead resolve every future with a typed
  // Unavailable("shutting down") — and resolve ALL of them (a lost promise
  // would hang the .get() below forever).
  DeployAndAuthorize("predict");
  platform_->PauseDispatch();

  constexpr int kBacklog = 32;
  std::vector<std::future<InvocationResult>> futures;
  for (int i = 0; i < kBacklog; ++i) {
    Bytes input = model::GenerateRandomInput(graph_, 1);
    auto request = user_->BuildRequest("m0", input);
    ASSERT_TRUE(request.ok());
    futures.push_back(platform_->InvokeAsync("predict", std::move(*request)));
  }

  platform_.reset();  // dispatch still paused: nothing was executed

  for (auto& f : futures) {
    InvocationResult out = f.get();
    EXPECT_EQ(out.response.status().code(), StatusCode::kUnavailable)
        << out.response.status().ToString();
    EXPECT_NE(out.response.status().message().find("shutting down"),
              std::string::npos);
  }
}

TEST_F(ServerlessTest, ExecutionDeadlineCutsExpiredRequestBeforeEnclaveEntry) {
  // Under FIFO the scheduler does not shed on deadlines — enforcement happens
  // at execution time: the dispatch-side ExecDeadline cuts the request before
  // it ever acquires a container, with a typed DeadlineExceeded.
  DeployAndAuthorize("predict");
  platform_->PauseDispatch();

  Bytes input = model::GenerateRandomInput(graph_, 1);
  auto request = user_->BuildRequest("m0", input);
  ASSERT_TRUE(request.ok());
  InvokeOptions options;
  options.deadline = clock_.Now() + 1000;
  auto doomed = platform_->InvokeAsync("predict", std::move(*request), options);

  clock_.Advance(SecondsToMicros(5));  // deadline long gone before resume
  platform_->ResumeDispatch();

  InvocationResult out = doomed.get();
  EXPECT_EQ(out.response.status().code(), StatusCode::kDeadlineExceeded)
      << out.response.status().ToString();
  // Never reached an enclave.
  EXPECT_EQ(platform_->counters().invocations.Value(), 0u);
  EXPECT_EQ(platform_->counters().deadline_cuts.Value(), 1u);

  // The same rule for a coalesced unit: a paused max_batch = 4 backlog whose
  // deadlines all passed is cut before it acquires a container — no cold
  // start, no enclave entry. One dispatcher, so the four form one unit.
  PlatformConfig config;
  config.max_inflight = 1;
  ServerlessPlatform batched(config, &authority_, &storage_, keyservice_.get(),
                             &clock_);
  FunctionSpec spec;
  spec.name = "predict";
  spec.sched.max_batch = 4;
  ASSERT_TRUE(batched.DeployFunction(spec).ok());
  batched.PauseDispatch();
  options.deadline = clock_.Now() + 1000;
  std::vector<std::future<InvocationResult>> futures;
  for (int i = 0; i < 4; ++i) {
    auto queued = user_->BuildRequest("m0", input);
    ASSERT_TRUE(queued.ok());
    futures.push_back(batched.InvokeAsync("predict", std::move(*queued), options));
  }
  clock_.Advance(SecondsToMicros(5));
  batched.ResumeDispatch();
  for (auto& future : futures) {
    InvocationResult cut = future.get();
    EXPECT_EQ(cut.response.status().code(), StatusCode::kDeadlineExceeded)
        << cut.response.status().ToString();
  }
  EXPECT_EQ(batched.counters().invocations.Value(), 0u);
  EXPECT_EQ(batched.counters().cold_starts.Value(), 0u);
  EXPECT_EQ(batched.ContainerCount(), 0);
  EXPECT_EQ(batched.counters().deadline_cuts.Value(), 4u);
}

TEST_F(ServerlessTest, QueueWaitIsStampedPerRequestAndObservedPerClass) {
  // Queue wait is measured once per request, by the platform: dispatch time
  // minus enqueue time on the result, observed into the request's class of
  // sesemi_sched_wait_seconds.
  obs::MetricsRegistry registry;  // outlives the platform's collector
  PlatformConfig config;
  ServerlessPlatform platform(config, &authority_, &storage_, keyservice_.get(),
                              &clock_);
  semirt::SemirtOptions options;
  sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(options);
  ASSERT_TRUE(owner_->GrantAccess(client_.get(), "m0", es, user_->id()).ok());
  ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), "m0", es).ok());
  FunctionSpec spec;
  spec.name = "predict";
  spec.options = options;
  ASSERT_TRUE(platform.DeployFunction(spec).ok());
  platform.RegisterMetrics(&registry);

  auto submit = [&](int priority) {
    auto request =
        user_->BuildRequest("m0", model::GenerateRandomInput(graph_, 1));
    EXPECT_TRUE(request.ok());
    InvokeOptions invoke;
    invoke.priority = priority;
    return platform.InvokeAsync("predict", std::move(*request), invoke);
  };
  platform.PauseDispatch();
  auto urgent = submit(/*priority=*/0);
  clock_.Advance(1000);
  auto bulk = submit(/*priority=*/2);
  clock_.Advance(500);
  platform.ResumeDispatch();

  // Both dispatch at the same (manual) instant.
  InvocationResult urgent_out = urgent.get();
  InvocationResult bulk_out = bulk.get();
  ASSERT_TRUE(urgent_out.response.ok()) << urgent_out.response.status().ToString();
  ASSERT_TRUE(bulk_out.response.ok()) << bulk_out.response.status().ToString();
  EXPECT_EQ(urgent_out.queue_wait, 1500);
  EXPECT_EQ(bulk_out.queue_wait, 500);

  std::map<std::string, double> wait_counts;  // class label -> count
  for (const obs::Sample& sample : registry.Snapshot()) {
    if (sample.name != "sesemi_sched_wait_seconds_count") continue;
    for (const auto& [key, value] : sample.labels) {
      if (key == "class") wait_counts[value] = sample.value;
    }
  }
  EXPECT_DOUBLE_EQ(wait_counts["0"], 1.0);
  EXPECT_DOUBLE_EQ(wait_counts["1"], 0.0);
  EXPECT_DOUBLE_EQ(wait_counts["2"], 1.0);
}

}  // namespace
}  // namespace sesemi::serverless
