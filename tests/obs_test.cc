// Observability tests: tracer ring overflow accounting, disabled-path and
// zero-allocation probes, trace-id propagation across batched (coalesced)
// invocations and cluster reroutes, the end-to-end connected span tree for a
// cluster-routed invocation (Snapshot AND exported Chrome trace JSON), the
// metrics registry, and histogram bucket edge cases.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <map>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client/clients.h"
#include "cluster/cluster.h"
#include "common/faultpoint.h"
#include "fnpacker/router.h"
#include "keyservice/keyservice.h"
#include "model/zoo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serverless/platform.h"
#include "sgx/platform.h"
#include "storage/object_store.h"

// Allocation probe: counts every global operator new in the test binary so
// the tracer's hot-path zero-allocation guarantee is enforced, not assumed.
static std::atomic<uint64_t> g_allocs{0};

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms too (std::stable_sort's temporary buffer uses them), so
// every allocation is counted and released through the same malloc/free pair.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sesemi {
namespace {

using client::KeyServiceClient;
using client::ModelOwner;
using client::ModelUser;

// Every tracer test leaves the tracer disabled and at default capacity so
// test order cannot leak spans across cases.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::Disable();
    obs::Tracer::Reset();
  }
  void TearDown() override {
    obs::Tracer::Disable();
    obs::Tracer::Reset();
  }
};

// ---------------------------------------------------------------- rings

TEST_F(TracerTest, RingOverflowDropsNewestAndCounts) {
  obs::Tracer::Reset(/*ring_capacity=*/4);
  obs::Tracer::Enable();
  for (int i = 0; i < 10; ++i) {
    obs::Span span("obs.test.overflow");
    span.set_arg("i", i);
  }
  obs::Tracer::Disable();
  obs::TraceSnapshot snapshot = obs::Tracer::Snap();
  EXPECT_EQ(snapshot.spans.size(), 4u);
  EXPECT_EQ(snapshot.dropped, 6u);
  // The surviving spans are the OLDEST four (drop-newest semantics).
  for (const obs::SpanRecord& span : snapshot.spans) {
    EXPECT_LT(span.arg, 4) << "ring kept a span that should have been dropped";
  }
}

TEST_F(TracerTest, ResetClearsSpansAndDropCounter) {
  obs::Tracer::Reset(/*ring_capacity=*/2);
  obs::Tracer::Enable();
  for (int i = 0; i < 5; ++i) obs::Span span("obs.test.reset");
  obs::Tracer::Reset();
  obs::TraceSnapshot snapshot = obs::Tracer::Snap();
  EXPECT_TRUE(snapshot.spans.empty());
  EXPECT_EQ(snapshot.dropped, 0u);
}

// ---------------------------------------------------------------- contexts

TEST_F(TracerTest, DisabledPathRecordsNothingAndMintsNothing) {
  {
    obs::Span span("obs.test.disabled");
    EXPECT_FALSE(span.context().valid());
  }
  EXPECT_FALSE(obs::Tracer::EmitSpan({}, "obs.test.disabled", 0, 1).valid());
  EXPECT_TRUE(obs::Tracer::Snap().spans.empty());
}

TEST_F(TracerTest, NestedSpansShareTraceAndChainParents) {
  obs::Tracer::Enable();
  obs::TraceContext outer_ctx, inner_ctx;
  {
    obs::Span outer("obs.test.outer");
    outer_ctx = outer.context();
    {
      obs::Span inner("obs.test.inner");
      inner_ctx = inner.context();
    }
    // TLS current restored after the inner span closes.
    EXPECT_EQ(obs::Tracer::Current().span_id, outer_ctx.span_id);
  }
  obs::Tracer::Disable();

  obs::TraceSnapshot snapshot = obs::Tracer::Snap();
  ASSERT_EQ(snapshot.spans.size(), 2u);
  std::map<uint64_t, obs::SpanRecord> by_id;
  for (const auto& span : snapshot.spans) by_id[span.span_id] = span;
  ASSERT_TRUE(by_id.count(inner_ctx.span_id));
  ASSERT_TRUE(by_id.count(outer_ctx.span_id));
  EXPECT_EQ(by_id[inner_ctx.span_id].trace_id, outer_ctx.trace_id);
  EXPECT_EQ(by_id[inner_ctx.span_id].parent_id, outer_ctx.span_id);
  EXPECT_EQ(by_id[outer_ctx.span_id].parent_id, 0u);
}

TEST_F(TracerTest, ExplicitContextPropagatesAcrossThreads) {
  obs::Tracer::Enable();
  obs::TraceContext parent;
  {
    obs::Span root("obs.test.handoff_root");
    parent = root.context();
    std::thread worker([parent] {
      obs::Span continued("obs.test.handoff_worker", parent);
    });
    worker.join();
  }
  obs::Tracer::Disable();

  obs::TraceSnapshot snapshot = obs::Tracer::Snap();
  ASSERT_EQ(snapshot.spans.size(), 2u);
  const obs::SpanRecord* worker_span = nullptr;
  for (const auto& span : snapshot.spans) {
    if (std::string(span.name) == "obs.test.handoff_worker") worker_span = &span;
  }
  ASSERT_NE(worker_span, nullptr);
  EXPECT_EQ(worker_span->trace_id, parent.trace_id);
  EXPECT_EQ(worker_span->parent_id, parent.span_id);
}

// ---------------------------------------------------------------- overhead

TEST_F(TracerTest, EnabledRecordPathDoesNotAllocate) {
  obs::Tracer::Reset(/*ring_capacity=*/4096);
  obs::Tracer::Enable();
  { obs::Span warmup("obs.test.warmup"); }  // allocate this thread's ring

  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    obs::Span span("obs.test.noalloc");
    span.set_arg("i", i);
  }
  const uint64_t after = g_allocs.load(std::memory_order_relaxed);
  obs::Tracer::Disable();
  EXPECT_EQ(after, before) << "span record path heap-allocated";
}

TEST_F(TracerTest, DisabledPathIsAllocationFreeAndCheap) {
  obs::Tracer::Disable();
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000000; ++i) {
    obs::Span span("obs.test.disabled_cost");
    span.set_arg("i", i);
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before);
  // One relaxed load + branch per probe end; microseconds per span would
  // mean the gate broke. Generous bound for sanitizer runs.
  EXPECT_LT(wall_s, 5.0);
}

// ---------------------------------------------------------------- rollup

TEST_F(TracerTest, RollupAggregatesByName) {
  obs::Tracer::Enable();
  obs::Tracer::EmitSpan({}, "obs.test.stage_a", 0, 10);
  obs::Tracer::EmitSpan({}, "obs.test.stage_a", 0, 30);
  obs::Tracer::EmitSpan({}, "obs.test.stage_b", 5, 10);
  obs::Tracer::Disable();
  std::vector<obs::StageRollup> rollup = obs::Tracer::Rollup();
  ASSERT_EQ(rollup.size(), 2u);
  const obs::StageRollup& a = rollup[0];
  EXPECT_STREQ(a.name, "obs.test.stage_a");
  EXPECT_EQ(a.count, 2u);
  EXPECT_EQ(a.total, 40);
  EXPECT_EQ(a.min, 10);
  EXPECT_EQ(a.max, 30);
  EXPECT_DOUBLE_EQ(a.mean_us(), 20.0);
  EXPECT_EQ(rollup[1].total, 5);
}

// ---------------------------------------------------------------- metrics

TEST(HistogramTest, BoundaryValueLandsInItsBucket) {
  obs::Histogram h({1.0, 2.0, 5.0});
  h.Observe(1.0);  // == bound: le semantics put it in the le=1 bucket
  h.Observe(2.5);
  h.Observe(5.0);
  EXPECT_EQ(h.CumulativeCount(0), 1u);  // le=1
  EXPECT_EQ(h.CumulativeCount(1), 1u);  // le=2
  EXPECT_EQ(h.CumulativeCount(2), 3u);  // le=5 (2.5 and 5.0 both land here)
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_DOUBLE_EQ(h.Sum(), 8.5);
}

TEST(HistogramTest, OverflowAndUnderflowEdges) {
  obs::Histogram h({1.0});
  h.Observe(1000.0);  // above the last bound: +Inf bucket only
  h.Observe(-3.0);    // below everything: first bucket
  h.Observe(0.0);
  EXPECT_EQ(h.CumulativeCount(0), 2u);  // le=1 holds -3 and 0
  EXPECT_EQ(h.CumulativeCount(1), 3u);  // +Inf == Count()
  EXPECT_EQ(h.Count(), 3u);
}

TEST(HistogramTest, LatencyBoundsAreAscending) {
  const std::vector<double> bounds = obs::Histogram::LatencyBounds();
  ASSERT_GE(bounds.size(), 4u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(MetricsRegistryTest, InstrumentsAreKeyedByNameAndLabels) {
  obs::MetricsRegistry registry;
  obs::Histogram* a = registry.GetHistogram("reqs", {1.0}, {{"node", "0"}});
  obs::Histogram* b = registry.GetHistogram("reqs", {1.0}, {{"node", "0"}});
  obs::Histogram* c = registry.GetHistogram("reqs", {1.0}, {{"node", "1"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (int i = 0; i < 3; ++i) a->Observe(0.5);
  c->Observe(0.5);
  double total = 0;
  int count_samples = 0;
  for (const auto& sample : registry.Snapshot()) {
    if (sample.kind != obs::SampleKind::kHistogramCount) continue;
    EXPECT_EQ(sample.name, "reqs_count");
    total += sample.value;
    count_samples++;
  }
  EXPECT_EQ(count_samples, 2);
  EXPECT_DOUBLE_EQ(total, 4.0);
}

TEST(MetricsRegistryTest, HistogramSnapshotExpandsToPrometheusSeries) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("latency_seconds", {0.1, 1.0});
  h->Observe(0.05);
  h->Observe(0.5);
  h->Observe(10.0);

  std::map<std::string, double> buckets;
  double sum = -1, count = -1;
  for (const obs::Sample& sample : registry.Snapshot()) {
    if (sample.kind == obs::SampleKind::kHistogramBucket) {
      ASSERT_FALSE(sample.labels.empty());
      EXPECT_EQ(sample.labels.back().first, "le");
      buckets[sample.labels.back().second] = sample.value;
    } else if (sample.kind == obs::SampleKind::kHistogramSum) {
      sum = sample.value;
    } else if (sample.kind == obs::SampleKind::kHistogramCount) {
      count = sample.value;
    }
  }
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(buckets["0.1"], 1.0);
  EXPECT_DOUBLE_EQ(buckets["1"], 2.0);     // cumulative
  EXPECT_DOUBLE_EQ(buckets["+Inf"], 3.0);  // cumulative == count
  EXPECT_DOUBLE_EQ(sum, 10.55);
  EXPECT_DOUBLE_EQ(count, 3.0);

  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("latency_seconds_bucket{le=\"+Inf\"} 3"), std::string::npos)
      << text;
  EXPECT_NE(text.find("latency_seconds_count 3"), std::string::npos) << text;
}

TEST(MetricsRegistryTest, CollectorsRunAtSnapshotAndScopedDeregisters) {
  obs::MetricsRegistry registry;
  int scrapes = 0;
  {
    obs::ScopedCollector collector(&registry, [&scrapes] {
      scrapes++;
      return std::vector<obs::Sample>{obs::MakeCounterSample("scraped", 7)};
    });
    std::vector<obs::Sample> samples = registry.Snapshot();
    EXPECT_EQ(scrapes, 1);
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_EQ(samples[0].name, "scraped");
    EXPECT_DOUBLE_EQ(samples[0].value, 7.0);
  }
  // Deregistered: the dangling capture must never run again.
  EXPECT_TRUE(registry.Snapshot().empty());
  EXPECT_EQ(scrapes, 1);
}

TEST(MetricsRegistryTest, PrometheusTextEscapesLabelValues) {
  obs::MetricsRegistry registry;
  obs::ScopedCollector collector(&registry, [] {
    return std::vector<obs::Sample>{
        obs::MakeCounterSample("odd", 1, {{"path", "a\"b\\c"}})};
  });
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("odd{path=\"a\\\"b\\\\c\"} 1"), std::string::npos) << text;
}

// ---------------------------------------------------------------- live rig

// Full dataplane fixture (KeyService + model + cluster of real platforms):
// the propagation and span-tree tests drive real invocations.
class ObsLiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::Disable();
    obs::Tracer::Reset();
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

    sgx::Measurement es = semirt::SemirtInstance::MeasurementFor({});
    ASSERT_TRUE(owner_->GrantAccess(client_.get(), "m0", es, user_->id()).ok());
    ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), "m0", es).ok());
  }

  void TearDown() override {
    obs::Tracer::Disable();
    obs::Tracer::Reset();
    FaultInjector::Instance().DisarmAll();
  }

  semirt::InferenceRequest BuildRequest(uint64_t seed = 1) {
    Bytes input = model::GenerateRandomInput(graph_, seed);
    auto request = user_->BuildRequest("m0", input);
    EXPECT_TRUE(request.ok());
    return *request;
  }

  // Dispatcher threads close their spans after resolving the caller's
  // future, so tests poll for the record instead of racing it.
  static int CountSpans(const obs::TraceSnapshot& snapshot, const char* name) {
    int n = 0;
    for (const auto& span : snapshot.spans) {
      if (span.name != nullptr && std::string(span.name) == name) n++;
    }
    return n;
  }

  static obs::TraceSnapshot WaitForSpans(const char* name, int count) {
    for (int i = 0; i < 400; ++i) {
      obs::TraceSnapshot snapshot = obs::Tracer::Snap();
      if (CountSpans(snapshot, name) >= count) return snapshot;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return obs::Tracer::Snap();
  }

  sgx::AttestationAuthority authority_;
  sgx::SgxPlatform ks_platform_{sgx::SgxGeneration::kSgx2, &authority_};
  std::unique_ptr<keyservice::KeyServiceServer> keyservice_;
  std::unique_ptr<KeyServiceClient> client_;
  std::unique_ptr<ModelOwner> owner_;
  std::unique_ptr<ModelUser> user_;
  storage::InMemoryObjectStore storage_;
  model::ModelGraph graph_;
};

TEST_F(ObsLiveTest, CoalescedBatchCarriesEveryRequestTrace) {
  serverless::PlatformConfig config;
  config.max_inflight = 1;
  serverless::ServerlessPlatform platform(config, &authority_, &storage_,
                                          keyservice_.get());
  serverless::FunctionSpec spec;
  spec.name = "f";
  spec.sched.max_batch = 8;
  ASSERT_TRUE(platform.DeployFunction(spec).ok());

  // Warm the container outside the traced window.
  ASSERT_TRUE(platform.Invoke("f", BuildRequest()).ok());

  obs::Tracer::Reset();
  obs::Tracer::Enable();
  constexpr int kRequests = 4;
  platform.PauseDispatch();
  std::vector<std::future<serverless::InvocationResult>> futures;
  std::vector<obs::TraceContext> submit_traces;
  for (int i = 0; i < kRequests; ++i) {
    obs::Span caller("obs.test.caller");
    submit_traces.push_back(caller.context());
    futures.push_back(platform.InvokeAsync("f", BuildRequest(i + 2)));
  }
  platform.ResumeDispatch();
  int max_batch_seen = 0;
  for (auto& future : futures) {
    serverless::InvocationResult result = future.get();
    ASSERT_TRUE(result.response.ok()) << result.response.status().ToString();
    max_batch_seen = std::max(max_batch_seen, result.batch_size);
  }
  ASSERT_GT(max_batch_seen, 1) << "backlog did not coalesce";

  // The dispatch span closes (and records) after the futures resolve.
  WaitForSpans(obs::spans::kDispatch, 1);
  obs::TraceSnapshot snapshot = WaitForSpans(obs::spans::kQueueWait, kRequests);
  obs::Tracer::Disable();

  // Every request's own trace got a queue-wait span...
  EXPECT_EQ(CountSpans(snapshot, obs::spans::kQueueWait), kRequests);
  std::set<uint64_t> wait_traces, dispatch_traces;
  std::vector<const obs::SpanRecord*> coalesced;
  for (const auto& span : snapshot.spans) {
    if (span.name == nullptr) continue;
    const std::string name = span.name;
    if (name == obs::spans::kQueueWait) wait_traces.insert(span.trace_id);
    if (name == obs::spans::kDispatch) dispatch_traces.insert(span.trace_id);
    if (name == obs::spans::kCoalesced) coalesced.push_back(&span);
  }
  for (const obs::TraceContext& submitted : submit_traces) {
    EXPECT_TRUE(wait_traces.count(submitted.trace_id))
        << "request trace lost across the queue";
  }
  // ...and each coalesced companion points at the head trace that carries
  // the shared dispatch/ecall spans.
  ASSERT_FALSE(coalesced.empty());
  for (const obs::SpanRecord* span : coalesced) {
    ASSERT_STREQ(span->arg_name, "head_trace");
    EXPECT_TRUE(dispatch_traces.count(static_cast<uint64_t>(span->arg)))
        << "coalesced marker points at no dispatched trace";
    EXPECT_NE(span->trace_id, static_cast<uint64_t>(span->arg))
        << "companion should reference the head's trace, not its own";
  }
}

TEST_F(ObsLiveTest, ClusterRerouteEmitsInstantInRequestTrace) {
  cluster::ClusterConfig config;
  config.initial_nodes = 2;
  cluster::ClusterDataplane dataplane(config, &authority_, &storage_,
                                      keyservice_.get());
  serverless::FunctionSpec spec;
  spec.name = "f";
  ASSERT_TRUE(dataplane.DeployFunction(spec).ok());

  // Find the home node with an untraced invocation, then poison its
  // dispatch probe so the traced request must reroute.
  {
    serverless::InvocationResult out =
        dataplane.InvokeAsync("f", BuildRequest()).get();
    ASSERT_TRUE(out.response.ok());
  }
  int home = -1;
  for (int i = 0; i < dataplane.total_nodes(); ++i) {
    if (dataplane.node_counters(i).routed.Value() > 0) home = i;
  }
  ASSERT_GE(home, 0);

  FaultConfig always_fail;
  always_fail.probability = 1.0;
  always_fail.error_code = StatusCode::kUnavailable;
  ScopedFault fault(cluster::NodeDispatchFaultPoint(home), always_fail);

  obs::Tracer::Reset();
  obs::Tracer::Enable();
  serverless::InvocationResult out =
      dataplane.InvokeAsync("f", BuildRequest(2)).get();
  ASSERT_TRUE(out.response.ok()) << out.response.status().ToString();
  obs::TraceSnapshot snapshot = WaitForSpans(obs::spans::kClusterReroute, 1);
  obs::Tracer::Disable();

  uint64_t route_trace = 0;
  for (const auto& span : snapshot.spans) {
    if (span.name != nullptr &&
        std::string(span.name) == obs::spans::kClusterRoute) {
      route_trace = span.trace_id;
    }
  }
  ASSERT_NE(route_trace, 0u);
  bool found = false;
  for (const auto& span : snapshot.spans) {
    if (span.name == nullptr ||
        std::string(span.name) != obs::spans::kClusterReroute) {
      continue;
    }
    found = true;
    EXPECT_EQ(span.trace_id, route_trace)
        << "reroute instant escaped the request's trace";
    ASSERT_STREQ(span.arg_name, "node");
    EXPECT_EQ(span.arg, home);
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsLiveTest, ClusterInvocationYieldsConnectedSpanTree) {
  cluster::ClusterConfig config;
  config.initial_nodes = 2;
  cluster::ClusterDataplane dataplane(config, &authority_, &storage_,
                                      keyservice_.get());
  serverless::FunctionSpec spec;
  spec.name = "f";
  ASSERT_TRUE(dataplane.DeployFunction(spec).ok());

  obs::Tracer::Reset();
  obs::Tracer::Enable();
  serverless::InvocationResult out =
      dataplane.InvokeAsync("f", BuildRequest()).get();
  ASSERT_TRUE(out.response.ok()) << out.response.status().ToString();
  WaitForSpans(obs::spans::kInference, 1);
  obs::TraceSnapshot snapshot = WaitForSpans(obs::spans::kDispatch, 1);
  obs::Tracer::Disable();

  std::map<uint64_t, const obs::SpanRecord*> by_id;
  std::map<std::string, const obs::SpanRecord*> by_name;
  for (const auto& span : snapshot.spans) {
    if (span.name == nullptr) continue;
    by_id[span.span_id] = &span;
    by_name[span.name] = &span;
  }

  // The advertised chain, bottom-up: every stage must be present and every
  // parent edge must resolve to a recorded span in the same trace, ending
  // at the cluster.route root.
  for (const char* name :
       {obs::spans::kClusterRoute, obs::spans::kPlatformSubmit,
        obs::spans::kDispatch, obs::spans::kColdStart, obs::spans::kRequest,
        obs::spans::kEcall, obs::spans::kKeyFetch, obs::spans::kHandshake,
        obs::spans::kModelLoad, obs::spans::kRuntimeInit, obs::spans::kDecrypt,
        obs::spans::kInference, obs::spans::kEncrypt}) {
    EXPECT_TRUE(by_name.count(name)) << "missing span: " << name;
  }
  ASSERT_TRUE(by_name.count(obs::spans::kClusterRoute));
  ASSERT_TRUE(by_name.count(obs::spans::kInference));
  const obs::SpanRecord* root = by_name[obs::spans::kClusterRoute];
  EXPECT_EQ(root->parent_id, 0u);

  const obs::SpanRecord* node = by_name[obs::spans::kInference];
  std::set<std::string> chain;
  int hops = 0;
  while (node->parent_id != 0 && hops++ < 32) {
    EXPECT_EQ(node->trace_id, root->trace_id) << node->name;
    // Stage spans are reconstructed backwards from component durations;
    // allow a little cross-clock slack at the root boundary.
    EXPECT_LE(root->start - 2000, node->start) << node->name;
    auto parent = by_id.find(node->parent_id);
    ASSERT_NE(parent, by_id.end())
        << node->name << " has an unrecorded parent span";
    node = parent->second;
    chain.insert(node->name);
  }
  EXPECT_EQ(node->span_id, root->span_id)
      << "walking parents from the inference stage must reach cluster.route";
  EXPECT_TRUE(chain.count(obs::spans::kEcall));
  EXPECT_TRUE(chain.count(obs::spans::kDispatch));
  EXPECT_TRUE(chain.count(obs::spans::kPlatformSubmit));

  // The same connected tree must survive export: every recorded span of the
  // request's trace appears in the Chrome JSON with its ids intact.
  const std::string json = obs::ToChromeTraceJson(snapshot);
  char trace_hex[32];
  std::snprintf(trace_hex, sizeof(trace_hex), "\"trace\":\"%llx\"",
                static_cast<unsigned long long>(root->trace_id));
  int exported = 0;
  for (size_t at = json.find(trace_hex); at != std::string::npos;
       at = json.find(trace_hex, at + 1)) {
    exported++;
  }
  int recorded = 0;
  for (const auto& span : snapshot.spans) recorded += span.trace_id == root->trace_id;
  EXPECT_EQ(exported, recorded);
  for (const char* name :
       {"cluster.route", "platform.dispatch", "semirt.ecall",
        "semirt.inference", "\"ph\":\"X\""}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  char parent_hex[32];
  std::snprintf(parent_hex, sizeof(parent_hex), "\"parent\":\"%llx\"",
                static_cast<unsigned long long>(root->span_id));
  EXPECT_NE(json.find(parent_hex), std::string::npos)
      << "route's children must reference its span id in the export";
}

TEST_F(ObsLiveTest, PlatformMetricsSurfaceInRegistry) {
  // Declared before the platform, so it outlives the platform's collector
  // (which deregisters from it in the platform's destructor).
  obs::MetricsRegistry registry;
  serverless::PlatformConfig config;
  serverless::ServerlessPlatform platform(config, &authority_, &storage_,
                                          keyservice_.get());
  serverless::FunctionSpec spec;
  spec.name = "f";
  ASSERT_TRUE(platform.DeployFunction(spec).ok());

  platform.RegisterMetrics(&registry, {{"node", "7"}});
  // Async path: this one goes through the scheduler, so the sched counters
  // move too.
  ASSERT_TRUE(platform.InvokeAsync("f", BuildRequest()).get().response.ok());

  double invocations = -1, cold_starts = -1;
  for (const obs::Sample& sample : registry.Snapshot()) {
    if (sample.name == "sesemi_platform_invocations_total") {
      invocations = sample.value;
      ASSERT_FALSE(sample.labels.empty());
      EXPECT_EQ(sample.labels.front().first, "node");
      EXPECT_EQ(sample.labels.front().second, "7");
    }
    if (sample.name == "sesemi_platform_cold_starts_total") {
      cold_starts = sample.value;
    }
  }
  EXPECT_DOUBLE_EQ(invocations, 1.0);
  EXPECT_DOUBLE_EQ(cold_starts, 1.0);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("sesemi_sched_dispatched_total{node=\"7\"} 1"),
            std::string::npos)
      << text;
}

// The exported metric contract on the stack e2ebench scrapes: a 2-node
// cluster with one RT lane per node, a batching function, and an FnPacker
// router on one registry. Pins every series name, its label keys, and how
// many labelled series it has, so a refactor of the counters behind the
// collectors cannot silently rename, drop, or relabel a series.
TEST_F(ObsLiveTest, ExportedMetricContractOnClusterStack) {
  obs::MetricsRegistry registry;
  cluster::ClusterConfig config;
  config.initial_nodes = 2;
  config.node.rt.enabled = true;
  config.node.rt.classes = 1;
  config.node.rt.executor.num_lanes = 1;
  cluster::ClusterDataplane dataplane(config, &authority_, &storage_,
                                      keyservice_.get());
  serverless::FunctionSpec spec;
  spec.name = "f";
  spec.sched.max_batch = 4;
  ASSERT_TRUE(dataplane.DeployFunction(spec).ok());
  fnpacker::FnPoolSpec pool;
  pool.models = {"m0"};
  pool.num_endpoints = 1;
  fnpacker::FnPackerRouter router(pool);
  dataplane.RegisterMetrics(&registry);
  router.RegisterMetrics(&registry);

  constexpr int kRequests = 4;
  for (int i = 0; i < kRequests; ++i) {
    Result<int> endpoint = router.Route("m0", i);
    ASSERT_TRUE(endpoint.ok());
    serverless::InvocationResult out =
        dataplane.InvokeAsync("f", BuildRequest(i + 1)).get();
    ASSERT_TRUE(out.response.ok()) << out.response.status().ToString();
    router.OnComplete("m0", *endpoint, i);
  }

  struct Series {
    std::string label_keys;  ///< comma-joined, in exposition order
    int count = 0;           ///< distinct labelled series under this name
  };
  std::map<std::string, Series> actual;
  std::map<std::string, double> totals;  ///< summed over labels
  for (const obs::Sample& sample : registry.Snapshot()) {
    std::string keys;
    for (const auto& [key, value] : sample.labels) {
      keys += (keys.empty() ? "" : ",") + key;
    }
    Series& series = actual[sample.name];
    if (series.count > 0) {
      EXPECT_EQ(series.label_keys, keys) << sample.name;
    }
    series.label_keys = keys;
    series.count++;
    totals[sample.name] += sample.value;
  }

  // Two nodes, three priority classes, 18 latency bounds plus +Inf.
  const std::map<std::string, Series> expected = {
      {"sesemi_cluster_active_nodes", {"", 1}},
      {"sesemi_cluster_home_hits_total", {"", 1}},
      {"sesemi_cluster_invocations_total", {"", 1}},
      {"sesemi_cluster_no_capacity_total", {"", 1}},
      {"sesemi_cluster_node_active", {"node", 2}},
      {"sesemi_cluster_node_containers", {"node", 2}},
      {"sesemi_cluster_node_healthy", {"node", 2}},
      {"sesemi_cluster_node_queue_depth", {"node", 2}},
      {"sesemi_cluster_node_routed_total", {"node", 2}},
      {"sesemi_cluster_node_rt_busy_lanes", {"node", 2}},
      {"sesemi_cluster_node_steal_wins_total", {"node", 2}},
      {"sesemi_cluster_reroutes_total", {"", 1}},
      {"sesemi_cluster_scale_downs_total", {"", 1}},
      {"sesemi_cluster_scale_ups_total", {"", 1}},
      {"sesemi_cluster_steals_total", {"", 1}},
      {"sesemi_platform_cold_starts_total", {"node", 2}},
      {"sesemi_platform_exec_seconds_bucket", {"node,class,le", 114}},
      {"sesemi_platform_exec_seconds_count", {"node,class", 6}},
      {"sesemi_platform_exec_seconds_sum", {"node,class", 6}},
      {"sesemi_platform_invocations_total", {"node", 2}},
      {"sesemi_platform_reaped_containers_total", {"node", 2}},
      {"sesemi_recovery_deadline_cuts_total", {"node", 2}},
      {"sesemi_recovery_enclave_failures_total", {"node", 2}},
      {"sesemi_recovery_quarantined_slots_total", {"node", 2}},
      {"sesemi_recovery_relaunch_backoffs_total", {"node", 2}},
      {"sesemi_recovery_relaunches_total", {"node", 2}},
      {"sesemi_recovery_retries_total", {"node", 2}},
      {"sesemi_recovery_shutdown_drops_total", {"node", 2}},
      {"sesemi_router_breaker_opens_total", {"", 1}},
      {"sesemi_router_breaker_rejections_total", {"", 1}},
      {"sesemi_router_model_switches_total", {"", 1}},
      {"sesemi_router_overflow_total", {"", 1}},
      {"sesemi_router_routed_total", {"", 1}},
      {"sesemi_rt_busy_lanes", {"node", 2}},
      {"sesemi_rt_dispatches_total", {"node", 2}},
      {"sesemi_rt_interactive_depth", {"node", 2}},
      {"sesemi_rt_lanes", {"node", 2}},
      {"sesemi_rt_tier_enabled", {"node", 2}},
      {"sesemi_sched_admitted_total", {"node", 2}},
      {"sesemi_sched_avg_batch_size", {"node", 2}},
      {"sesemi_sched_batches_total", {"node", 2}},
      {"sesemi_sched_deadline_drops_total", {"node", 2}},
      {"sesemi_sched_dispatched_total", {"node", 2}},
      {"sesemi_sched_policy_info", {"node,policy", 2}},
      {"sesemi_sched_queue_depth", {"node", 2}},
      {"sesemi_sched_rejected_total", {"node,reason", 6}},
      {"sesemi_sched_submitted_total", {"node", 2}},
      {"sesemi_sched_wait_seconds_bucket", {"node,class,le", 114}},
      {"sesemi_sched_wait_seconds_count", {"node,class", 6}},
      {"sesemi_sched_wait_seconds_sum", {"node,class", 6}},
  };
  std::set<std::string> expected_names, actual_names;
  for (const auto& [name, series] : expected) expected_names.insert(name);
  for (const auto& [name, series] : actual) actual_names.insert(name);
  EXPECT_EQ(actual_names, expected_names);
  for (const auto& [name, series] : expected) {
    auto it = actual.find(name);
    if (it == actual.end()) continue;  // reported by the name-set check
    EXPECT_EQ(it->second.label_keys, series.label_keys) << name;
    EXPECT_EQ(it->second.count, series.count) << name;
  }

  EXPECT_DOUBLE_EQ(totals["sesemi_cluster_invocations_total"], kRequests);
  EXPECT_DOUBLE_EQ(totals["sesemi_router_routed_total"], kRequests);
  EXPECT_DOUBLE_EQ(totals["sesemi_platform_invocations_total"], kRequests);
  EXPECT_DOUBLE_EQ(totals["sesemi_sched_dispatched_total"], kRequests);
  EXPECT_DOUBLE_EQ(totals["sesemi_sched_wait_seconds_count"], kRequests);
}

}  // namespace
}  // namespace sesemi
