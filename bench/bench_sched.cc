// Scheduler & admission-control sweep (multi-tenant): demonstrates the three
// properties the src/sched subsystem exists for, as JSON lines suitable for
// the BENCH_sched.json trajectory artifact (docs/BENCHMARKS.md):
//  (a) fairness — two functions with 2:1 weights under a saturated, equally
//      skewed Poisson backlog: WeightedFair delivers completions ~2:1 while
//      Fifo follows the 1:1 arrival interleave;
//  (b) batching — same-model coalescing onto one enclave entry + multi-row
//      GEMM: avg batch size > 1 and higher inv/s than max_batch=1 at >= 8
//      queued same-model requests;
//  (c) admission — token-bucket drops and strict priority classes visible in
//      the scheduler's counters (typed rejects) and the requests' per-class
//      queue waits.
//
// Flags: --quick shrinks request counts (CI / TSan smoke);
// --overhead-check runs ONLY a tracing-overhead probe — alternating
// disabled/enabled warm same-model bursts in one process — and emits a
// single JSON line with inv/s for both modes (CI asserts <= 5% delta);
// --isolation-check runs ONLY the execution-tier isolation probe —
// alternating shared/RT pairs under bulk saturation — and emits one JSON
// line of medians over the pairs (CI asserts p99_ratio <= 0.5 and
// bulk_regression_pct <= 10).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/faultpoint.h"
#include "serverless/platform.h"
#include "workload/generators.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace sesemi::bench {
namespace {

bool g_quick = false;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct Rig {
  explicit Rig(serverless::PlatformConfig config, double scale = 0.002)
      : live(scale, /*input_hw=*/16) {
    graph = &live.DeployModel(model::Architecture::kMbNet);
    options.num_tcs = 8;
    live.Authorize(model::Architecture::kMbNet, options);
    platform = std::make_unique<serverless::ServerlessPlatform>(
        config, &live.authority(), &live.storage(), live.keyservice());
  }

  bool Deploy(const std::string& name, const sched::FunctionSchedParams& params) {
    serverless::FunctionSpec spec;
    spec.name = name;
    spec.options = options;
    spec.sched = params;
    return platform->DeployFunction(spec).ok();
  }

  Result<semirt::InferenceRequest> Request(uint64_t seed) {
    const sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(options);
    Bytes input = model::GenerateRandomInput(*graph, seed);
    return live.user().BuildRequest(model::ToString(model::Architecture::kMbNet),
                                    input, &es);
  }

  /// Deploy a second, much lighter model ("light") beside the rig's kMbNet:
  /// the isolation section pairs a heavy bulk model with a cheap interactive
  /// one, the workload shape the RT tier targets.
  bool DeployLightModel(double light_scale) {
    auto ks_client = client::KeyServiceClient::Connect(
        live.keyservice(), &live.authority(),
        keyservice::KeyServiceEnclave::ExpectedMeasurement());
    if (!ks_client.ok()) return false;
    model::ZooSpec spec;
    spec.model_id = "light";
    spec.scale = light_scale;
    spec.input_hw = 16;
    auto built = model::BuildModel(spec);
    if (!built.ok()) return false;
    light_graph = std::move(*built);
    const sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(options);
    return live.owner()
               .DeployModel(ks_client->get(), &live.storage(), light_graph,
                            /*with_plaintext_copy=*/true)
               .ok() &&
           live.owner()
               .GrantAccess(ks_client->get(), "light", es, live.user().id())
               .ok() &&
           live.user().ProvisionRequestKey(ks_client->get(), "light", es).ok();
  }

  Result<semirt::InferenceRequest> LightRequest(uint64_t seed) {
    const sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(options);
    Bytes input = model::GenerateRandomInput(light_graph, seed);
    return live.user().BuildRequest("light", input, &es);
  }

  LiveRig live;
  const model::ModelGraph* graph = nullptr;
  model::ModelGraph light_graph;
  semirt::SemirtOptions options;
  std::unique_ptr<serverless::ServerlessPlatform> platform;
};

void FairnessSection() {
  PrintSection("(a) weighted fairness — 2 functions, weights 2:1, saturated");
  const int per_fn = g_quick ? 24 : 60;

  // Equal-rate Poisson tenants: the *arrival* interleave is ~1:1, so any
  // completion skew comes from the scheduler, not the offered load.
  std::vector<workload::TenantSpec> tenants = {
      {"fn-heavy", "bench-user", 50.0},
      {"fn-light", "bench-user", 50.0},
  };

  for (sched::PolicyKind policy :
       {sched::PolicyKind::kFifo, sched::PolicyKind::kWeightedFair}) {
    serverless::PlatformConfig config;
    config.max_inflight = 4;  // one dispatcher: dispatch order == pop order
    config.scheduler.policy = policy;
    Rig rig(config);

    sched::FunctionSchedParams heavy;
    heavy.weight = 2.0;
    sched::FunctionSchedParams light;
    light.weight = 1.0;
    if (!rig.Deploy("fn-heavy", heavy) || !rig.Deploy("fn-light", light)) return;

    // Warm both containers outside the measured backlog.
    for (const char* fn : {"fn-heavy", "fn-light"}) {
      auto request = rig.Request(1);
      if (!request.ok()) return;
      (void)rig.platform->Invoke(fn, *request);
    }

    // Build the saturated backlog in Poisson arrival order, then release.
    std::map<std::string, int> submitted;
    rig.platform->PauseDispatch();
    std::vector<std::pair<std::string, std::future<serverless::InvocationResult>>>
        futures;
    const std::vector<workload::Arrival> trace =
        workload::MultiTenantPoisson(tenants, /*duration_s=*/60.0, /*seed=*/7);
    for (const workload::Arrival& arrival : trace) {
      if (submitted[arrival.model_id] >= per_fn) continue;
      auto request = rig.Request(submitted[arrival.model_id] + 2);
      if (!request.ok()) return;
      submitted[arrival.model_id]++;
      futures.emplace_back(
          arrival.model_id,
          rig.platform->InvokeAsync(arrival.model_id, std::move(*request)));
    }
    rig.platform->ResumeDispatch();

    std::vector<std::pair<uint64_t, std::string>> dispatches;
    for (auto& [fn, future] : futures) {
      serverless::InvocationResult result = future.get();
      if (result.response.ok()) {
        dispatches.emplace_back(result.dispatch_seq, fn);
      }
    }
    std::sort(dispatches.begin(), dispatches.end());
    // Count completions within the both-backlogged window (first per_fn
    // dispatches): that is where the weight ratio is the prediction.
    std::map<std::string, int> window_count;
    for (int i = 0; i < per_fn && i < static_cast<int>(dispatches.size()); ++i) {
      window_count[dispatches[i].second]++;
    }
    const int heavy_n = window_count["fn-heavy"];
    const int light_n = window_count["fn-light"];
    const double ratio = light_n > 0 ? static_cast<double>(heavy_n) / light_n : 0.0;
    std::printf(
        "{\"bench\":\"sched\",\"section\":\"fairness\",\"policy\":\"%s\","
        "\"weights\":{\"fn-heavy\":2,\"fn-light\":1},\"dispatch_window\":%d,"
        "\"completions\":{\"fn-heavy\":%d,\"fn-light\":%d},\"ratio\":%.2f,"
        "\"target_ratio\":2.0}\n",
        sched::ToString(policy), per_fn, heavy_n, light_n, ratio);
  }
  std::printf(
      "(shape check: wfq ratio within 15%% of 2.0; fifo tracks the ~1:1\n"
      " arrival interleave instead)\n");
}

void BatchingSection() {
  PrintSection("(b) same-model batching — one enclave entry per batch");
  const int requests = g_quick ? 24 : 64;

  for (int max_batch : {1, 8}) {
    serverless::PlatformConfig config;
    config.max_inflight = 2;
    // Larger scale than the fairness section: the zoo's classifier head
    // absorbs the model-size target, so this makes the Dense layers (where
    // the batch dimension becomes one M=batch GEMM instead of `batch`
    // weight-streaming GEMVs) the dominant per-request cost.
    Rig rig(config, /*scale=*/0.05);
    sched::FunctionSchedParams params;
    params.max_batch = max_batch;
    if (!rig.Deploy("fn-batch", params)) return;

    // Warm-up: provision the container, the TCS runtime, and (for the
    // batched config) the runtime's cached batch arena — the measured round
    // is the steady state, as in the other live sweeps. Queue waits are
    // kept from both rounds.
    std::vector<double> waits;
    auto drain_burst = [&](bool measured, double* wall_out, int* ok_out,
                           int* max_seen_out) {
      rig.platform->PauseDispatch();
      std::vector<std::future<serverless::InvocationResult>> futures;
      for (int i = 0; i < requests; ++i) {
        auto request = rig.Request(static_cast<uint64_t>(i % 8) + 2);
        if (!request.ok()) return false;
        futures.push_back(
            rig.platform->InvokeAsync("fn-batch", std::move(*request)));
      }
      const auto start = std::chrono::steady_clock::now();
      rig.platform->ResumeDispatch();
      int ok = 0, max_seen = 0;
      for (auto& future : futures) {
        serverless::InvocationResult result = future.get();
        if (result.response.ok()) ok++;
        max_seen = std::max(max_seen, result.batch_size);
        waits.push_back(static_cast<double>(result.queue_wait));
      }
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count();
      if (measured) {
        *wall_out = wall_s;
        *ok_out = ok;
        *max_seen_out = max_seen;
      }
      return true;
    };

    double wall_s = 0.0;
    int ok = 0, max_seen = 0;
    if (!drain_burst(/*measured=*/false, &wall_s, &ok, &max_seen)) return;
    if (!drain_burst(/*measured=*/true, &wall_s, &ok, &max_seen)) return;

    std::printf(
        "{\"bench\":\"sched\",\"section\":\"batching\",\"max_batch\":%d,"
        "\"requests\":%d,\"ok\":%d,\"wall_s\":%.4f,\"inv_per_s\":%.1f,"
        "\"avg_batch\":%.2f,\"max_batch_seen\":%d,\"p50_wait_us\":%lld,"
        "\"p99_wait_us\":%lld}\n",
        max_batch, requests, ok, wall_s,
        wall_s > 0 ? ok / wall_s : 0.0,
        rig.platform->scheduler().counters().avg_batch_size(), max_seen,
        static_cast<long long>(PercentileUs(waits, 50.0)),
        static_cast<long long>(PercentileUs(waits, 99.0)));
  }
  std::printf(
      "(shape check: max_batch=8 shows avg_batch > 1 and higher inv_per_s\n"
      " than max_batch=1 — one TCS slot, one ecall, one key/model setup and\n"
      " a multi-row Dense GEMM per batch instead of per request)\n");
}

void AdmissionSection() {
  PrintSection("(c) admission — token-bucket drops and priority classes");

  // Rate limiting: a burst far beyond the bucket must reject (typed), not
  // block. Burst 8 at 50 rps: ~8 admits, the rest ResourceExhausted.
  {
    serverless::PlatformConfig config;
    Rig rig(config);
    sched::FunctionSchedParams params;
    params.rate_per_s = 50.0;
    params.burst = 8.0;
    if (!rig.Deploy("fn-limited", params)) return;

    const int burst = g_quick ? 16 : 32;
    rig.platform->PauseDispatch();
    std::vector<std::future<serverless::InvocationResult>> futures;
    for (int i = 0; i < burst; ++i) {
      auto request = rig.Request(2);
      if (!request.ok()) return;
      futures.push_back(
          rig.platform->InvokeAsync("fn-limited", std::move(*request)));
    }
    rig.platform->ResumeDispatch();
    int ok = 0, rejected = 0;
    for (auto& future : futures) {
      serverless::InvocationResult result = future.get();
      result.response.ok() ? ok++ : rejected++;
    }
    const sched::AdmissionCounters& admission =
        rig.platform->scheduler().admission_counters();
    std::printf(
        "{\"bench\":\"sched\",\"section\":\"admission\",\"burst\":%d,"
        "\"bucket\":8,\"ok\":%d,\"rejected\":%d,\"rejected_rate\":%llu,"
        "\"rejected_depth\":%llu}\n",
        burst, ok, rejected,
        static_cast<unsigned long long>(admission.rejected_rate.Value()),
        static_cast<unsigned long long>(admission.rejected_depth.Value()));
  }

  // Priority classes: a paused backlog of P2 work plus late-arriving P0 work;
  // P0 must dispatch first (lower queue wait despite arriving later).
  {
    serverless::PlatformConfig config;
    config.max_inflight = 4;
    Rig rig(config);
    if (!rig.Deploy("fn-prio", {})) return;
    {
      auto request = rig.Request(1);
      if (!request.ok()) return;
      (void)rig.platform->Invoke("fn-prio", *request);
    }

    const int per_class = g_quick ? 8 : 16;
    rig.platform->PauseDispatch();
    std::vector<std::future<serverless::InvocationResult>> futures;
    for (int i = 0; i < per_class; ++i) {
      auto request = rig.Request(2);
      if (!request.ok()) return;
      serverless::InvokeOptions low;
      low.priority = 2;
      futures.push_back(
          rig.platform->InvokeAsync("fn-prio", std::move(*request), low));
    }
    for (int i = 0; i < per_class; ++i) {
      auto request = rig.Request(3);
      if (!request.ok()) return;
      serverless::InvokeOptions high;
      high.priority = 0;
      futures.push_back(
          rig.platform->InvokeAsync("fn-prio", std::move(*request), high));
    }
    rig.platform->ResumeDispatch();
    uint64_t p0_last_dispatch = 0, p2_first_dispatch = ~0ull;
    std::vector<double> p0_waits, p2_waits;
    for (size_t i = 0; i < futures.size(); ++i) {
      serverless::InvocationResult result = futures[i].get();
      const bool p2 = i < static_cast<size_t>(per_class);
      const double wait = static_cast<double>(result.queue_wait);
      (p2 ? p2_waits : p0_waits).push_back(wait);
      if (!result.response.ok()) continue;
      if (p2) {
        p2_first_dispatch = std::min(p2_first_dispatch, result.dispatch_seq);
      } else {
        p0_last_dispatch = std::max(p0_last_dispatch, result.dispatch_seq);
      }
    }
    std::printf(
        "{\"bench\":\"sched\",\"section\":\"priority\",\"per_class\":%d,"
        "\"p0_last_dispatch\":%llu,\"p2_first_dispatch\":%llu,"
        "\"p0_wait_p50_us\":%lld,\"p2_wait_p50_us\":%lld}\n",
        per_class, static_cast<unsigned long long>(p0_last_dispatch),
        static_cast<unsigned long long>(p2_first_dispatch),
        static_cast<long long>(PercentileUs(p0_waits, 50.0)),
        static_cast<long long>(PercentileUs(p2_waits, 50.0)));
    std::printf(
        "(shape check: every P0 dispatch precedes the first P2 dispatch)\n");
  }
}

void RecoverySection() {
  PrintSection("(d) recovery — seeded ~2% faults, then fault-free throughput");
  const int chaos_n = g_quick ? 40 : 120;
  const int wave_n = g_quick ? 24 : 60;

  serverless::PlatformConfig config;
  config.recovery.retry.max_attempts = 3;
  config.recovery.retry.backoff_base_micros = 50;
  config.recovery.retry.backoff_max_micros = 500;
  config.recovery.relaunch_backoff_base_micros = 100;
  config.recovery.relaunch_backoff_max_micros = 1000;
  Rig rig(config);
  if (!rig.Deploy("fn-chaos", {})) return;
  {
    auto request = rig.Request(1);
    if (!request.ok()) return;
    (void)rig.platform->Invoke("fn-chaos", *request);
  }

  FaultInjector::Instance().DisarmAll();
  FaultInjector::Instance().Reseed(0xc4a05);
  FaultConfig poison;
  poison.probability = 0.05;
  poison.error_code = StatusCode::kInternal;
  FaultInjector::Instance().Arm(faults::kEcallEnter, poison);
  FaultConfig transient;
  transient.probability = 0.05;
  transient.error_code = StatusCode::kUnavailable;
  FaultInjector::Instance().Arm(faults::kStorageGet, transient);

  int chaos_errors = 0;
  {
    std::vector<std::future<serverless::InvocationResult>> futures;
    for (int i = 0; i < chaos_n; ++i) {
      auto request = rig.Request(static_cast<uint64_t>(i + 2));
      if (!request.ok()) return;
      futures.push_back(
          rig.platform->InvokeAsync("fn-chaos", std::move(*request)));
    }
    for (auto& future : futures) {
      if (!future.get().response.ok()) chaos_errors++;
    }
  }
  FaultInjector::Instance().DisarmAll();

  // Recovered throughput: fault-free wave after the chaos phase; quarantined
  // enclaves must have relaunched, so every request lands and inv/s is the
  // healthy platform's rate.
  int wave_ok = 0;
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::future<serverless::InvocationResult>> futures;
    for (int i = 0; i < wave_n; ++i) {
      auto request = rig.Request(static_cast<uint64_t>(i + 2));
      if (!request.ok()) return;
      futures.push_back(
          rig.platform->InvokeAsync("fn-chaos", std::move(*request)));
    }
    for (auto& future : futures) {
      if (future.get().response.ok()) wave_ok++;
    }
  }
  const double wave_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const serverless::PlatformCounters& rs = rig.platform->counters();
  std::printf(
      "{\"bench\":\"sched\",\"section\":\"recovery\",\"chaos_requests\":%d,"
      "\"error_rate\":%.4f,\"recovered_per_s\":%.1f,\"wave_ok\":%d,"
      "\"wave_n\":%d,\"retries\":%llu,\"enclave_failures\":%llu,"
      "\"relaunches\":%llu,\"quarantined_slots\":%llu}\n",
      chaos_n, static_cast<double>(chaos_errors) / chaos_n,
      wave_s > 0 ? wave_ok / wave_s : 0.0, wave_ok, wave_n,
      static_cast<unsigned long long>(rs.retries.Value()),
      static_cast<unsigned long long>(rs.enclave_failures.Value()),
      static_cast<unsigned long long>(rs.relaunches.Value()),
      static_cast<unsigned long long>(rs.quarantined_slots.Value()));
  std::printf(
      "(shape check: error_rate well under the summed fault rates — retries\n"
      " absorb transient faults; wave_ok == wave_n once faults stop)\n");
}

void OverheadSection() {
  PrintSection("tracing overhead — alternating disabled/enabled warm bursts");
  // Bursts must be long enough (hundreds of ms) that scheduler jitter and
  // short external hiccups average out instead of swamping the per-span cost.
  const int requests = g_quick ? 8192 : 16384;
  const int pairs = 5;

  serverless::PlatformConfig config;
  config.max_inflight = 4;
  // Admit every burst whole. Under the default backlog bound (256 x the
  // in-flight window = 1024) a submitter faster than the drain sheds part of
  // a burst with ResourceExhausted.
  config.scheduler.limits.max_queued = requests;
  Rig rig(config);
  if (!rig.Deploy("fn-overhead", {})) return;

  // A failed request fails the probe: say why and exit non-zero, so a caller
  // never reads a missing overhead_pct as a measurement.
  auto check = [](const Status& status) {
    if (status.ok()) return;
    std::fprintf(stderr, "overhead probe: burst request failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  };
  auto burst = [&](int count) -> double {
    std::vector<std::future<serverless::InvocationResult>> futures;
    futures.reserve(count);
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < count; ++i) {
      auto request = rig.Request(static_cast<uint64_t>(i % 8) + 2);
      check(request.status());
      futures.push_back(
          rig.platform->InvokeAsync("fn-overhead", std::move(*request)));
    }
    for (auto& future : futures) check(future.get().response.status());
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  // Warm-up: container + every runtime slot touched before any measurement.
  burst(requests);

  // Alternating in-process pairs so frequency scaling / cache state hits both
  // modes equally. Each pair runs both modes back-to-back, so its delta
  // cancels slow drift; the order within a pair flips each iteration so a
  // decaying background load cannot systematically penalize one mode; the
  // median across pairs discards windows where an external hiccup landed on
  // a single burst in either direction. Rings are reset and re-warmed with a
  // small enabled burst before each measured pair, so no measured window
  // pays ring allocation, page faults, or overflow.
  std::vector<double> off_walls, on_walls, deltas;
  for (int i = 0; i < pairs; ++i) {
    obs::Tracer::Reset(1 << 18);
    obs::Tracer::Enable();
    burst(256);  // allocate per-thread rings off the clock
    double on = -1.0, off = -1.0;
    if (i % 2 == 0) {
      on = burst(requests);
      obs::Tracer::Disable();
      off = burst(requests);
    } else {
      obs::Tracer::Disable();
      off = burst(requests);
      obs::Tracer::Enable();
      on = burst(requests);
      obs::Tracer::Disable();
    }
    off_walls.push_back(off);
    on_walls.push_back(on);
    deltas.push_back((1.0 - off / on) * 100.0);
  }
  obs::Tracer::Reset();

  const double inv_disabled = requests / Median(off_walls);
  const double inv_enabled = requests / Median(on_walls);
  const double overhead_pct = Median(deltas);
  std::printf(
      "{\"bench\":\"sched\",\"section\":\"overhead\",\"requests\":%d,"
      "\"pairs\":%d,\"inv_per_s_disabled\":%.1f,\"inv_per_s_enabled\":%.1f,"
      "\"overhead_pct\":%.2f}\n",
      requests, pairs, inv_disabled, inv_enabled, overhead_pct);
  std::printf(
      "(shape check: overhead_pct <= 5 — the tracing budget in\n"
      " docs/ARCHITECTURE.md \"Observability\")\n");
}

struct IsolationRun {
  double interactive_p50_us = 0;
  double interactive_p99_us = 0;
  double bulk_inv_per_s = 0;
  bool ok = false;
};

/// Elevate the calling (measuring) thread to SCHED_FIFO just below the RT
/// lanes' priority for the duration of a run. A real interactive client is a
/// separate machine; in-process, an un-elevated observer's own wakeup
/// latency under a saturated CPU would otherwise dominate the p99 of BOTH
/// modes and drown the signal. Applied symmetrically to the shared and RT
/// runs; quietly a no-op where the container forbids it (the CI gate is
/// retry-tolerant for that noisier case).
class ScopedObserverPriority {
 public:
  ScopedObserverPriority() {
#if defined(__linux__)
    pthread_getschedparam(pthread_self(), &old_policy_, &old_param_);
    sched_param param{};
    param.sched_priority = 39;  // below the lanes' 40: never preempts them
    elevated_ =
        pthread_setschedparam(pthread_self(), SCHED_FIFO, &param) == 0;
#endif
  }
  ~ScopedObserverPriority() {
#if defined(__linux__)
    if (elevated_) {
      pthread_setschedparam(pthread_self(), old_policy_, &old_param_);
    }
#endif
  }

 private:
#if defined(__linux__)
  int old_policy_ = 0;
  sched_param old_param_{};
#endif
  bool elevated_ = false;
};

// One saturated run: a producer thread keeps a fixed window of heavy bulk
// requests in flight for the whole measurement — sustained saturation, not a
// transient burst that the pool drains before interactive traffic arrives —
// while cheap interactive (class 0) requests trickle in. With the RT tier
// the interactive class bypasses pool and batcher onto dedicated lanes;
// without it interactive latency inherits the dispatch-window occupancy of
// the backlog. Bulk throughput is completions/s over the same wall window in
// both modes, so the regression comparison is like-for-like.
IsolationRun RunIsolation(bool rt_enabled) {
  IsolationRun out;
  const int interactive_n = g_quick ? 16 : 32;
  const int producers_n = 3;
  const int per_producer_inflight = 16;
  const auto measure_window = std::chrono::milliseconds(g_quick ? 300 : 600);

  serverless::PlatformConfig config;
  // A single dispatch-window slot: the saturation regime the tier is for is
  // "every shared dispatcher is occupied by a bulk batch". One slot makes
  // that regime hold by construction on any core count (the CI runner and
  // dev boxes differ wildly), instead of only when offered load happens to
  // beat 2x ParallelismDegree().
  config.max_inflight = 1;
  if (rt_enabled) {
    config.rt.enabled = true;
    config.rt.classes = 1;
    config.rt.executor.num_lanes = 1;
    // Privileged knobs degrade to unpinned lanes without CAP_SYS_NICE.
    config.rt.executor.pin_threads = true;
    config.rt.executor.elevate_priority = true;
  }
  // Heavy bulk model (see BatchingSection), cheap interactive model: the
  // workload split the tier exists for.
  Rig rig(config, /*scale=*/0.05);
  if (!rig.DeployLightModel(/*light_scale=*/0.002)) return out;
  // Wide batches: each dispatch occupies its slot for the whole multi-row
  // enclave entry, which is exactly the occupancy interactive requests queue
  // behind on the shared path.
  sched::FunctionSchedParams bulk_params;
  bulk_params.priority = 1;
  bulk_params.max_batch = 16;
  sched::FunctionSchedParams rt_params;
  rt_params.priority = 0;
  if (!rig.Deploy("fn-bulk", bulk_params) || !rig.Deploy("fn-rt", rt_params)) {
    return out;
  }
  // Warm both containers (and the RT lane's first dispatch) off the clock.
  {
    auto bulk_request = rig.Request(1);
    if (!bulk_request.ok()) return out;
    (void)rig.platform->Invoke("fn-bulk", *bulk_request);
    auto rt_request = rig.LightRequest(1);
    if (!rt_request.ok()) return out;
    (void)rig.platform->Invoke("fn-rt", *rt_request);
  }

  // Pre-built request templates: the producer must never touch the client
  // concurrently with the interactive loop (BuildRequest is not synchronized).
  std::vector<semirt::InferenceRequest> templates;
  for (uint64_t seed = 2; seed < 10; ++seed) {
    auto request = rig.Request(seed);
    if (!request.ok()) return out;
    templates.push_back(std::move(*request));
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> bulk_failed{false};
  std::atomic<uint64_t> bulk_done{0};
  // Several producers, each holding a bounded in-flight window: one of them
  // (whoever grabbed the single dispatch slot) becomes the de-facto
  // dispatcher while the rest keep the backlog topped up, so batches
  // coalesce deep and the slot never idles.
  std::vector<std::thread> producers;
  producers.reserve(producers_n);
  for (int p = 0; p < producers_n; ++p) {
    producers.emplace_back([&, p] {
      std::deque<std::future<serverless::InvocationResult>> inflight;
      uint64_t seq = static_cast<uint64_t>(p);
      while (!stop.load(std::memory_order_relaxed)) {
        while (static_cast<int>(inflight.size()) < per_producer_inflight) {
          semirt::InferenceRequest copy = templates[seq++ % templates.size()];
          inflight.push_back(
              rig.platform->InvokeAsync("fn-bulk", std::move(copy)));
        }
        if (!inflight.front().get().response.ok()) {
          bulk_failed.store(true, std::memory_order_relaxed);
        }
        inflight.pop_front();
        bulk_done.fetch_add(1, std::memory_order_relaxed);
      }
      for (auto& future : inflight) {
        if (!future.get().response.ok()) {
          bulk_failed.store(true, std::memory_order_relaxed);
        }
        bulk_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Let the backlog establish before the measured window opens.
  while (bulk_done.load(std::memory_order_relaxed) <
         static_cast<uint64_t>(producers_n * per_producer_inflight)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto window_t0 = std::chrono::steady_clock::now();
  const uint64_t window_d0 = bulk_done.load(std::memory_order_relaxed);

  ScopedObserverPriority observer_priority;
  bool interactive_failed = false;
  std::vector<double> interactive_us;
  interactive_us.reserve(interactive_n);
  for (int i = 0; i < interactive_n; ++i) {
    auto request = rig.LightRequest(static_cast<uint64_t>(i % 8) + 2);
    if (!request.ok()) {
      interactive_failed = true;
      break;
    }
    const auto start = std::chrono::steady_clock::now();
    serverless::InvocationResult result =
        rig.platform->InvokeAsync("fn-rt", std::move(*request)).get();
    if (!result.response.ok()) {
      interactive_failed = true;
      break;
    }
    interactive_us.push_back(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count());
    // Spread arrivals across the saturated window instead of measuring one
    // back-to-back clump.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  std::this_thread::sleep_until(window_t0 + measure_window);
  const uint64_t window_d1 = bulk_done.load(std::memory_order_relaxed);
  const double window_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    window_t0)
          .count();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : producers) t.join();
  if (interactive_failed || bulk_failed.load(std::memory_order_relaxed)) {
    return out;
  }

  std::sort(interactive_us.begin(), interactive_us.end());
  auto pct = [&](double p) {
    const double rank = p / 100.0 * (interactive_us.size() - 1);
    return interactive_us[static_cast<size_t>(rank + 0.5)];
  };
  out.interactive_p50_us = pct(50.0);
  out.interactive_p99_us = pct(99.0);
  out.bulk_inv_per_s =
      window_s > 0 ? static_cast<double>(window_d1 - window_d0) / window_s : 0.0;
  out.ok = true;
  return out;
}

void IsolationSection() {
  PrintSection("(e) execution tiers — interactive p99 under bulk saturation");
  // Alternating pairs in one process, as in OverheadSection: each pair runs
  // both configurations back to back, the order flips every pair so drift
  // cannot favour the mode that runs first, and the medians across pairs
  // discard a window that an external hiccup landed on. The CI gate still
  // retries the whole binary on transient noise.
  const int pairs = g_quick ? 3 : 5;
  std::vector<IsolationRun> shared_runs, rt_runs;
  std::vector<double> ratios, regressions;
  for (int i = 0; i < pairs; ++i) {
    IsolationRun shared, rt;
    if (i % 2 == 0) {
      shared = RunIsolation(/*rt_enabled=*/false);
      rt = RunIsolation(/*rt_enabled=*/true);
    } else {
      rt = RunIsolation(/*rt_enabled=*/true);
      shared = RunIsolation(/*rt_enabled=*/false);
    }
    if (!shared.ok || !rt.ok) {
      std::printf("(isolation section failed to complete; skipping line)\n");
      return;
    }
    ratios.push_back(shared.interactive_p99_us > 0
                         ? rt.interactive_p99_us / shared.interactive_p99_us
                         : 0.0);
    regressions.push_back(
        shared.bulk_inv_per_s > 0
            ? (1.0 - rt.bulk_inv_per_s / shared.bulk_inv_per_s) * 100.0
            : 0.0);
    shared_runs.push_back(shared);
    rt_runs.push_back(rt);
  }
  auto median_of = [](const std::vector<IsolationRun>& runs,
                      double IsolationRun::*field) {
    std::vector<double> values;
    for (const IsolationRun& run : runs) values.push_back(run.*field);
    return Median(std::move(values));
  };
  std::printf("medians over %d alternating pairs:\n", pairs);
  std::printf(
      "{\"bench\":\"sched\",\"section\":\"isolation\","
      "\"interactive_p50_rt_us\":%.0f,\"interactive_p99_rt_us\":%.0f,"
      "\"interactive_p50_shared_us\":%.0f,\"interactive_p99_shared_us\":%.0f,"
      "\"p99_ratio\":%.3f,\"bulk_inv_per_s_rt\":%.1f,"
      "\"bulk_inv_per_s_shared\":%.1f,\"bulk_regression_pct\":%.1f}\n",
      median_of(rt_runs, &IsolationRun::interactive_p50_us),
      median_of(rt_runs, &IsolationRun::interactive_p99_us),
      median_of(shared_runs, &IsolationRun::interactive_p50_us),
      median_of(shared_runs, &IsolationRun::interactive_p99_us), Median(ratios),
      median_of(rt_runs, &IsolationRun::bulk_inv_per_s),
      median_of(shared_runs, &IsolationRun::bulk_inv_per_s),
      Median(regressions));
  std::printf(
      "(shape check: p99_ratio <= 0.5 — the execution-tier bound in\n"
      " docs/ARCHITECTURE.md \"Execution tiers\"; bulk_regression_pct <= 10)\n");
}

}  // namespace
}  // namespace sesemi::bench

int main(int argc, char** argv) {
  bool overhead_check = false;
  bool isolation_check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) sesemi::bench::g_quick = true;
    if (std::strcmp(argv[i], "--overhead-check") == 0) overhead_check = true;
    if (std::strcmp(argv[i], "--isolation-check") == 0) isolation_check = true;
  }
  if (overhead_check) {
    sesemi::bench::PrintHeader("Scheduler — tracing overhead probe");
    sesemi::bench::OverheadSection();
    return 0;
  }
  if (isolation_check) {
    sesemi::bench::PrintHeader("Scheduler — execution-tier isolation probe");
    sesemi::bench::IsolationSection();
    return 0;
  }
  sesemi::bench::PrintHeader(
      "Scheduler — weighted fairness, same-model batching, admission control");
  sesemi::bench::FairnessSection();
  sesemi::bench::BatchingSection();
  sesemi::bench::AdmissionSection();
  sesemi::bench::RecoverySection();
  sesemi::bench::IsolationSection();
  return 0;
}
