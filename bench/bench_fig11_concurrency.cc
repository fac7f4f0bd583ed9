// Reproduces Figure 11: average hot-invocation latency versus the number of
// concurrent requests.
//  (a) SGX2: CPU-bound — latency rises once concurrency exceeds the 12
//      physical cores; TVM-RSNET/DSNET rise fastest.
//  (b) SGX1 (MBNET): EPC-bound — latency rises when total enclave memory
//      exceeds the 128 MB EPC; TVM hits the wall before TFLM, and 4 threads
//      in one enclave (TVM-4/TFLM-4) beats 4 separate enclaves.
//  (c) Live: actually-concurrent warm invocations through
//      ServerlessPlatform::InvokeAsync on the process fork-join pool —
//      sweeps the in-flight window 1..32 and reports invocations/s plus
//      p50/p99 service latency as one JSON line per point (the measured
//      counterpart of the calibrated curves in (a)/(b)).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/faultpoint.h"
#include "serverless/platform.h"
#include "sim/cluster.h"

namespace sesemi::bench {
namespace {

double AvgLatencyAtConcurrency(const sim::CostModel& cm,
                               inference::FrameworkKind framework,
                               model::Architecture arch, int concurrent,
                               int tcs_per_enclave) {
  sim::SimConfig config;
  config.num_nodes = 1;
  config.cost_model = cm;
  sim::ClusterSim sim(config);
  sim::SimFunction fn;
  fn.name = "f";
  fn.framework = framework;
  fn.arch = arch;
  fn.num_tcs = tcs_per_enclave;
  sim.AddFunction(fn);
  int containers = (concurrent + tcs_per_enclave - 1) / tcs_per_enclave;
  if (!sim.Prewarm("f", containers, "m0", "u0").ok()) return -1;
  for (int i = 0; i < concurrent; ++i) {
    sim.Submit("f", "m0", "u0", SecondsToMicros(1));
  }
  sim.Run();
  return sim.metrics().AvgLatencySeconds();
}

void Sgx2Section() {
  PrintSection("(a) SGX2 — avg latency (s) vs #concurrent requests, 12 cores");
  const std::vector<Combo> combos = {
      {inference::FrameworkKind::kTvm, model::Architecture::kMbNet, "TVM-MBNET"},
      {inference::FrameworkKind::kTvm, model::Architecture::kRsNet, "TVM-RSNET"},
      {inference::FrameworkKind::kTvm, model::Architecture::kDsNet, "TVM-DSNET"},
      {inference::FrameworkKind::kTflm, model::Architecture::kMbNet, "TFLM-MBNET"},
      {inference::FrameworkKind::kTflm, model::Architecture::kDsNet, "TFLM-DSNET"},
  };
  sim::CostModel cm = sim::CostModel::PaperSgx2();
  std::printf("%-12s", "concurrent");
  for (const auto& c : combos) std::printf(" %11s", c.label);
  std::printf("\n");
  for (int k : {1, 2, 4, 8, 12, 16, 24, 32}) {
    std::printf("%-12d", k);
    for (const auto& c : combos) {
      std::printf(" %11.3f",
                  AvgLatencyAtConcurrency(cm, c.framework, c.arch, k, /*tcs=*/32));
    }
    std::printf("\n");
  }
  std::printf("(shape check: flat until ~12 (cores), then linear growth)\n");
}

void Sgx1Section() {
  PrintSection("(b) SGX1, MBNET — avg latency (s); EPC 128 MB is the bottleneck");
  sim::CostModel cm = sim::CostModel::PaperSgx1();
  std::printf("%-12s %9s %9s %9s %9s\n", "concurrent", "TVM-1", "TVM-4", "TFLM-1",
              "TFLM-4");
  for (int k : {1, 2, 4, 8, 12, 16}) {
    std::printf("%-12d", k);
    for (auto [framework, tcs] :
         std::vector<std::pair<inference::FrameworkKind, int>>{
             {inference::FrameworkKind::kTvm, 1},
             {inference::FrameworkKind::kTvm, 4},
             {inference::FrameworkKind::kTflm, 1},
             {inference::FrameworkKind::kTflm, 4}}) {
      std::printf(" %9.3f", AvgLatencyAtConcurrency(cm, framework,
                                                    model::Architecture::kMbNet, k, tcs));
    }
    std::printf("\n");
  }
  std::printf("(shape check: TVM degrades before TFLM — bigger enclaves; 4-thread\n"
              " enclaves degrade less than 1-thread — shared model memory)\n");
}

double PercentileMicros(const std::vector<double>& sorted_latencies, double pct) {
  if (sorted_latencies.empty()) return 0.0;
  const double rank = pct / 100.0 * (sorted_latencies.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = static_cast<size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted_latencies[lo] * (1.0 - frac) + sorted_latencies[hi] * frac;
}

void LiveConcurrencySection() {
  PrintSection("(c) live — warm invocations via InvokeAsync, JSON per point");
  std::printf("pool degree: %d worker thread(s)\n", ParallelismDegree());

  LiveRig rig(/*scale=*/0.002, /*input_hw=*/16);
  const model::ModelGraph& graph = rig.DeployModel(model::Architecture::kMbNet);
  semirt::SemirtOptions options;
  options.num_tcs = 32;  // one enclave serves the whole sweep (warm path)
  rig.Authorize(model::Architecture::kMbNet, options);

  serverless::PlatformConfig config;
  config.max_inflight = 64;
  serverless::ServerlessPlatform platform(config, &rig.authority(),
                                          &rig.storage(), rig.keyservice());
  serverless::FunctionSpec spec;
  spec.name = "f";
  spec.options = options;
  if (!platform.DeployFunction(spec).ok()) return;

  const std::string id = model::ToString(model::Architecture::kMbNet);
  const sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(options);
  std::vector<semirt::InferenceRequest> requests;
  for (int i = 0; i < 32; ++i) {
    Bytes input = model::GenerateRandomInput(graph, static_cast<uint64_t>(i + 1));
    auto request = rig.user().BuildRequest(id, input, &es);
    if (!request.ok()) return;
    requests.push_back(std::move(*request));
  }
  // Warm-up: provision the container and touch every TCS runtime once.
  {
    std::deque<std::future<serverless::InvocationResult>> warm;
    for (int i = 0; i < 32; ++i) {
      warm.push_back(platform.InvokeAsync("f", requests[i % requests.size()]));
    }
    while (!warm.empty()) {
      warm.front().get();
      warm.pop_front();
    }
  }

  std::vector<double> sweep_waits;  // every request of the sweep
  for (int in_flight : {1, 2, 4, 8, 16, 32}) {
    const int total = in_flight * 8;
    std::vector<double> latencies;
    latencies.reserve(total);
    int errors = 0;
    const auto start = std::chrono::steady_clock::now();
    std::deque<std::future<serverless::InvocationResult>> window;
    int launched = 0;
    while (launched < total || !window.empty()) {
      while (launched < total && static_cast<int>(window.size()) < in_flight) {
        window.push_back(
            platform.InvokeAsync("f", requests[launched % requests.size()]));
        launched++;
      }
      serverless::InvocationResult result = window.front().get();
      window.pop_front();
      sweep_waits.push_back(static_cast<double>(result.queue_wait));
      if (result.response.ok()) {
        latencies.push_back(static_cast<double>(result.timings.total));
      } else {
        errors++;
      }
    }
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    std::sort(latencies.begin(), latencies.end());
    std::printf(
        "{\"bench\":\"fig11_live\",\"in_flight\":%d,\"invocations\":%zu,"
        "\"wall_s\":%.4f,\"inv_per_s\":%.1f,\"p50_us\":%.0f,\"p99_us\":%.0f,"
        "\"error_rate\":%.4f}\n",
        in_flight, latencies.size(), wall_s,
        wall_s > 0 ? static_cast<double>(latencies.size()) / wall_s : 0.0,
        PercentileMicros(latencies, 50.0), PercentileMicros(latencies, 99.0),
        static_cast<double>(errors) / total);
  }

  // Recovery counters for the trajectory: a short seeded fault burst, then a
  // fault-free wave whose throughput is the recovered/s figure.
  {
    FaultInjector::Instance().DisarmAll();
    FaultInjector::Instance().Reseed(0xf1611);
    FaultConfig poison;
    poison.probability = 0.05;
    poison.error_code = StatusCode::kInternal;
    FaultInjector::Instance().Arm(faults::kEcallEnter, poison);

    const int burst = 64;
    int burst_errors = 0;
    for (int i = 0; i < burst; ++i) {
      if (!platform.Invoke("f", requests[i % requests.size()]).ok()) {
        burst_errors++;
      }
    }
    FaultInjector::Instance().DisarmAll();

    const int wave = 64;
    int wave_ok = 0;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < wave; ++i) {
      if (platform.Invoke("f", requests[i % requests.size()]).ok()) wave_ok++;
    }
    const double wave_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const serverless::PlatformCounters& rs = platform.counters();
    std::printf(
        "{\"bench\":\"fig11_recovery\",\"burst\":%d,\"error_rate\":%.4f,"
        "\"recovered_per_s\":%.1f,\"wave_ok\":%d,\"wave_n\":%d,"
        "\"enclave_failures\":%llu,\"relaunches\":%llu,\"retries\":%llu}\n",
        burst, static_cast<double>(burst_errors) / burst,
        wave_s > 0 ? wave_ok / wave_s : 0.0, wave_ok, wave,
        static_cast<unsigned long long>(rs.enclave_failures.Value()),
        static_cast<unsigned long long>(rs.relaunches.Value()),
        static_cast<unsigned long long>(rs.retries.Value()));
  }
  // Scheduler's view of the sweep (the live section now runs through
  // src/sched): dispatch counts, coalescing, and the queue-wait percentiles
  // of the sweep's requests.
  const sched::RequestScheduler& scheduler = platform.scheduler();
  std::printf(
      "{\"bench\":\"fig11_sched\",\"policy\":\"%s\",\"dispatched\":%llu,"
      "\"batches\":%llu,\"avg_batch\":%.2f,\"queue_depth\":%zu,"
      "\"wait_p50_us\":%lld,\"wait_p99_us\":%lld}\n",
      sched::ToString(scheduler.policy_kind()),
      static_cast<unsigned long long>(scheduler.counters().dispatched.Value()),
      static_cast<unsigned long long>(scheduler.counters().batches.Value()),
      scheduler.counters().avg_batch_size(), platform.queue_depth(),
      static_cast<long long>(PercentileUs(sweep_waits, 50.0)),
      static_cast<long long>(PercentileUs(sweep_waits, 99.0)));
  std::printf(
      "(shape check: inv_per_s scales with in_flight up to the core count on a\n"
      " multi-core runner; p50 stays near the single-request latency until the\n"
      " pool saturates)\n");
}

}  // namespace
}  // namespace sesemi::bench

int main(int argc, char** argv) {
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) trace_path = argv[i] + 8;
  }
  sesemi::bench::PrintHeader("Figure 11 — latency w.r.t. number of concurrent executions");
  if (!trace_path.empty()) sesemi::obs::Tracer::Enable();
  sesemi::bench::Sgx2Section();
  sesemi::bench::Sgx1Section();
  sesemi::bench::LiveConcurrencySection();
  if (!trace_path.empty()) {
    sesemi::obs::Tracer::Disable();
    const sesemi::obs::TraceSnapshot snapshot = sesemi::obs::Tracer::Snap();
    const sesemi::Status status =
        sesemi::obs::WriteChromeTraceJson(snapshot, trace_path);
    std::printf("{\"bench\":\"fig11_trace\",\"file\":\"%s\",\"spans\":%zu,"
                "\"dropped\":%llu,\"ok\":%s}\n",
                trace_path.c_str(), snapshot.spans.size(),
                static_cast<unsigned long long>(snapshot.dropped),
                status.ok() ? "true" : "false");
  }
  return 0;
}
