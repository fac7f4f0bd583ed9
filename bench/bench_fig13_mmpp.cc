// Reproduces Figure 13: average latency over time when serving an MMPP
// workload (rate alternating around 20<->40 rps) on an 8-node cluster, for
// TVM-DSNET and TVM-RSNET, comparing SeSeMI / Iso-reuse / Native.
//
// Alongside the simulated curves, a live per-class section replays a
// time-compressed MMPP trace through a real platform with the RT tier
// enabled — every k-th arrival rides the interactive class — and reports
// per-class inv/s and latency percentiles.
//
// JSON lines (grep '^{' -> BENCH_fig13.json, docs/BENCHMARKS.md):
//   section "mmpp_dsnet"/"mmpp_rsnet" — per-mode overall averages (sim);
//   section "classes" — interactive_*/bulk_* inv/s and p50/p99 (live).
// Flags: --quick shrinks the live replay for CI smoke runs; --quantize runs
// the live per-class leg through the int8 inference tier (the "classes" line
// carries a "quantize" field so trajectories can tell the series apart).

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "serverless/platform.h"
#include "sim/cluster.h"
#include "workload/generators.h"

namespace sesemi::bench {
namespace {

bool g_quick = false;
bool g_quantize = false;

struct RunResult {
  std::vector<double> bucket_avg;  // avg latency per 30 s bucket
  double overall_avg = 0;
};

RunResult RunMmpp(model::Architecture arch, semirt::RuntimeMode mode,
                  const std::vector<workload::Arrival>& trace, double duration_s) {
  sim::SimConfig config;
  config.num_nodes = 8;
  config.cost_model = sim::CostModel::PaperSgx2();
  // §VI-C: invoker memory is configured so the enclave threads on a node
  // never exceed the physical cores; with the Table V memory budgets this
  // caps containers per node (2 here, 16 cluster-wide), which is what makes
  // the system sensitive to the 40 rps bursts like the paper's testbed.
  uint64_t container_memory =
      arch == model::Architecture::kRsNet ? (768ull << 20) : (256ull << 20);
  // RSNET's ~1 s executions need more in-flight slots for the same rate
  // (the paper's RSNET run is near-saturated: avgs of 8-12 s).
  config.invoker_memory_bytes =
      (arch == model::Architecture::kRsNet ? 6 : 3) * container_memory;
  sim::ClusterSim sim(config);
  sim::SimFunction fn;
  fn.name = "f";
  fn.framework = inference::FrameworkKind::kTvm;
  fn.arch = arch;
  fn.mode = mode;
  fn.num_tcs = 1;
  fn.container_memory_bytes = container_memory;
  sim.AddFunction(fn);
  // Paper warms the system at 20 rps before measuring.
  const auto& p = config.cost_model.profile(fn.framework, fn.arch);
  int warm = std::max(1, std::min(16, static_cast<int>(20 * p.execute_s * 1.5 + 1)));
  (void)sim.Prewarm("f", warm, "m0", "u0");
  for (const auto& a : trace) sim.Submit("f", a.model_id, a.user_id, a.time);
  sim.Run();

  RunResult result;
  const double kBucket = 30.0;
  for (double t = 0; t < duration_s; t += kBucket) {
    result.bucket_avg.push_back(sim.metrics().AvgLatencySecondsBetween(
        SecondsToMicros(t), SecondsToMicros(t + kBucket)));
  }
  result.overall_avg = sim.metrics().AvgLatencySeconds();
  return result;
}

void RunModel(const char* title, const char* section, model::Architecture arch) {
  PrintSection(title);
  workload::MmppSpec spec;  // 20 <-> 40 rps, 900 s
  auto trace = workload::Mmpp(spec, "m0", "u0");
  std::printf("workload: %zu requests over %.0f s (mean %.1f rps)\n", trace.size(),
              spec.duration_s, trace.size() / spec.duration_s);

  std::map<semirt::RuntimeMode, RunResult> results;
  for (auto mode : {semirt::RuntimeMode::kSesemi, semirt::RuntimeMode::kIsoReuse,
                    semirt::RuntimeMode::kNative}) {
    results[mode] = RunMmpp(arch, mode, trace, spec.duration_s);
  }

  std::printf("%-10s %10s %10s %10s\n", "t (s)", "SeSeMI", "Iso-reuse", "Native");
  const auto& sesemi_buckets = results[semirt::RuntimeMode::kSesemi].bucket_avg;
  for (size_t i = 0; i < sesemi_buckets.size(); ++i) {
    std::printf("%-10.0f", (i + 1) * 30.0);
    for (auto mode : {semirt::RuntimeMode::kSesemi, semirt::RuntimeMode::kIsoReuse,
                      semirt::RuntimeMode::kNative}) {
      std::printf(" %10.2f", results[mode].bucket_avg[i]);
    }
    std::printf("\n");
  }
  std::printf("overall avg: SeSeMI %.2f s, Iso-reuse %.2f s, Native %.2f s",
              results[semirt::RuntimeMode::kSesemi].overall_avg,
              results[semirt::RuntimeMode::kIsoReuse].overall_avg,
              results[semirt::RuntimeMode::kNative].overall_avg);
  double improvement = 100.0 * (1.0 - results[semirt::RuntimeMode::kSesemi].overall_avg /
                                          results[semirt::RuntimeMode::kIsoReuse].overall_avg);
  std::printf("  (SeSeMI vs Iso-reuse: %.0f%% lower)\n", improvement);
  std::printf(
      "{\"bench\":\"fig13\",\"section\":\"%s\",\"requests\":%zu,"
      "\"sesemi_avg_s\":%.3f,\"isoreuse_avg_s\":%.3f,\"native_avg_s\":%.3f,"
      "\"sesemi_vs_isoreuse_pct\":%.1f}\n",
      section, trace.size(), results[semirt::RuntimeMode::kSesemi].overall_avg,
      results[semirt::RuntimeMode::kIsoReuse].overall_avg,
      results[semirt::RuntimeMode::kNative].overall_avg, improvement);
}

// Live per-class serving: the paper's MMPP arrival process, time-compressed,
// with every k-th arrival promoted to the interactive class. The platform
// runs with the RT tier on, so class 0 rides dedicated lanes while the bulk
// class batches through the shared pool — the BENCH_fig13.json "classes"
// line records what each class actually got (inv/s, p50/p99).
void ClassesSection() {
  PrintSection("(d) live per-class serving — MMPP bulk + interactive trickle");

  serverless::PlatformConfig config;
  config.rt.enabled = true;
  config.rt.classes = 1;
  config.rt.executor.num_lanes = 1;
  // Privileged knobs degrade to unpinned lanes without CAP_SYS_NICE.
  config.rt.executor.pin_threads = true;
  config.rt.executor.elevate_priority = true;

  LiveRig live(/*scale=*/0.01, /*input_hw=*/16);
  const model::ModelGraph& graph = live.DeployModel(model::Architecture::kMbNet);
  semirt::SemirtOptions options;
  options.num_tcs = 8;
  // --quantize: the containers compile MBNET through the int8 tier (and the
  // enclave identity users authorize against reflects it).
  options.quantize = g_quantize;
  live.Authorize(model::Architecture::kMbNet, options);
  serverless::ServerlessPlatform platform(config, &live.authority(),
                                          &live.storage(), live.keyservice());

  auto deploy = [&](const char* name, int priority, int max_batch) {
    serverless::FunctionSpec spec;
    spec.name = name;
    spec.options = options;
    spec.sched.priority = priority;
    spec.sched.max_batch = max_batch;
    return platform.DeployFunction(spec).ok();
  };
  if (!deploy("fn-interactive", /*priority=*/0, /*max_batch=*/1) ||
      !deploy("fn-bulk", /*priority=*/1, /*max_batch=*/4)) {
    return;
  }

  const sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(options);
  auto request = [&](uint64_t seed) {
    Bytes input = model::GenerateRandomInput(graph, seed);
    return live.user().BuildRequest(model::ToString(model::Architecture::kMbNet),
                                    input, &es);
  };
  // Warm both containers (and the RT lane's first dispatch) off the clock.
  for (const char* fn : {"fn-bulk", "fn-interactive"}) {
    auto warm = request(1);
    if (!warm.ok()) return;
    (void)platform.Invoke(fn, *warm);
  }

  // The paper's 20<->40 rps MMPP shape, compressed 100x so the replay fits a
  // CI smoke run while keeping the bursty arrival structure.
  workload::MmppSpec spec;
  spec.duration_s = g_quick ? 90 : 300;
  const double compress = 100.0;
  constexpr int kInteractiveEvery = 5;
  const auto trace = workload::Mmpp(spec, "mbnet", "bench-user");

  std::vector<std::future<serverless::InvocationResult>> interactive_futures;
  std::vector<std::future<serverless::InvocationResult>> bulk_futures;
  const auto t0 = std::chrono::steady_clock::now();
  size_t i = 0;
  for (const workload::Arrival& arrival : trace) {
    std::this_thread::sleep_until(
        t0 + std::chrono::microseconds(
                 static_cast<int64_t>(static_cast<double>(arrival.time) / compress)));
    auto r = request(i % 8 + 2);
    if (!r.ok()) return;
    if (i % kInteractiveEvery == 0) {
      interactive_futures.push_back(
          platform.InvokeAsync("fn-interactive", std::move(*r)));
    } else {
      bulk_futures.push_back(platform.InvokeAsync("fn-bulk", std::move(*r)));
    }
    ++i;
  }

  // Per-request latency is queue wait + pipeline time from the result itself,
  // so harvesting order does not skew the samples.
  auto harvest = [](std::vector<std::future<serverless::InvocationResult>>* fs,
                    std::vector<double>* lat_us) {
    int ok = 0;
    for (auto& f : *fs) {
      serverless::InvocationResult r = f.get();
      if (!r.response.ok()) continue;
      ok++;
      lat_us->push_back(static_cast<double>(r.queue_wait + r.timings.total));
    }
    return ok;
  };
  std::vector<double> interactive_us;
  std::vector<double> bulk_us;
  const int interactive_ok = harvest(&interactive_futures, &interactive_us);
  const int bulk_ok = harvest(&bulk_futures, &bulk_us);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (wall_s <= 0 || interactive_ok == 0 || bulk_ok == 0) {
    std::printf("(classes section failed to complete; skipping line)\n");
    return;
  }

  const serverless::PlatformCounters& counters = platform.counters();
  std::printf("%-14s %10s %12s %12s\n", "class", "inv/s", "p50 (us)", "p99 (us)");
  std::printf("%-14s %10.1f %12.0f %12.0f\n", "interactive",
              interactive_ok / wall_s, PercentileUs(interactive_us, 50.0),
              PercentileUs(interactive_us, 99.0));
  std::printf("%-14s %10.1f %12.0f %12.0f\n", "bulk", bulk_ok / wall_s,
              PercentileUs(bulk_us, 50.0), PercentileUs(bulk_us, 99.0));
  std::printf("rt lane dispatches: %llu\n",
              static_cast<unsigned long long>(counters.rt_dispatches.Value()));
  std::printf(
      "{\"bench\":\"fig13\",\"section\":\"%s\","
      "\"interactive_inv_per_s\":%.1f,\"interactive_p50_us\":%.0f,"
      "\"interactive_p99_us\":%.0f,\"bulk_inv_per_s\":%.1f,"
      "\"bulk_p50_us\":%.0f,\"bulk_p99_us\":%.0f,"
      "\"rt_dispatches\":%llu,\"quantize\":%s}\n",
      g_quantize ? "classes_int8" : "classes", interactive_ok / wall_s,
      PercentileUs(interactive_us, 50.0),
      PercentileUs(interactive_us, 99.0), bulk_ok / wall_s,
      PercentileUs(bulk_us, 50.0), PercentileUs(bulk_us, 99.0),
      static_cast<unsigned long long>(counters.rt_dispatches.Value()),
      g_quantize ? "true" : "false");
}

}  // namespace
}  // namespace sesemi::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) sesemi::bench::g_quick = true;
    if (std::strcmp(argv[i], "--quantize") == 0) sesemi::bench::g_quantize = true;
  }
  sesemi::bench::PrintHeader("Figure 13 — serving under the MMPP workload (8 nodes)");
  sesemi::bench::RunModel("(b) TVM-DSNET", "mmpp_dsnet",
                          sesemi::model::Architecture::kDsNet);
  sesemi::bench::RunModel("(c) TVM-RSNET", "mmpp_rsnet",
                          sesemi::model::Architecture::kRsNet);
  sesemi::bench::ClassesSection();
  std::printf("\n(paper: DSNET avg 0.64 s SeSeMI vs 3.35 s Iso-reuse — 81%% lower;\n"
              " Native worst and unstable; Iso-reuse stays elevated after bursts)\n");
  return 0;
}
