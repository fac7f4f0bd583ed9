// Multi-node cluster dataplane bench: a seeded Zipf multi-tenant trace
// replayed open-loop through N ServerlessPlatform shards behind the
// consistent-hash router (src/cluster). Emits JSON lines for the
// BENCH_cluster.json artifact (schema in docs/BENCHMARKS.md):
//  (a) replay    — per-node inv/s, steal rate, home-hit rate, placement
//                  skew, p50/p99 latency;
//  (b) simparity — the same trace through sim/cluster with a cost model
//                  calibrated from (a)'s measured stages: throughput and
//                  mean-latency band ratios vs the real run;
//  (c) autoscale — stats-driven scale-up from a real scheduler backlog and
//                  scale-down when idle, against a standby pool.
//
// Flags: --quick shrinks the trace (CI / TSan smoke); --trace=FILE records
// the replay with the obs tracer and writes Chrome trace-event JSON
// (chrome://tracing / Perfetto) covering route -> dispatch -> ecall ->
// pipeline stages, plus the sim's virtual-time counterpart.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/cluster.h"
#include "cluster/replay.h"
#include "sim/cluster.h"
#include "sim/cost_model.h"
#include "workload/generators.h"

namespace sesemi::bench {
namespace {

bool g_quick = false;

constexpr int kNodes = 4;
constexpr int kTenants = 8;

struct ClusterRig {
  explicit ClusterRig(cluster::ClusterConfig config) : live(0.002, 16) {
    graph = &live.DeployModel(model::Architecture::kMbNet);
    live.Authorize(model::Architecture::kMbNet, options);
    dataplane = std::make_unique<cluster::ClusterDataplane>(
        config, &live.authority(), &live.storage(), live.keyservice());
    for (int i = 0; i < kTenants; ++i) {
      serverless::FunctionSpec spec;
      spec.name = Function(i);
      spec.options = options;
      ok = ok && dataplane->DeployFunction(spec).ok();
    }
  }

  static std::string Function(int tenant) {
    return "fn" + std::to_string(tenant);
  }

  Result<semirt::InferenceRequest> Request(uint64_t seed) {
    const sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(options);
    Bytes input = model::GenerateRandomInput(*graph, seed);
    return live.user().BuildRequest(model::ToString(model::Architecture::kMbNet),
                                    input, &es);
  }

  LiveRig live;
  const model::ModelGraph* graph = nullptr;
  semirt::SemirtOptions options;
  std::unique_ptr<cluster::ClusterDataplane> dataplane;
  bool ok = true;
};

// The shared seeded trace: Zipf(1.0) rates over kTenants tenant streams.
std::vector<workload::Arrival> BuildTrace(uint64_t seed) {
  const double total_rps = g_quick ? 20.0 : 40.0;
  const double duration_s = g_quick ? 1.5 : 3.0;
  std::vector<double> rates = workload::ZipfRates(kTenants, 1.0, total_rps);
  std::vector<workload::TenantSpec> tenants;
  for (int i = 0; i < kTenants; ++i) {
    workload::TenantSpec tenant;
    tenant.model_id = "t" + std::to_string(i);
    tenant.user_id = "u" + std::to_string(i);
    tenant.rps = rates[static_cast<size_t>(i)];
    tenants.push_back(tenant);
  }
  return workload::MultiTenantPoisson(tenants, duration_s, seed);
}

int TenantOf(const workload::Arrival& arrival) {
  return std::stoi(arrival.model_id.substr(1));
}

void ReplayAndParitySections() {
  PrintSection("(a) replay — Zipf tenants over the consistent-hash router");

  cluster::ClusterConfig config;
  config.initial_nodes = kNodes;
  ClusterRig rig(config);
  if (!rig.ok) {
    std::printf("deploy failed\n");
    return;
  }

  // Warm-up outside the measurement: one request per function.
  for (int i = 0; i < kTenants; ++i) {
    auto request = rig.Request(static_cast<uint64_t>(i) + 1);
    if (!request.ok()) return;
    (void)rig.dataplane->InvokeAsync(ClusterRig::Function(i), std::move(*request))
        .get();
  }

  const std::vector<workload::Arrival> trace = BuildTrace(0xc1a5);
  cluster::ReplayResult real = cluster::ReplayTrace(
      rig.dataplane.get(), trace,
      [&rig](const workload::Arrival& arrival,
             size_t index) -> Result<cluster::BoundArrival> {
        cluster::BoundArrival bound;
        bound.function = ClusterRig::Function(TenantOf(arrival));
        SESEMI_ASSIGN_OR_RETURN(bound.request, rig.Request(index + 100));
        return bound;
      });

  const cluster::ClusterDataplane& dataplane = *rig.dataplane;
  const cluster::ClusterCounters& counters = dataplane.counters();
  const int nodes = dataplane.total_nodes();
  uint64_t routed_total = 0, routed_max = 0;
  for (int i = 0; i < nodes; ++i) {
    const uint64_t routed = dataplane.node_counters(i).routed.Value();
    routed_total += routed;
    routed_max = std::max(routed_max, routed);
  }
  const double routed_mean =
      nodes == 0 ? 0
                 : static_cast<double>(routed_total) / static_cast<double>(nodes);
  const double skew =
      routed_mean > 0 ? static_cast<double>(routed_max) / routed_mean : 0;
  const uint64_t invocations = counters.invocations.Value();
  const double steal_rate =
      invocations > 0 ? static_cast<double>(counters.steals.Value()) /
                            static_cast<double>(invocations)
                      : 0;
  const double home_rate =
      invocations > 0 ? static_cast<double>(counters.home_hits.Value()) /
                            static_cast<double>(invocations)
                      : 0;

  std::printf(
      "{\"bench\":\"cluster\",\"section\":\"replay\",\"nodes\":%d,"
      "\"tenants\":%d,\"submitted\":%zu,\"ok\":%zu,\"errors\":%zu,"
      "\"wall_s\":%.3f,\"throughput_rps\":%.1f,\"mean_ms\":%.3f,"
      "\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"cold_starts\":%zu,"
      "\"steal_rate\":%.4f,\"home_hit_rate\":%.4f,\"reroutes\":%llu,"
      "\"placement_skew\":%.3f,\"per_node\":[",
      kNodes, kTenants, real.submitted, real.ok,
      real.submitted - real.ok, real.wall_s, real.throughput_rps,
      real.mean_latency_s * 1e3, real.p50_latency_s * 1e3,
      real.p99_latency_s * 1e3, real.cold_starts, steal_rate, home_rate,
      static_cast<unsigned long long>(counters.reroutes.Value()), skew);
  for (int i = 0; i < nodes; ++i) {
    const cluster::NodeRoutingCounters& node = dataplane.node_counters(i);
    const uint64_t routed = node.routed.Value();
    std::printf(
        "%s{\"node\":%d,\"routed\":%llu,\"inv_per_s\":%.1f,"
        "\"steal_wins\":%llu,\"containers\":%d}",
        i == 0 ? "" : ",", i, static_cast<unsigned long long>(routed),
        real.wall_s > 0 ? static_cast<double>(routed) / real.wall_s : 0,
        static_cast<unsigned long long>(node.steal_wins.Value()),
        rig.dataplane->node(i)->ContainerCount());
  }
  std::printf("]}\n");

  PrintSection("(b) simparity — same trace through the calibrated simulator");
  sim::CalibrationProfile calibration;
  calibration.execute_s = real.mean_hot_total_s;
  calibration.key_fetch_s = real.mean_cold_key_fetch_s;
  calibration.model_load_s = real.mean_cold_model_load_s;
  calibration.runtime_init_s = real.mean_cold_runtime_init_s;

  sim::SimConfig sim_config;
  sim_config.num_nodes = kNodes;
  sim_config.cost_model = sim::CostModel::Calibrated(calibration);
  sim::ClusterSim sim(sim_config);
  for (int i = 0; i < kTenants; ++i) {
    sim::SimFunction fn;
    fn.name = ClusterRig::Function(i);
    sim.AddFunction(fn);
    (void)sim.Prewarm(fn.name, 1, "t" + std::to_string(i),
                      "u" + std::to_string(i));
  }
  cluster::SimReplayResult simulated = cluster::ReplayTraceOnSim(
      &sim, trace, [](const workload::Arrival& arrival) {
        return ClusterRig::Function(TenantOf(arrival));
      });

  auto band = [](double a, double b) {
    a = std::max(a, 1e-6);
    b = std::max(b, 1e-6);
    return std::max(a / b, b / a);
  };
  std::printf(
      "{\"bench\":\"cluster\",\"section\":\"simparity\",\"submitted\":%zu,"
      "\"real_ok\":%zu,\"sim_completed\":%zu,\"counts_match\":%s,"
      "\"real_rps\":%.1f,\"sim_rps\":%.1f,\"rps_band\":%.2f,"
      "\"real_mean_ms\":%.3f,\"sim_mean_ms\":%.3f,\"latency_band\":%.2f}\n",
      real.submitted, real.ok, simulated.completed,
      real.completions == simulated.completions ? "true" : "false",
      real.throughput_rps, simulated.throughput_rps,
      band(real.throughput_rps, simulated.throughput_rps),
      real.mean_latency_s * 1e3, simulated.mean_latency_s * 1e3,
      band(real.mean_latency_s, simulated.mean_latency_s));
  std::printf(
      "(shape check: counts_match true; bands well inside the documented 3x\n"
      " sim-parity tolerance — see docs/BENCHMARKS.md)\n");
}

void AutoscaleSection() {
  PrintSection("(c) autoscale — backlog-driven scale-up, idle scale-down");

  cluster::ClusterConfig config;
  config.initial_nodes = 1;
  config.standby_nodes = 3;
  config.autoscale.scale_up_backlog_per_node = 4.0;
  config.autoscale.scale_down_backlog_per_node = 0.5;
  config.autoscale.cooldown_ticks = 0;
  ClusterRig rig(config);
  if (!rig.ok) return;

  // Gate node 0's dispatcher to accumulate a real scheduler backlog, tick
  // the autoscaler until it stops adding nodes, then release and drain.
  const int backlog = g_quick ? 24 : 48;
  rig.dataplane->node(0)->PauseDispatch();
  std::vector<std::future<serverless::InvocationResult>> futures;
  for (int i = 0; i < backlog; ++i) {
    auto request = rig.Request(static_cast<uint64_t>(i) + 1);
    if (!request.ok()) return;
    futures.push_back(rig.dataplane->InvokeAsync(ClusterRig::Function(0),
                                                 std::move(*request)));
  }
  int ticks_to_peak = 0;
  while (rig.dataplane->AutoscaleTick() > 0) ticks_to_peak++;
  const int peak_nodes = rig.dataplane->active_nodes();
  rig.dataplane->node(0)->ResumeDispatch();
  size_t ok = 0;
  for (auto& f : futures) ok += f.get().response.ok();

  int ticks_to_idle = 0;
  while (rig.dataplane->AutoscaleTick() < 0) ticks_to_idle++;
  const cluster::ClusterCounters& counters = rig.dataplane->counters();
  std::printf(
      "{\"bench\":\"cluster\",\"section\":\"autoscale\",\"backlog\":%d,"
      "\"ok\":%zu,\"peak_nodes\":%d,\"final_nodes\":%d,"
      "\"scale_ups\":%llu,\"scale_downs\":%llu,\"ticks_to_peak\":%d,"
      "\"ticks_to_idle\":%d}\n",
      backlog, ok, peak_nodes, rig.dataplane->active_nodes(),
      static_cast<unsigned long long>(counters.scale_ups.Value()),
      static_cast<unsigned long long>(counters.scale_downs.Value()), ticks_to_peak,
      ticks_to_idle);
  std::printf(
      "(shape check: peak_nodes > 1 while the backlog is gated; scale_downs\n"
      " return the cluster to min_nodes once drained)\n");
}

}  // namespace
}  // namespace sesemi::bench

int main(int argc, char** argv) {
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) sesemi::bench::g_quick = true;
    if (std::strncmp(argv[i], "--trace=", 8) == 0) trace_path = argv[i] + 8;
  }
  sesemi::bench::PrintHeader(
      "Cluster dataplane — consistent-hash routing, warm-slot stealing, "
      "sim parity, autoscaling");
  if (!trace_path.empty()) sesemi::obs::Tracer::Enable();
  sesemi::bench::ReplayAndParitySections();
  sesemi::bench::AutoscaleSection();
  if (!trace_path.empty()) {
    sesemi::obs::Tracer::Disable();
    const sesemi::obs::TraceSnapshot snapshot = sesemi::obs::Tracer::Snap();
    const sesemi::Status status =
        sesemi::obs::WriteChromeTraceJson(snapshot, trace_path);
    std::printf("{\"bench\":\"cluster\",\"section\":\"trace\",\"file\":\"%s\","
                "\"spans\":%zu,\"dropped\":%llu,\"ok\":%s}\n",
                trace_path.c_str(), snapshot.spans.size(),
                static_cast<unsigned long long>(snapshot.dropped),
                status.ok() ? "true" : "false");
  }
  return 0;
}
