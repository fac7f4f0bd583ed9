#include "cluster/cluster.h"

#include <algorithm>
#include <utility>

#include "common/faultpoint.h"
#include "obs/trace.h"

namespace sesemi::cluster {

using serverless::InvocationResult;

namespace {
/// Nodes tried per request (the chosen node, then fallbacks in ring
/// preference order) before the request resolves with typed Unavailable.
constexpr size_t kRerouteAttempts = 3;
}  // namespace

std::string NodeDispatchFaultPoint(int node) {
  return "cluster.node." + std::to_string(node) + ".dispatch";
}

ClusterDataplane::ClusterDataplane(const ClusterConfig& config,
                                   sgx::AttestationAuthority* authority,
                                   storage::ObjectStore* storage,
                                   keyservice::KeyServiceServer* keyservice,
                                   Clock* clock)
    : config_(config),
      ring_(config.ring),
      autoscaler_(config.autoscale) {
  if (clock == nullptr) {
    owned_clock_ = std::make_unique<RealClock>();
    clock_ = owned_clock_.get();
  } else {
    clock_ = clock;
  }
  const int initial = std::max(config_.initial_nodes, 1);
  const int total = initial + std::max(config_.standby_nodes, 0);
  nodes_.reserve(static_cast<size_t>(total));
  for (int i = 0; i < total; ++i) {
    auto state = std::make_unique<NodeState>(i);
    state->platform = std::make_unique<serverless::ServerlessPlatform>(
        config_.node, authority, storage, keyservice, clock);
    if (i < initial) {
      state->active.store(true, std::memory_order_release);
      ring_.AddNode(i);
    }
    nodes_.push_back(std::move(state));
  }
}

ClusterDataplane::~ClusterDataplane() = default;

Status ClusterDataplane::DeployFunction(const serverless::FunctionSpec& spec) {
  for (auto& node : nodes_) {
    Status status = node->platform->DeployFunction(spec);
    if (!status.ok()) return status;
  }
  return Status::OK();
}

int ClusterDataplane::active_nodes() const {
  int n = 0;
  for (const auto& node : nodes_) {
    n += node->active.load(std::memory_order_acquire);
  }
  return n;
}

Status ClusterDataplane::ProbeNode(NodeState* node) {
  if (!FaultInjector::AnyArmed()) return Status::OK();
  return FaultInjector::Instance().Evaluate(node->fault_point);
}

std::future<InvocationResult> ClusterDataplane::InvokeAsync(
    const std::string& function, semirt::InferenceRequest request,
    const serverless::InvokeOptions& options) {
  // Root of the cluster hop: routing is synchronous on the caller thread, so
  // the platform's submit span (and everything the queued context carries
  // downstream) nests under this via the thread-current context.
  obs::Span route(obs::spans::kClusterRoute);
  const std::string key = function + "|" + request.model_id;

  // Snapshot placement under the shared ring lock: clockwise preference
  // order plus the bounded-load pick over current scheduler backlogs.
  std::vector<int> preference;
  int bounded = -1;
  {
    std::shared_lock<std::shared_mutex> lock(ring_mutex_);
    preference = ring_.Preference(key, total_nodes());
    if (!preference.empty()) {
      uint64_t total_backlog = 0;
      for (int node : ring_.nodes()) {
        total_backlog += nodes_[static_cast<size_t>(node)]->platform->queue_depth();
      }
      bounded = ring_.PickBounded(
          key,
          [this](int node) {
            return static_cast<uint64_t>(
                nodes_[static_cast<size_t>(node)]->platform->queue_depth());
          },
          total_backlog);
    }
  }
  if (preference.empty()) {
    counters_.no_capacity.Inc();
    std::promise<InvocationResult> promise;
    InvocationResult result;
    result.response = Status::Unavailable("cluster: no active node");
    promise.set_value(std::move(result));
    return promise.get_future();
  }

  const int home = preference.front();
  int first = bounded >= 0 ? bounded : home;

  // Warm-slot stealing: a queued dispatch on a node that already has a live
  // container beats a cold start on a container-less home. Scan in ring
  // preference order so the steal target is deterministic.
  bool stolen = false;
  const TimeMicros now = clock_->Now();
  if (nodes_[static_cast<size_t>(first)]->platform->ContainerCount(function) == 0) {
    for (int candidate : preference) {
      if (candidate == first) continue;
      NodeState* state = nodes_[static_cast<size_t>(candidate)].get();
      if (!state->active.load(std::memory_order_acquire)) continue;
      if (!Healthy(*state, now)) continue;
      if (state->platform->ContainerCount(function) > 0) {
        first = candidate;
        stolen = true;
        break;
      }
    }
  }

  // Attempt order: chosen target first, then the remaining preference order,
  // capped at kRerouteAttempts.
  std::vector<int> attempts;
  attempts.reserve(preference.size());
  attempts.push_back(first);
  for (int candidate : preference) {
    if (candidate != first) attempts.push_back(candidate);
  }
  if (attempts.size() > kRerouteAttempts) attempts.resize(kRerouteAttempts);

  // Pass 1 honors health cooldowns; pass 2 ignores them so a fully-ejected
  // cluster still probes for recovery instead of going dark.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < attempts.size(); ++i) {
      NodeState* state = nodes_[static_cast<size_t>(attempts[i])].get();
      if (!state->active.load(std::memory_order_acquire)) continue;
      if (pass == 0 && !Healthy(*state, now)) {
        counters_.reroutes.Inc();
        obs::Tracer::EmitInstant(route.context(), obs::spans::kClusterReroute,
                                 "node", state->id);
        continue;
      }
      Status probe = ProbeNode(state);
      if (!probe.ok()) {
        state->unhealthy_until.store(now + config_.health_cooldown,
                                     std::memory_order_release);
        counters_.reroutes.Inc();
        obs::Tracer::EmitInstant(route.context(), obs::spans::kClusterReroute,
                                 "node", state->id);
        continue;
      }
      state->counters.routed.Inc();
      if (stolen && state->id == first) {
        state->counters.steal_wins.Inc();
        counters_.steals.Inc();
        obs::Tracer::EmitInstant(route.context(), obs::spans::kClusterSteal,
                                 "node", state->id);
      }
      if (state->id == home) counters_.home_hits.Inc();
      counters_.invocations.Inc();
      route.set_arg("node", state->id);
      return state->platform->InvokeAsync(function, std::move(request), options);
    }
    if (pass == 0) {
      // Only retry unhealthy-skipped nodes; probe failures already burned
      // their attempt this pass but may pass next pass (probabilistic
      // faults) — the loop re-probes them.
      continue;
    }
  }

  counters_.no_capacity.Inc();
  std::promise<InvocationResult> promise;
  InvocationResult result;
  result.response =
      Status::Unavailable("cluster: no healthy node for " + function);
  promise.set_value(std::move(result));
  return promise.get_future();
}

Status ClusterDataplane::ActivateNode(int node) {
  if (node < 0 || node >= total_nodes()) {
    return Status::InvalidArgument("no such node");
  }
  NodeState* state = nodes_[static_cast<size_t>(node)].get();
  std::unique_lock<std::shared_mutex> lock(ring_mutex_);
  if (state->active.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("node already active");
  }
  state->active.store(true, std::memory_order_release);
  state->unhealthy_until.store(0, std::memory_order_release);
  ring_.AddNode(node);
  return Status::OK();
}

Status ClusterDataplane::DeactivateNode(int node) {
  if (node < 0 || node >= total_nodes()) {
    return Status::InvalidArgument("no such node");
  }
  NodeState* state = nodes_[static_cast<size_t>(node)].get();
  std::unique_lock<std::shared_mutex> lock(ring_mutex_);
  if (!state->active.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("node not active");
  }
  if (ring_.size() <= 1) {
    return Status::FailedPrecondition("cannot deactivate the last node");
  }
  state->active.store(false, std::memory_order_release);
  ring_.RemoveNode(node);
  return Status::OK();
}

int ClusterDataplane::AutoscaleTick() {
  std::lock_guard<std::mutex> lock(autoscale_mutex_);
  std::vector<NodeLoadSample> samples;
  samples.reserve(nodes_.size());
  for (auto& node : nodes_) {
    if (!node->active.load(std::memory_order_acquire)) continue;
    const serverless::ServerlessPlatform& platform = *node->platform;
    const uint64_t dispatched = platform.scheduler().counters().dispatched.Value();
    const uint64_t enclave_failures =
        platform.counters().enclave_failures.Value();
    NodeLoadSample sample;
    sample.node = node->id;
    sample.queue_depth = platform.queue_depth();
    sample.dispatched_delta = dispatched - node->last_dispatched;
    sample.enclave_failures_delta =
        enclave_failures - node->last_enclave_failures;
    if (const RtExecutor* rt = platform.rt_executor()) {
      sample.rt_busy_lanes = rt->stats().busy_lanes;
    }
    sample.interactive_depth = platform.interactive_depth();
    node->last_dispatched = dispatched;
    node->last_enclave_failures = enclave_failures;
    samples.push_back(sample);
  }

  switch (autoscaler_.Tick(samples)) {
    case ScaleDecision::kHold:
      return 0;
    case ScaleDecision::kUp: {
      for (auto& node : nodes_) {
        if (!node->active.load(std::memory_order_acquire)) {
          if (ActivateNode(node->id).ok()) {
            counters_.scale_ups.Inc();
            return +1;
          }
        }
      }
      return 0;  // no standby capacity left
    }
    case ScaleDecision::kDown: {
      // Drain the emptiest active node (ties: highest id, so node 0 — the
      // one every min_nodes=1 cluster keeps — drains last).
      int victim = -1;
      uint64_t victim_depth = 0;
      for (const NodeLoadSample& sample : samples) {
        if (victim < 0 || sample.queue_depth < victim_depth ||
            (sample.queue_depth == victim_depth && sample.node > victim)) {
          victim = sample.node;
          victim_depth = sample.queue_depth;
        }
      }
      if (victim >= 0 && DeactivateNode(victim).ok()) {
        counters_.scale_downs.Inc();
        return -1;
      }
      return 0;
    }
  }
  return 0;
}

void ClusterDataplane::RegisterMetrics(obs::MetricsRegistry* registry) {
  for (auto& node : nodes_) {
    node->platform->RegisterMetrics(registry,
                                    {{"node", std::to_string(node->id)}});
  }
  metrics_collector_ = obs::ScopedCollector(registry, [this]() {
    std::vector<obs::Sample> samples;
    auto counter = [&samples](const char* name, const obs::Counter& value,
                              std::vector<std::pair<std::string, std::string>>
                                  labels = {}) {
      samples.push_back(obs::MakeCounterSample(
          name, static_cast<double>(value.Value()), std::move(labels)));
    };
    const ClusterCounters& c = counters_;
    counter("sesemi_cluster_invocations_total", c.invocations);
    counter("sesemi_cluster_home_hits_total", c.home_hits);
    counter("sesemi_cluster_steals_total", c.steals);
    counter("sesemi_cluster_reroutes_total", c.reroutes);
    counter("sesemi_cluster_no_capacity_total", c.no_capacity);
    counter("sesemi_cluster_scale_ups_total", c.scale_ups);
    counter("sesemi_cluster_scale_downs_total", c.scale_downs);
    samples.push_back(obs::MakeGaugeSample("sesemi_cluster_active_nodes",
                                           active_nodes()));
    const TimeMicros now = clock_->Now();
    for (const auto& node : nodes_) {
      const std::vector<std::pair<std::string, std::string>> labels = {
          {"node", std::to_string(node->id)}};
      const serverless::ServerlessPlatform& platform = *node->platform;
      counter("sesemi_cluster_node_routed_total", node->counters.routed, labels);
      counter("sesemi_cluster_node_steal_wins_total", node->counters.steal_wins,
              labels);
      samples.push_back(obs::MakeGaugeSample(
          "sesemi_cluster_node_queue_depth",
          static_cast<double>(platform.queue_depth()), labels));
      samples.push_back(obs::MakeGaugeSample("sesemi_cluster_node_containers",
                                             platform.ContainerCount(), labels));
      samples.push_back(obs::MakeGaugeSample(
          "sesemi_cluster_node_active",
          node->active.load(std::memory_order_acquire) ? 1 : 0, labels));
      samples.push_back(obs::MakeGaugeSample(
          "sesemi_cluster_node_healthy", Healthy(*node, now) ? 1 : 0, labels));
      if (const RtExecutor* rt = platform.rt_executor()) {
        samples.push_back(
            obs::MakeGaugeSample("sesemi_cluster_node_rt_busy_lanes",
                                 rt->stats().busy_lanes, labels));
      }
    }
    return samples;
  });
}

}  // namespace sesemi::cluster
