#ifndef SESEMI_CLUSTER_CLUSTER_H_
#define SESEMI_CLUSTER_CLUSTER_H_

#include <atomic>
#include <future>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cluster/autoscaler.h"
#include "cluster/hash_ring.h"
#include "common/clock.h"
#include "obs/metrics.h"
#include "serverless/platform.h"

namespace sesemi::cluster {

/// Cluster-level configuration. Each node is one single-invoker
/// ServerlessPlatform built from the `node` template (its own scheduler,
/// admission limits, warm pool, and recovery state), so per-node admission
/// and per-node backpressure come from the existing sched/ stack unchanged.
struct ClusterConfig {
  /// Nodes active (in the ring) at construction.
  int initial_nodes = 4;
  /// Extra pre-built nodes the autoscaler can activate. Standby nodes get
  /// every DeployFunction so activation is instant (no redeploy).
  int standby_nodes = 0;
  /// Per-node platform template: each node is one ServerlessPlatform.
  serverless::PlatformConfig node;
  HashRingConfig ring;
  AutoscaleConfig autoscale;
  /// How long a node stays ejected from routing after a dispatch failure.
  TimeMicros health_cooldown = SecondsToMicros(0.05);
};

/// Cluster-wide routing and scaling counts, incremented in place.
struct ClusterCounters {
  obs::Counter invocations;  ///< InvokeAsync calls routed somewhere
  obs::Counter home_hits;    ///< dispatched to the clockwise home node
  obs::Counter steals;       ///< warm-slot steals (home had no container)
  obs::Counter reroutes;     ///< dispatch moved past a failed/unhealthy node
  obs::Counter no_capacity;  ///< requests resolved Unavailable (no node left)
  obs::Counter scale_ups;
  obs::Counter scale_downs;
};

/// One node's routing counts (its platform's own counts are behind
/// ClusterDataplane::node(i)->counters()).
struct NodeRoutingCounters {
  obs::Counter routed;      ///< requests dispatched to this node
  obs::Counter steal_wins;  ///< requests stolen *to* this node's warm pool
};

/// Name of the per-node dispatch fault point ("cluster.node.<i>.dispatch").
/// Chaos tests arm it to kill one node's dataplane entry while the rest of
/// the cluster stays healthy; the router treats a fire exactly like a dead
/// node (eject + reroute).
std::string NodeDispatchFaultPoint(int node);

/// An in-process multi-node dataplane: N single-invoker ServerlessPlatform
/// shards behind a consistent-hash router. This is the real-execution
/// counterpart of sim::ClusterSim — the differential harness
/// (tests/cluster_sim_parity_test.cc) replays one seeded trace through both
/// and checks the sim's cost model against measured behaviour.
///
/// Routing, per request:
///  1. placement key = "function|model" hashed onto the ring
///     (bounded-load variant: a node whose scheduler backlog exceeds
///     load_factor x the cluster mean is skipped clockwise);
///  2. warm-slot stealing: if the routed node has no live container for the
///     function and another active node does, the request is stolen to the
///     warm node — a queued dispatch there beats a cold start at home;
///  3. health: a node whose dispatch probe fails is ejected for
///     health_cooldown and the request reroutes along the ring preference
///     order (three nodes at most); when every attempt fails the future
///     resolves with typed Unavailable (never an exception, never a hang).
///
/// \threadsafety All public methods are safe to call concurrently.
/// AutoscaleTick serializes on its own mutex; membership reads on the
/// invocation path take a shared lock.
class ClusterDataplane {
 public:
  ClusterDataplane(const ClusterConfig& config,
                   sgx::AttestationAuthority* authority,
                   storage::ObjectStore* storage,
                   keyservice::KeyServiceServer* keyservice,
                   Clock* clock = nullptr);
  ~ClusterDataplane();

  /// Deploy `spec` on every node (active and standby). Fails on duplicates.
  Status DeployFunction(const serverless::FunctionSpec& spec);

  /// Route one request through the cluster (see class comment for the
  /// policy). The returned future is always satisfied.
  std::future<serverless::InvocationResult> InvokeAsync(
      const std::string& function, semirt::InferenceRequest request,
      const serverless::InvokeOptions& options = {});

  /// Evaluate the autoscaling policy over the active nodes' queue depths,
  /// dispatch and enclave-failure deltas, and RT load, and apply the
  /// decision: kUp activates the lowest-numbered standby node, kDown drains
  /// the emptiest active node (it leaves the ring but finishes queued work).
  /// Returns the change in active node count (-1, 0, +1).
  int AutoscaleTick();

  int active_nodes() const;
  int total_nodes() const { return static_cast<int>(nodes_.size()); }
  /// Direct access to node `i`'s platform (tests, benches).
  serverless::ServerlessPlatform* node(int i) { return nodes_.at(i)->platform.get(); }

  const ClusterCounters& counters() const { return counters_; }
  const NodeRoutingCounters& node_counters(int i) const {
    return nodes_.at(i)->counters;
  }
  const Autoscaler& autoscaler() const { return autoscaler_; }

  /// Export the cluster counters into `registry` through one scrape-time
  /// collector (`sesemi_cluster_*` names; per-node samples carry a node="i"
  /// label) and register every node's platform with a matching label.
  /// Deregistration is automatic at destruction.
  void RegisterMetrics(obs::MetricsRegistry* registry);

  /// Membership surgery for tests (AutoscaleTick uses the same paths).
  /// Activate/deactivate keep the platform alive; only ring membership and
  /// routing eligibility change.
  Status ActivateNode(int node);
  Status DeactivateNode(int node);

 private:
  struct NodeState {
    explicit NodeState(int id) : id(id), fault_point(NodeDispatchFaultPoint(id)) {}
    const int id;
    const std::string fault_point;
    std::unique_ptr<serverless::ServerlessPlatform> platform;
    std::atomic<bool> active{false};
    std::atomic<TimeMicros> unhealthy_until{0};
    NodeRoutingCounters counters;
    // Previous-tick counters for the autoscaler's deltas.
    uint64_t last_dispatched = 0;        ///< guarded by autoscale_mutex_
    uint64_t last_enclave_failures = 0;  ///< guarded by autoscale_mutex_
  };

  bool Healthy(const NodeState& node, TimeMicros now) const {
    return now >= node.unhealthy_until.load(std::memory_order_acquire);
  }

  /// Dispatch-time node probe: OK, or the injected per-node fault.
  Status ProbeNode(NodeState* node);

  ClusterConfig config_;
  std::unique_ptr<Clock> owned_clock_;
  Clock* clock_;

  std::vector<std::unique_ptr<NodeState>> nodes_;

  mutable std::shared_mutex ring_mutex_;
  HashRing ring_;  ///< guarded by ring_mutex_ (reads shared)

  std::mutex autoscale_mutex_;
  Autoscaler autoscaler_;  ///< guarded by autoscale_mutex_

  ClusterCounters counters_;

  /// Deregisters the cluster collector before the counters it reads die.
  obs::ScopedCollector metrics_collector_;
};

}  // namespace sesemi::cluster

#endif  // SESEMI_CLUSTER_CLUSTER_H_
