#ifndef SESEMI_CLUSTER_AUTOSCALER_H_
#define SESEMI_CLUSTER_AUTOSCALER_H_

#include <cstdint>
#include <vector>

namespace sesemi::cluster {

/// Autoscaling policy knobs. The policy is deliberately hysteretic: scale-up
/// and scale-down thresholds are far apart and every decision starts a
/// cooldown, so a bursty MMPP workload does not flap the membership.
struct AutoscaleConfig {
  /// Add a node when the mean scheduler backlog per active node exceeds
  /// this (requests queued, from ServerlessPlatform::queue_depth()).
  double scale_up_backlog_per_node = 8.0;
  /// Remove a node when the mean backlog per active node falls below this
  /// AND no node is unhealthy.
  double scale_down_backlog_per_node = 0.5;
  /// A node whose recovery counters report this many enclave failures since
  /// the last tick is treated as degraded: degraded nodes veto scale-down
  /// (capacity is about to relaunch, not idle) and count toward scale-up
  /// pressure.
  uint64_t degraded_failures_per_tick = 2;
  int min_nodes = 1;
  /// 0 = no limit beyond the dataplane's standby pool.
  int max_nodes = 0;
  /// Ticks to hold after any Up/Down decision before deciding again.
  int cooldown_ticks = 2;
};

/// One node's load sample for a tick, read by the dataplane from the node
/// platform's queue depths, scheduler and platform counters, and RT lanes.
struct NodeLoadSample {
  int node = 0;
  uint64_t queue_depth = 0;        ///< requests waiting in the node scheduler
  uint64_t dispatched_delta = 0;   ///< dispatches since the previous tick
  uint64_t enclave_failures_delta = 0;  ///< poisonings since the previous tick
  /// RT tier occupancy (zero when the node runs without the tier).
  int rt_busy_lanes = 0;
  /// Requests parked in RT classes (a subset of queue_depth).
  uint64_t interactive_depth = 0;
};

enum class ScaleDecision { kHold, kUp, kDown };

/// Cumulative policy statistics.
struct AutoscalerStats {
  uint64_t ticks = 0;
  uint64_t ups = 0;
  uint64_t downs = 0;
  uint64_t cooldown_holds = 0;
  uint64_t rt_vetoes = 0;  ///< scale-downs suppressed by busy RT lanes
};

/// Stats-driven autoscaler: pure policy, no side effects. The dataplane
/// feeds it per-node samples each AutoscaleTick and applies the decision
/// (activate a standby node / drain an active one); a dataplane that never
/// ticks it does not autoscale.
///
/// Two rules weigh the RT tier. Interactive (RT-class) backlog counts four
/// times a bulk request toward scale-up pressure, since latency-class work
/// queued behind busy lanes is a stronger capacity signal than coalescible
/// bulk depth. Busy RT lanes on any node veto scale-down, since removing a
/// node would rebalance interactive traffic onto colder warm pools.
///
/// \threadsafety Not thread-safe; the dataplane serializes ticks.
class Autoscaler {
 public:
  explicit Autoscaler(const AutoscaleConfig& config) : config_(config) {}

  ScaleDecision Tick(const std::vector<NodeLoadSample>& active);

  const AutoscalerStats& stats() const { return stats_; }
  const AutoscaleConfig& config() const { return config_; }

 private:
  AutoscaleConfig config_;
  AutoscalerStats stats_;
  int cooldown_remaining_ = 0;
};

}  // namespace sesemi::cluster

#endif  // SESEMI_CLUSTER_AUTOSCALER_H_
