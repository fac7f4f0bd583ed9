#include "cluster/autoscaler.h"

namespace sesemi::cluster {

ScaleDecision Autoscaler::Tick(const std::vector<NodeLoadSample>& active) {
  stats_.ticks++;
  if (!config_.enabled || active.empty()) return ScaleDecision::kHold;
  if (cooldown_remaining_ > 0) {
    cooldown_remaining_--;
    stats_.cooldown_holds++;
    return ScaleDecision::kHold;
  }

  double backlog = 0.0;
  bool degraded = false;
  bool rt_busy = false;
  for (const NodeLoadSample& sample : active) {
    // interactive_depth is a subset of queue_depth, so the weight applies
    // as a surcharge on top of the class-blind count.
    backlog += static_cast<double>(sample.queue_depth);
    if (config_.interactive_backlog_weight > 1.0) {
      backlog += (config_.interactive_backlog_weight - 1.0) *
                 static_cast<double>(sample.interactive_depth);
    }
    degraded |= sample.enclave_failures_delta >= config_.degraded_failures_per_tick;
    rt_busy |= sample.rt_busy_lanes > 0;
  }
  const double per_node = backlog / static_cast<double>(active.size());
  const int n = static_cast<int>(active.size());

  if (per_node > config_.scale_up_backlog_per_node &&
      (config_.max_nodes <= 0 || n < config_.max_nodes)) {
    stats_.ups++;
    cooldown_remaining_ = config_.cooldown_ticks;
    return ScaleDecision::kUp;
  }
  if (per_node < config_.scale_down_backlog_per_node && !degraded &&
      n > config_.min_nodes) {
    if (rt_busy && config_.rt_busy_vetoes_scale_down) {
      stats_.rt_vetoes++;
      return ScaleDecision::kHold;
    }
    stats_.downs++;
    cooldown_remaining_ = config_.cooldown_ticks;
    return ScaleDecision::kDown;
  }
  return ScaleDecision::kHold;
}

}  // namespace sesemi::cluster
