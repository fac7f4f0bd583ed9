#include "sched/admission.h"

#include <algorithm>

namespace sesemi::sched {

TokenBucket::TokenBucket(double rate_per_s, double burst)
    : rate_per_s_(rate_per_s),
      burst_(burst > 0 ? burst : std::max(1.0, rate_per_s)),
      tokens_(burst_) {}

void TokenBucket::RefillLocked(TimeMicros now) {
  if (now <= last_refill_) return;
  const double elapsed_s = static_cast<double>(now - last_refill_) / 1e6;
  tokens_ = std::min(burst_, tokens_ + elapsed_s * rate_per_s_);
  last_refill_ = now;
}

bool TokenBucket::TryAcquire(TimeMicros now) {
  if (rate_per_s_ <= 0) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  RefillLocked(now);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

AdmissionController::AdmissionController(const AdmissionLimits& limits)
    : limits_(limits) {}

Status AdmissionController::RegisterFunction(const std::string& function,
                                             const FunctionSchedParams& params) {
  std::unique_lock<std::shared_mutex> lock(table_mutex_);
  auto [it, inserted] = gates_.try_emplace(function, nullptr);
  if (!inserted) {
    return Status::AlreadyExists("function already admitted: " + function);
  }
  it->second = std::make_unique<FunctionGate>();
  it->second->name = function;
  it->second->params = params;
  if (params.rate_per_s > 0) {
    it->second->bucket =
        std::make_unique<TokenBucket>(params.rate_per_s, params.burst);
  }
  return Status::OK();
}

AdmissionController::FunctionGate* AdmissionController::FindGate(
    const std::string& function) const {
  std::shared_lock<std::shared_mutex> lock(table_mutex_);
  auto it = gates_.find(function);
  return it == gates_.end() ? nullptr : it->second.get();
}

Status AdmissionController::Admit(const std::string& function,
                                  uint64_t payload_bytes, TimeMicros now) {
  FunctionGate* gate = FindGate(function);
  if (gate == nullptr) {
    return Status::NotFound("function not scheduled: " + function);
  }

  if (gate->bucket != nullptr && !gate->bucket->TryAcquire(now)) {
    counters_.rejected_rate.Inc();
    return Status::ResourceExhausted("rate limit exceeded for " + function);
  }

  // Claim the per-function backlog slot; undo on any later rejection so a
  // losing submission never leaks accounting.
  if (gate->params.max_queue_depth > 0) {
    const int depth = gate->queued.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (depth > gate->params.max_queue_depth) {
      gate->queued.fetch_sub(1, std::memory_order_acq_rel);
      counters_.rejected_depth.Inc();
      return Status::Unavailable("queue full for " + function);
    }
  } else {
    gate->queued.fetch_add(1, std::memory_order_acq_rel);
  }

  const int global = queued_.fetch_add(1, std::memory_order_acq_rel) + 1;
  const uint64_t bytes =
      queued_bytes_.fetch_add(payload_bytes, std::memory_order_acq_rel) +
      payload_bytes;
  if ((limits_.max_queued > 0 && global > limits_.max_queued) ||
      (limits_.max_queued_bytes > 0 && bytes > limits_.max_queued_bytes)) {
    queued_.fetch_sub(1, std::memory_order_acq_rel);
    queued_bytes_.fetch_sub(payload_bytes, std::memory_order_acq_rel);
    gate->queued.fetch_sub(1, std::memory_order_acq_rel);
    counters_.rejected_global.Inc();
    return Status::ResourceExhausted("scheduler backlog full");
  }

  counters_.admitted.Inc();
  return Status::OK();
}

void AdmissionController::OnDequeue(const std::string& function,
                                    uint64_t payload_bytes) {
  FunctionGate* gate = FindGate(function);
  if (gate != nullptr) gate->queued.fetch_sub(1, std::memory_order_acq_rel);
  queued_.fetch_sub(1, std::memory_order_acq_rel);
  queued_bytes_.fetch_sub(payload_bytes, std::memory_order_acq_rel);
}

}  // namespace sesemi::sched
