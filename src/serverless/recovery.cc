#include "serverless/recovery.h"

#include <algorithm>

namespace sesemi::serverless {

TimeMicros JitteredBackoff::Next(int attempt) {
  if (base_micros_ <= 0) return 0;
  // base * 2^attempt, doubling with a cap so it can never overflow.
  TimeMicros delay = base_micros_;
  for (int i = 0; i < attempt && delay < max_micros_; ++i) {
    delay = delay > max_micros_ / 2 ? max_micros_ : delay * 2;
  }
  delay = std::min(delay, max_micros_);
  double jitter;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jitter = 0.5 + rng_.UniformDouble();
  }
  auto jittered = static_cast<TimeMicros>(static_cast<double>(delay) * jitter);
  return std::max<TimeMicros>(1, std::min(jittered, max_micros_));
}

Status RelaunchGate::Admit(TimeMicros now) {
  int failures = failures_.load(std::memory_order_acquire);
  if (failures == 0) return Status::OK();
  if (config_.relaunch_max_attempts >= 0 &&
      failures >= config_.relaunch_max_attempts) {
    return Status::Unavailable("enclave relaunch attempts exhausted");
  }
  if (now < next_allowed_.load(std::memory_order_acquire)) {
    return Status::Unavailable("enclave relaunch backing off");
  }
  return Status::OK();
}

void RelaunchGate::OnLaunchFailure(TimeMicros now) {
  int attempt = failures_.fetch_add(1, std::memory_order_acq_rel);
  TimeMicros delay = backoff_.Next(attempt);
  TimeMicros until = now + delay;
  TimeMicros cur = next_allowed_.load(std::memory_order_relaxed);
  while (until > cur &&
         !next_allowed_.compare_exchange_weak(cur, until,
                                              std::memory_order_acq_rel)) {
  }
}

void RelaunchGate::OnLaunchSuccess() {
  failures_.store(0, std::memory_order_release);
  next_allowed_.store(0, std::memory_order_release);
}

}  // namespace sesemi::serverless
