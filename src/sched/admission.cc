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

}  // namespace sesemi::sched
