#ifndef SESEMI_SCHED_ADMISSION_H_
#define SESEMI_SCHED_ADMISSION_H_

#include <cstdint>
#include <mutex>

#include "common/clock.h"
#include "obs/metrics.h"

namespace sesemi::sched {

/// \file
/// Admission control vocabulary. FairQueue::Enqueue decides admission in
/// front of the queue, against the function's record (token bucket, backlog
/// cap) and the queue-wide limits below. A submission that fails admission is
/// rejected immediately with a typed Status (the caller's future resolves
/// with the error); it never blocks the submitter.
///
/// Rejection taxonomy:
///  - ResourceExhausted  — per-function token bucket empty (rate limit), or
///                         the global backlog/byte budget is full;
///  - Unavailable        — the function's own backlog cap is full (transient:
///                         retry once the queue drains);
///  - NotFound           — function never registered.

/// Platform-wide backpressure limits (0 = unlimited).
struct AdmissionLimits {
  /// Total requests queued across all functions.
  int max_queued = 0;
  /// Total payload bytes queued across all functions (memory backpressure).
  uint64_t max_queued_bytes = 0;
};

/// Classic token bucket: capacity `burst`, refilled at `rate_per_s`.
/// Thread-safe; a zero rate means unlimited.
class TokenBucket {
 public:
  TokenBucket(double rate_per_s, double burst);

  /// Take one token if available at `now`. Monotonically increasing `now`
  /// values are assumed (a stale now never refunds).
  bool TryAcquire(TimeMicros now);

  double rate_per_s() const { return rate_per_s_; }
  double burst() const { return burst_; }

 private:
  const double rate_per_s_;
  const double burst_;
  std::mutex mutex_;
  double tokens_;             ///< guarded by mutex_
  TimeMicros last_refill_ = 0;  ///< guarded by mutex_

  void RefillLocked(TimeMicros now);
};

/// Cumulative admission counts (drops by reason), incremented in place.
struct AdmissionCounters {
  obs::Counter admitted;
  obs::Counter rejected_rate;    ///< token bucket empty
  obs::Counter rejected_depth;   ///< per-function backlog cap
  obs::Counter rejected_global;  ///< global queued / byte budget
};

}  // namespace sesemi::sched

#endif  // SESEMI_SCHED_ADMISSION_H_
