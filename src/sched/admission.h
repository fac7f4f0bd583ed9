#ifndef SESEMI_SCHED_ADMISSION_H_
#define SESEMI_SCHED_ADMISSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "sched/queue.h"

namespace sesemi::sched {

/// \file
/// Admission control — the gate in front of the fair queues. A submission
/// that fails admission is rejected immediately with a typed Status (the
/// caller's future resolves with the error); it never blocks the submitter,
/// which is what replaces the old InvokeAsync behaviour of parking callers
/// on a mutex until the in-flight window drained.
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

/// Per-function token buckets plus global backlog accounting. Enqueue-side
/// state is sharded per function (each bucket has its own lock) and the
/// global counters are atomics, so concurrent submitters for different
/// functions contend on nothing shared but two fetch_adds.
///
/// \threadsafety All methods safe to call concurrently.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionLimits& limits);

  Status RegisterFunction(const std::string& function,
                          const FunctionSchedParams& params);

  /// Decide admission for one request of `payload_bytes` arriving at `now`.
  /// On OK the request is counted as queued; the caller must pair it with
  /// OnDequeue once the request leaves the queue (or OnDrop if enqueue
  /// fails downstream).
  Status Admit(const std::string& function, uint64_t payload_bytes, TimeMicros now);

  /// Release the backlog accounting claimed by Admit.
  void OnDequeue(const std::string& function, uint64_t payload_bytes);

  const AdmissionCounters& counters() const { return counters_; }
  int queued() const { return queued_.load(std::memory_order_relaxed); }
  uint64_t queued_bytes() const { return queued_bytes_.load(std::memory_order_relaxed); }

 private:
  struct FunctionGate {
    std::string name;
    FunctionSchedParams params;
    std::unique_ptr<TokenBucket> bucket;  ///< null when rate unlimited
    std::atomic<int> queued{0};
  };

  FunctionGate* FindGate(const std::string& function) const;

  const AdmissionLimits limits_;

  /// Read-mostly gate table (see FairQueue's function table): lookups take
  /// the shared side, only RegisterFunction writes; gate pointers stable.
  mutable std::shared_mutex table_mutex_;
  std::unordered_map<std::string, std::unique_ptr<FunctionGate>> gates_;

  std::atomic<int> queued_{0};
  std::atomic<uint64_t> queued_bytes_{0};

  AdmissionCounters counters_;
};

}  // namespace sesemi::sched

#endif  // SESEMI_SCHED_ADMISSION_H_
