#ifndef SESEMI_SERVERLESS_RECOVERY_H_
#define SESEMI_SERVERLESS_RECOVERY_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"

namespace sesemi::serverless {

/// \file
/// Failure-recovery policy for the serverless platform: classification of
/// enclave-poisoning vs retryable errors, jittered exponential backoff, and
/// the relaunch admission gate. The mechanisms (quarantine, retry loop,
/// deadline cuts) live in platform.cc; this header holds the policy so it
/// is testable in isolation and documented in one place
/// (docs/ARCHITECTURE.md "Failure model & recovery").

/// Retry policy for *idempotent* pipeline stages (key fetch, handshake,
/// model fetch). The inference ecall itself is never retried — it may have
/// observed or mutated session state before faulting.
struct RetryPolicy {
  /// Total attempts including the first (1 = no retry).
  int max_attempts = 1;
  TimeMicros backoff_base_micros = 1000;
  TimeMicros backoff_max_micros = SecondsToMicros(0.25);
};

struct RecoveryConfig {
  /// Consecutive enclave launch failures tolerated before ColdStart gives
  /// up immediately instead of backing off (-1 = keep trying forever).
  int relaunch_max_attempts = 8;
  TimeMicros relaunch_backoff_base_micros = 2000;
  TimeMicros relaunch_backoff_max_micros = SecondsToMicros(2);
  /// Seed for backoff jitter (deterministic; never wall-clock).
  uint64_t backoff_seed = 0x5e5e313ULL;
  RetryPolicy retry;
};

/// An error that poisons the enclave: internal invariants or data integrity
/// are gone, so the enclave must be torn down and relaunched. Resource
/// pressure (kResourceExhausted) and transient faults (kUnavailable) do NOT
/// poison — they resolve by waiting or retrying.
inline bool IsEnclavePoisoning(StatusCode code) {
  return code == StatusCode::kInternal || code == StatusCode::kCorruption;
}

/// An error worth retrying on an idempotent stage. Deliberately narrow:
/// kUnavailable means "try again", everything else (denied, not found,
/// corrupt, exhausted) is either permanent or handled elsewhere.
inline bool IsRetryableFailure(StatusCode code) {
  return code == StatusCode::kUnavailable;
}

/// Deterministic jittered exponential backoff: base * 2^attempt, capped,
/// then scaled by a uniform [0.5, 1.5) draw from a seeded generator.
/// \threadsafety Safe for concurrent Next() calls (draws serialize).
class JitteredBackoff {
 public:
  JitteredBackoff(TimeMicros base_micros, TimeMicros max_micros, uint64_t seed)
      : base_micros_(base_micros), max_micros_(max_micros), rng_(seed) {}

  /// Backoff before retry number `attempt` (0-based: first retry gets
  /// roughly base).
  TimeMicros Next(int attempt);

 private:
  const TimeMicros base_micros_;
  const TimeMicros max_micros_;
  std::mutex mutex_;
  Rng rng_;  ///< guarded by mutex_
};

/// Admission gate for enclave relaunch after launch failures. Launch
/// failures open a backoff window during which further cold-start attempts
/// are rejected with kUnavailable (cheap, typed) instead of hammering a
/// failing platform; a successful launch closes the gate.
///
/// Only *launch* failures (SemirtInstance::Create) arm the gate — memory
/// admission failures (kResourceExhausted) are capacity, not health, and
/// bypass it.
/// \threadsafety All methods safe to call concurrently.
class RelaunchGate {
 public:
  RelaunchGate(const RecoveryConfig& config)
      : config_(config),
        backoff_(config.relaunch_backoff_base_micros,
                 config.relaunch_backoff_max_micros, config.backoff_seed) {}

  /// OK to attempt a launch now; kUnavailable while backing off or after
  /// the attempt budget is exhausted.
  Status Admit(TimeMicros now);

  /// Record a launch failure at `now`; schedules the next admission.
  void OnLaunchFailure(TimeMicros now);

  /// Record a successful launch: resets the failure streak and opens the
  /// gate.
  void OnLaunchSuccess();

  int consecutive_failures() const {
    return failures_.load(std::memory_order_relaxed);
  }

 private:
  const RecoveryConfig config_;
  JitteredBackoff backoff_;
  std::atomic<int> failures_{0};
  std::atomic<TimeMicros> next_allowed_{0};
};

}  // namespace sesemi::serverless

#endif  // SESEMI_SERVERLESS_RECOVERY_H_
