#ifndef SESEMI_FNPACKER_ROUTER_H_
#define SESEMI_FNPACKER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "obs/metrics.h"

namespace sesemi::fnpacker {

/// Per-model execution statistics FnPacker keeps (§IV-C): in-flight requests,
/// last invocation time, and which endpoint currently serves the model.
struct ModelState {
  int pending = 0;
  TimeMicros last_invocation = -1;
  int endpoint = -1;
};

/// Per-endpoint state: in-flight requests, exclusivity marker, last time a
/// request was sent to it.
struct EndpointState {
  int pending = 0;
  std::string exclusive_model;  ///< empty = unmarked
  TimeMicros last_request = -1;
  int breaker_failures = 0;     ///< consecutive failures recorded
  bool breaker_open = false;    ///< endpoint currently rejects traffic
};

/// FnPacker's routing counts, incremented in place.
struct RouterCounters {
  obs::Counter routed;
  /// Routes that sent a model to a different endpoint than its previous
  /// route did. This counts a model moving between endpoints, not an
  /// endpoint changing the model its enclaves hold.
  obs::Counter model_switches;
  obs::Counter overflow;  ///< no preferred endpoint free; least-loaded fallback
  obs::Counter breaker_opens;       ///< closed/half-open -> open transitions
  obs::Counter breaker_rejections;  ///< routes refused: every endpoint open
};

/// Abstract request router: decides which function endpoint serves a request.
/// Pure policy — shared verbatim between the live platform and the
/// discrete-event simulator.
///
/// \threadsafety Implementations must allow Route and OnComplete to be called
/// concurrently from many request threads (the live platform drives them from
/// the fork-join pool).
class RequestRouter {
 public:
  virtual ~RequestRouter() = default;

  /// Pick an endpoint for a request to `model_id` arriving at `now`.
  virtual Result<int> Route(const std::string& model_id, TimeMicros now) = 0;

  /// Record completion of a request previously routed to `endpoint`.
  virtual void OnComplete(const std::string& model_id, int endpoint,
                          TimeMicros now) = 0;

  /// Record a *failed* completion. Routers with endpoint health tracking
  /// (circuit breakers) override this; the default treats a failure like any
  /// other completion.
  virtual void OnFailure(const std::string& model_id, int endpoint,
                         TimeMicros now) {
    OnComplete(model_id, endpoint, now);
  }

  virtual int num_endpoints() const = 0;
  virtual const char* name() const = 0;
};

/// An Fnpool: the models packed together and the endpoint budget
/// (the paper's "set of models and the memory budget for an instance").
struct FnPoolSpec {
  std::vector<std::string> models;
  int num_endpoints = 2;
  /// "large interval" after which an exclusive endpoint may be reassigned.
  TimeMicros exclusive_idle_timeout = SecondsToMicros(30);

  // Per-endpoint circuit breaker (0 = disabled, the default: no overhead on
  // the routing fast path).
  /// Consecutive failures that open an endpoint's breaker.
  int breaker_failure_threshold = 0;
  /// How long an open breaker rejects traffic before letting probes through.
  TimeMicros breaker_open_interval = SecondsToMicros(1);
  /// Probe requests admitted in the half-open state; one success closes the
  /// breaker, one failure reopens it.
  int breaker_half_open_probes = 1;
};

/// FnPacker's scheduler (§IV-C): requests to models with pending responses
/// stick to their endpoint (marked exclusive); requests to idle models go to
/// the first endpoint not busy serving another model, where "not busy" means
/// (a) no pending work and not exclusive to someone else, or (b) exclusive but
/// idle past the timeout. Hot models therefore keep private endpoints while
/// cold models share, which is exactly what cuts cold starts under
/// infrequent multi-model traffic (Tables III & IV).
///
/// \par Concurrency design
/// Fully lock-free routing. The model table is an RCU-style immutable
/// snapshot: the set of keys is fixed at construction (Route never inserts),
/// so the per-request hash lookup runs with no lock at all. The routing
/// *decision* claims an endpoint through a per-endpoint CAS slot: each
/// endpoint packs its {exclusive-model index, pending count} into one atomic
/// 64-bit word, and a claim is a single compare-exchange that atomically
/// verifies the endpoint is idle/compatible AND takes it. Decisions for
/// disjoint models therefore proceed in parallel on different endpoints —
/// there is no single writer lock to serialize behind. The interleaving
/// guarantee (never place model A on an endpoint with model B's work in
/// flight, outside the overflow fallback) holds by CAS atomicity for idle
/// claims; the sticky path additionally requires the endpoint to still have
/// in-flight work (conditional CAS), falling back to a fresh decision when
/// it drained. One narrow window remains lock-free by design: if ALL of a
/// model's work completes and another model's idle claim lands between a
/// sticky requester's model-state read and its endpoint CAS, the two
/// briefly share that endpoint — the same bounded sharing the overflow
/// fallback already permits under load, self-correcting on the next route.
/// Per-model state and the routing counters are plain atomics; inspection
/// reads them without stalling the request path.
///
/// \threadsafety All methods are safe to call concurrently.
class FnPackerRouter final : public RequestRouter {
 public:
  explicit FnPackerRouter(FnPoolSpec spec);

  Result<int> Route(const std::string& model_id, TimeMicros now) override;
  void OnComplete(const std::string& model_id, int endpoint, TimeMicros now) override;
  void OnFailure(const std::string& model_id, int endpoint, TimeMicros now) override;
  int num_endpoints() const override { return static_cast<int>(endpoints_.size()); }
  const char* name() const override { return "fnpacker"; }

  const RouterCounters& counters() const { return counters_; }
  /// Inspection helpers for tests (consistent per-field snapshots).
  ModelState model_state(const std::string& model_id) const;
  EndpointState endpoint_state(int endpoint) const;

  /// Export the routing counters into `registry` (`sesemi_router_*` names)
  /// through a scrape-time collector; deregistration is automatic at
  /// destruction.
  void RegisterMetrics(obs::MetricsRegistry* registry);

 private:
  /// `exclusive` value meaning "no exclusivity mark".
  static constexpr uint32_t kNoModel = 0xffffffffu;

  /// Per-model mutable state (atomics; the map structure itself is frozen at
  /// construction, so lookups are lock-free).
  struct ModelSlot {
    uint32_t index = 0;  ///< position in spec_.models (exclusivity id)
    std::atomic<int> pending{0};
    std::atomic<int> endpoint{-1};
    std::atomic<TimeMicros> last_invocation{-1};
  };

  /// Circuit-breaker states (packed into EndpointSlot::breaker).
  static constexpr uint32_t kBreakerClosed = 0;
  static constexpr uint32_t kBreakerOpen = 1;
  static constexpr uint32_t kBreakerHalfOpen = 2;

  /// Per-endpoint CAS slot: word = {exclusive model index:32 | pending:32},
  /// mutated only through compare-exchange so idleness checks and claims are
  /// one atomic step. last_request is advisory (exclusivity expiry) and
  /// tracked separately. breaker = {state:8 | half-open probes:24 |
  /// consecutive failures:32}, same single-word CAS discipline so a state
  /// check and a probe consumption are one atomic step.
  struct EndpointSlot {
    std::atomic<uint64_t> word{PackWord(kNoModel, 0)};
    std::atomic<TimeMicros> last_request{-1};
    std::atomic<uint64_t> breaker{0};
    std::atomic<TimeMicros> open_until{0};
  };

  static constexpr uint64_t PackBreaker(uint32_t state, uint32_t probes,
                                        uint32_t failures) {
    return (static_cast<uint64_t>(state) << 56) |
           (static_cast<uint64_t>(probes & 0xffffffu) << 32) | failures;
  }
  static constexpr uint32_t BreakerState(uint64_t word) {
    return static_cast<uint32_t>(word >> 56);
  }
  static constexpr uint32_t BreakerProbes(uint64_t word) {
    return static_cast<uint32_t>(word >> 32) & 0xffffffu;
  }
  static constexpr uint32_t BreakerFailures(uint64_t word) {
    return static_cast<uint32_t>(word);
  }

  static constexpr uint64_t PackWord(uint32_t exclusive, uint32_t pending) {
    return (static_cast<uint64_t>(exclusive) << 32) | pending;
  }
  static constexpr uint32_t WordExclusive(uint64_t word) {
    return static_cast<uint32_t>(word >> 32);
  }
  static constexpr uint32_t WordPending(uint64_t word) {
    return static_cast<uint32_t>(word);
  }

  /// Atomically add one pending request to `endpoint`, preserving its mark
  /// (the overflow path, where idleness is not required).
  void AddPending(EndpointSlot* endpoint, uint32_t mark_exclusive);

  /// Sticky claim: add one pending request and set `mark` exclusive, but
  /// only while the endpoint still has work in flight. Returns false when
  /// the endpoint drained — the caller re-decides from scratch.
  bool TryStickyAddPending(EndpointSlot* endpoint, uint32_t mark);

  /// Does `endpoint`'s breaker admit a request at `now`? May consume a
  /// half-open probe, so Route memoizes the answer per endpoint per call.
  bool BreakerAdmit(EndpointSlot* endpoint, TimeMicros now);
  void BreakerOnSuccess(EndpointSlot* endpoint);
  void BreakerOnFailure(EndpointSlot* endpoint, TimeMicros now);

  /// Shared pending-count bookkeeping for OnComplete / OnFailure.
  void CompleteInternal(const std::string& model_id, int endpoint);

  bool breaker_enabled() const { return spec_.breaker_failure_threshold > 0; }

  FnPoolSpec spec_;

  /// Key set frozen at construction; values are atomic slots.
  std::unordered_map<std::string, std::unique_ptr<ModelSlot>> models_;

  std::vector<std::unique_ptr<EndpointSlot>> endpoints_;

  RouterCounters counters_;

  /// Deregisters the collector before the counters it reads die.
  obs::ScopedCollector metrics_collector_;
};

/// Baseline: one endpoint per model (no sharing; every cold model cold-starts
/// its own sandbox).
///
/// \threadsafety Immutable after construction; all methods safe concurrently.
class OneToOneRouter final : public RequestRouter {
 public:
  explicit OneToOneRouter(std::vector<std::string> models);

  Result<int> Route(const std::string& model_id, TimeMicros now) override;
  void OnComplete(const std::string& model_id, int endpoint, TimeMicros now) override;
  int num_endpoints() const override { return static_cast<int>(models_.size()); }
  const char* name() const override { return "one-to-one"; }

 private:
  std::vector<std::string> models_;
  std::unordered_map<std::string, int> index_;
};

/// Baseline: a single endpoint serves every model (maximal sharing; endless
/// model switching under interleaved traffic — Figure 7).
///
/// \threadsafety Stateless; all methods safe concurrently.
class AllInOneRouter final : public RequestRouter {
 public:
  Result<int> Route(const std::string& model_id, TimeMicros now) override;
  void OnComplete(const std::string& model_id, int endpoint, TimeMicros now) override;
  int num_endpoints() const override { return 1; }
  const char* name() const override { return "all-in-one"; }
};

}  // namespace sesemi::fnpacker

#endif  // SESEMI_FNPACKER_ROUTER_H_
