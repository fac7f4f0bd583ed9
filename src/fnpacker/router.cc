#include "fnpacker/router.h"

#include <algorithm>

namespace sesemi::fnpacker {

FnPackerRouter::FnPackerRouter(FnPoolSpec spec) : spec_(std::move(spec)) {
  endpoints_.reserve(spec_.num_endpoints);
  for (int i = 0; i < spec_.num_endpoints; ++i) {
    endpoints_.push_back(std::make_unique<EndpointSlot>());
  }
  models_.reserve(spec_.models.size());
  for (size_t i = 0; i < spec_.models.size(); ++i) {
    auto slot = std::make_unique<ModelSlot>();
    slot->index = static_cast<uint32_t>(i);
    models_.emplace(spec_.models[i], std::move(slot));
  }
}

void FnPackerRouter::AddPending(EndpointSlot* endpoint, uint32_t mark_exclusive) {
  uint64_t word = endpoint->word.load(std::memory_order_relaxed);
  for (;;) {
    const uint32_t mark =
        mark_exclusive == kNoModel ? WordExclusive(word) : mark_exclusive;
    const uint64_t want = PackWord(mark, WordPending(word) + 1);
    if (endpoint->word.compare_exchange_weak(word, want,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
      return;
    }
  }
}

bool FnPackerRouter::TryStickyAddPending(EndpointSlot* endpoint, uint32_t mark) {
  uint64_t word = endpoint->word.load(std::memory_order_acquire);
  for (;;) {
    // Sticky is only valid while the endpoint still has work in flight: if
    // it drained between the model-state read and here, fall back to a
    // fresh decision instead of resurrecting (and marking) an idle
    // endpoint another model may be about to claim.
    if (WordPending(word) == 0) return false;
    const uint64_t want = PackWord(mark, WordPending(word) + 1);
    if (endpoint->word.compare_exchange_weak(word, want,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
      return true;
    }
  }
}

bool FnPackerRouter::BreakerAdmit(EndpointSlot* endpoint, TimeMicros now) {
  uint64_t word = endpoint->breaker.load(std::memory_order_acquire);
  for (;;) {
    const uint32_t state = BreakerState(word);
    if (state == kBreakerClosed) return true;
    if (state == kBreakerOpen) {
      if (now < endpoint->open_until.load(std::memory_order_acquire)) {
        return false;
      }
      // Open interval elapsed: go half-open, consuming one probe for this
      // request in the same CAS.
      const uint32_t spare = static_cast<uint32_t>(
          std::max(0, spec_.breaker_half_open_probes - 1));
      const uint64_t want =
          PackBreaker(kBreakerHalfOpen, spare, BreakerFailures(word));
      if (endpoint->breaker.compare_exchange_weak(word, want,
                                                  std::memory_order_acq_rel,
                                                  std::memory_order_acquire)) {
        return true;
      }
      continue;
    }
    // Half-open: admit only while probes remain.
    const uint32_t probes = BreakerProbes(word);
    if (probes == 0) return false;
    const uint64_t want =
        PackBreaker(kBreakerHalfOpen, probes - 1, BreakerFailures(word));
    if (endpoint->breaker.compare_exchange_weak(word, want,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
      return true;
    }
  }
}

void FnPackerRouter::BreakerOnSuccess(EndpointSlot* endpoint) {
  uint64_t word = endpoint->breaker.load(std::memory_order_acquire);
  for (;;) {
    // A success closes a half-open breaker and clears the failure streak;
    // nothing to do when already closed and clean.
    if (BreakerState(word) == kBreakerClosed && BreakerFailures(word) == 0) {
      return;
    }
    if (endpoint->breaker.compare_exchange_weak(
            word, PackBreaker(kBreakerClosed, 0, 0), std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      return;
    }
  }
}

void FnPackerRouter::BreakerOnFailure(EndpointSlot* endpoint, TimeMicros now) {
  uint64_t word = endpoint->breaker.load(std::memory_order_acquire);
  for (;;) {
    const uint32_t state = BreakerState(word);
    const uint32_t failures = BreakerFailures(word) + 1;
    uint64_t want;
    bool opening = false;
    if (state == kBreakerHalfOpen) {
      // A failed probe reopens immediately.
      want = PackBreaker(kBreakerOpen, 0, failures);
      opening = true;
    } else if (state == kBreakerClosed &&
               failures >= static_cast<uint32_t>(spec_.breaker_failure_threshold)) {
      want = PackBreaker(kBreakerOpen, 0, failures);
      opening = true;
    } else {
      want = PackBreaker(state, BreakerProbes(word), failures);
    }
    if (opening) {
      // Publish the rejection window before the state flips so an Admit that
      // observes "open" never reads a stale open_until.
      endpoint->open_until.store(now + spec_.breaker_open_interval,
                                 std::memory_order_release);
    }
    if (endpoint->breaker.compare_exchange_weak(word, want,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
      if (opening) counters_.breaker_opens.Inc();
      return;
    }
  }
}

Result<int> FnPackerRouter::Route(const std::string& model_id, TimeMicros now) {
  // Lock-free lookup: the key set is an immutable snapshot taken at
  // construction, so find() races only with other readers.
  auto it = models_.find(model_id);
  if (it == models_.end()) {
    return Status::NotFound("model not in Fnpool: " + model_id);
  }
  ModelSlot& model = *it->second;
  const uint32_t my = model.index;

  // Breaker gate, memoized per endpoint: BreakerAdmit may consume a
  // half-open probe, and one Route call must not drain several probes while
  // considering the same endpoint on different paths.
  std::vector<int8_t> admit_cache;
  if (breaker_enabled()) admit_cache.assign(endpoints_.size(), -1);
  auto breaker_allows = [&](int i) -> bool {
    if (!breaker_enabled()) return true;
    if (admit_cache[i] < 0) {
      admit_cache[i] = BreakerAdmit(endpoints_[i].get(), now) ? 1 : 0;
    }
    return admit_cache[i] != 0;
  };

  // One CAS claim attempt on endpoint i. The compare-exchange verifies
  // "pending == 0 and mark compatible" and takes the endpoint in the same
  // atomic step, so two models can never both see it idle and both claim it.
  auto try_claim_idle = [&](int i, bool allow_expired) -> bool {
    EndpointSlot& e = *endpoints_[i];
    uint64_t word = e.word.load(std::memory_order_acquire);
    for (;;) {
      if (WordPending(word) != 0) return false;
      const uint32_t exclusive = WordExclusive(word);
      uint64_t want;
      if (exclusive == kNoModel || exclusive == my) {
        want = PackWord(exclusive, 1);
      } else {
        // Marked for another model: claimable only once the exclusivity has
        // idled past the timeout ("large interval", §IV-C); the claim clears
        // the mark.
        if (!allow_expired) return false;
        const TimeMicros last = e.last_request.load(std::memory_order_acquire);
        if (last < 0 || now - last < spec_.exclusive_idle_timeout) return false;
        want = PackWord(kNoModel, 1);
      }
      if (e.word.compare_exchange_weak(word, want, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        return true;
      }
    }
  };

  int chosen = -1;
  const int sticky = model.endpoint.load(std::memory_order_acquire);
  if (model.pending.load(std::memory_order_acquire) > 0 && sticky >= 0 &&
      breaker_allows(sticky) &&
      TryStickyAddPending(endpoints_[sticky].get(), my)) {
    // Sticky: in-flight work pins the model to its endpoint and marks it
    // exclusive, so a busy model never interleaves with others.
    chosen = sticky;
  } else {
    // Prefer the endpoint already serving this model (loaded state), if free
    // (the preferred probe does not break another model's un-expired mark).
    if (sticky >= 0 && breaker_allows(sticky) &&
        try_claim_idle(sticky, /*allow_expired=*/false)) {
      chosen = sticky;
    }
    if (chosen < 0) {
      for (size_t i = 0; i < endpoints_.size(); ++i) {
        if (breaker_allows(static_cast<int>(i)) &&
            try_claim_idle(static_cast<int>(i), /*allow_expired=*/true)) {
          chosen = static_cast<int>(i);
          break;
        }
      }
    }
    if (chosen < 0) {
      // Every endpoint busy: fall back to the least-loaded one whose breaker
      // admits traffic (mark kept — overflow does not grant exclusivity).
      uint32_t best_pending = 0;
      for (size_t i = 0; i < endpoints_.size(); ++i) {
        if (!breaker_allows(static_cast<int>(i))) continue;
        const uint32_t pending = WordPending(
            endpoints_[i]->word.load(std::memory_order_acquire));
        if (chosen < 0 || pending < best_pending) {
          best_pending = pending;
          chosen = static_cast<int>(i);
        }
      }
      if (chosen < 0) {
        // Every endpoint's breaker is open: shed with a typed error instead
        // of queueing onto a known-bad replica.
        counters_.breaker_rejections.Inc();
        return Status::Unavailable("all endpoints circuit-broken for model " +
                                   model_id);
      }
      AddPending(endpoints_[chosen].get(), kNoModel);
      counters_.overflow.Inc();
    }
  }

  const int previous = model.endpoint.exchange(chosen, std::memory_order_acq_rel);
  if (previous >= 0 && previous != chosen) {
    counters_.model_switches.Inc();
  }
  model.pending.fetch_add(1, std::memory_order_acq_rel);
  model.last_invocation.store(now, std::memory_order_relaxed);
  endpoints_[chosen]->last_request.store(now, std::memory_order_relaxed);
  counters_.routed.Inc();
  return chosen;
}

void FnPackerRouter::OnComplete(const std::string& model_id, int endpoint,
                                TimeMicros now) {
  (void)now;
  CompleteInternal(model_id, endpoint);
  if (breaker_enabled() && endpoint >= 0 &&
      endpoint < static_cast<int>(endpoints_.size())) {
    BreakerOnSuccess(endpoints_[endpoint].get());
  }
}

void FnPackerRouter::OnFailure(const std::string& model_id, int endpoint,
                               TimeMicros now) {
  CompleteInternal(model_id, endpoint);
  if (breaker_enabled() && endpoint >= 0 &&
      endpoint < static_cast<int>(endpoints_.size())) {
    BreakerOnFailure(endpoints_[endpoint].get(), now);
  }
}

void FnPackerRouter::CompleteInternal(const std::string& model_id, int endpoint) {
  auto it = models_.find(model_id);  // lock-free (immutable key set)
  if (it != models_.end()) {
    // Floor-zero decrement: a stray completion never drives pending negative.
    std::atomic<int>& pending = it->second->pending;
    int current = pending.load(std::memory_order_acquire);
    while (current > 0 &&
           !pending.compare_exchange_weak(current, current - 1,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    }
  }
  if (endpoint >= 0 && endpoint < static_cast<int>(endpoints_.size())) {
    std::atomic<uint64_t>& word_ref = endpoints_[endpoint]->word;
    uint64_t word = word_ref.load(std::memory_order_acquire);
    for (;;) {
      if (WordPending(word) == 0) break;
      const uint64_t want = PackWord(WordExclusive(word), WordPending(word) - 1);
      if (word_ref.compare_exchange_weak(word, want, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        break;
      }
    }
  }
}

void FnPackerRouter::RegisterMetrics(obs::MetricsRegistry* registry) {
  metrics_collector_ = obs::ScopedCollector(registry, [this]() {
    std::vector<obs::Sample> samples;
    auto counter = [&samples](const char* name, const obs::Counter& value) {
      samples.push_back(
          obs::MakeCounterSample(name, static_cast<double>(value.Value())));
    };
    const RouterCounters& c = counters_;
    counter("sesemi_router_routed_total", c.routed);
    counter("sesemi_router_model_switches_total", c.model_switches);
    counter("sesemi_router_overflow_total", c.overflow);
    counter("sesemi_router_breaker_opens_total", c.breaker_opens);
    counter("sesemi_router_breaker_rejections_total", c.breaker_rejections);
    return samples;
  });
}

ModelState FnPackerRouter::model_state(const std::string& model_id) const {
  auto it = models_.find(model_id);
  if (it == models_.end()) return ModelState{};
  ModelState state;
  state.pending = it->second->pending.load(std::memory_order_acquire);
  state.endpoint = it->second->endpoint.load(std::memory_order_acquire);
  state.last_invocation = it->second->last_invocation.load(std::memory_order_acquire);
  return state;
}

EndpointState FnPackerRouter::endpoint_state(int endpoint) const {
  const EndpointSlot& slot = *endpoints_.at(endpoint);
  const uint64_t word = slot.word.load(std::memory_order_acquire);
  EndpointState state;
  state.pending = static_cast<int>(WordPending(word));
  const uint32_t exclusive = WordExclusive(word);
  if (exclusive != kNoModel) state.exclusive_model = spec_.models[exclusive];
  state.last_request = slot.last_request.load(std::memory_order_acquire);
  const uint64_t breaker = slot.breaker.load(std::memory_order_acquire);
  state.breaker_failures = static_cast<int>(BreakerFailures(breaker));
  state.breaker_open = BreakerState(breaker) == kBreakerOpen;
  return state;
}

OneToOneRouter::OneToOneRouter(std::vector<std::string> models)
    : models_(std::move(models)) {
  index_.reserve(models_.size());
  for (size_t i = 0; i < models_.size(); ++i) index_[models_[i]] = static_cast<int>(i);
}

Result<int> OneToOneRouter::Route(const std::string& model_id, TimeMicros now) {
  (void)now;
  auto it = index_.find(model_id);
  if (it == index_.end()) return Status::NotFound("unknown model: " + model_id);
  return it->second;
}

void OneToOneRouter::OnComplete(const std::string&, int, TimeMicros) {}

Result<int> AllInOneRouter::Route(const std::string&, TimeMicros) { return 0; }

void AllInOneRouter::OnComplete(const std::string&, int, TimeMicros) {}

}  // namespace sesemi::fnpacker
