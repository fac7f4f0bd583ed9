#include "serverless/platform.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/faultpoint.h"
#include "obs/trace.h"

namespace sesemi::serverless {

namespace {
constexpr uint64_t kMemoryGranularity = 128ull << 20;

uint64_t RoundUpToGranularity(uint64_t bytes) {
  return (bytes + kMemoryGranularity - 1) / kMemoryGranularity * kMemoryGranularity;
}

/// What an InvokeAsync submission parks in the scheduler: the request itself
/// and the promise its future resolves from.
struct PendingInvocation {
  semirt::InferenceRequest request;
  std::promise<InvocationResult> promise;
};

PendingInvocation* PayloadOf(const sched::QueuedRequest& qr) {
  return static_cast<PendingInvocation*>(qr.payload.get());
}

int WindowLimitFor(const PlatformConfig& config) {
  return config.max_inflight > 0 ? config.max_inflight : 2 * ParallelismDegree();
}

/// The PR 2 window bounded outstanding work by blocking submitters; the
/// scheduler replaces blocking with typed shedding, so restore a bound by
/// default: an unset global backlog cap becomes 256 x the in-flight window.
sched::SchedulerConfig WithDefaultLimits(sched::SchedulerConfig sched_config,
                                         const PlatformConfig& config) {
  if (sched_config.limits.max_queued == 0) {
    sched_config.limits.max_queued = 256 * WindowLimitFor(config);
  }
  return sched_config;
}
}  // namespace

ServerlessPlatform::ServerlessPlatform(const PlatformConfig& config,
                                       sgx::AttestationAuthority* authority,
                                       storage::ObjectStore* storage,
                                       keyservice::KeyServiceServer* keyservice,
                                       Clock* clock)
    : config_(config),
      storage_(storage),
      keyservice_(keyservice),
      owned_clock_(clock == nullptr ? std::make_unique<RealClock>() : nullptr),
      clock_(clock == nullptr ? owned_clock_.get() : clock),
      sgx_(config.generation, authority),
      relaunch_gate_(config.recovery),
      retry_backoff_(config.recovery.retry.backoff_base_micros,
                     config.recovery.retry.backoff_max_micros,
                     // Distinct stream from the relaunch gate's jitter.
                     kBackoffSeed ^ 0x9e3779b97f4a7c15ULL),
      scheduler_(WithDefaultLimits(config.scheduler, config), clock_) {
  window_limit_ = WindowLimitFor(config_);
  if (config_.rt.enabled) {
    const int classes =
        std::clamp(config_.rt.classes, 1, sched::kNumPriorityClasses);
    rt_mask_ = sched::ClassMaskUpTo(classes);
    bulk_mask_ = sched::kAllClasses & ~rt_mask_;
    rt_exec_ = std::make_unique<RtExecutor>(
        config_.rt.executor,
        [](void* self, int lane) {
          static_cast<ServerlessPlatform*>(self)->RtPump(lane);
        },
        this);
  }
}

ServerlessPlatform::~ServerlessPlatform() {
  // Stop accepting work and stop executing the backlog: still-queued futures
  // resolve with typed Unavailable("shutting down") rather than being run
  // (or worse, abandoned). In-flight dispatches finish normally.
  shutting_down_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(dispatch_mutex_);
    dispatch_paused_ = false;  // parked backlog must drain, not execute
  }
  // Retire the RT lanes before draining: in-flight RT dispatches finish,
  // untaken doorbell tokens are dropped, and no lane can touch the scheduler
  // once the drains below start.
  rt_exec_.reset();
  DrainForShutdown();
  async_tasks_.Wait();
  // A dispatcher may have been mid-PopBatch during the first drain; nothing
  // new can be queued now, so a second sweep leaves the scheduler empty.
  DrainForShutdown();
}

void ServerlessPlatform::DrainForShutdown() {
  for (;;) {
    std::vector<sched::QueuedRequest> expired;
    std::vector<sched::QueuedRequest> batch = scheduler_.PopBatch(&expired);
    if (batch.empty() && expired.empty()) break;
    const TimeMicros now = clock_->Now();
    for (sched::QueuedRequest& qr : expired) {
      Resolve(qr, now,
              {.response = Status::DeadlineExceeded(
                   "deadline passed before dispatch: " + qr.function)});
    }
    for (sched::QueuedRequest& qr : batch) {
      Resolve(qr, now, {.response = Status::Unavailable("shutting down")});
      counters_.shutdown_drops.Inc();
    }
  }
}

Status ServerlessPlatform::DeployFunction(const FunctionSpec& spec) {
  // Refuse here what every launch would refuse: a bad spec must not reach
  // ColdStart, where the launch failure would arm the node-wide relaunch gate.
  SESEMI_RETURN_IF_ERROR(
      semirt::ValidateOptions(spec.options, keyservice_ != nullptr));
  FunctionSpec normalized = spec;
  normalized.container_memory_bytes =
      RoundUpToGranularity(spec.container_memory_bytes);
  std::unique_lock<std::shared_mutex> lock(functions_mutex_);
  if (functions_.contains(spec.name)) {
    return Status::AlreadyExists("function already deployed: " + spec.name);
  }
  // Scheduler registration first (still under the deploy lock, so a racing
  // duplicate deploy cannot interleave): if the sched params are invalid the
  // function table is untouched and the deploy can be retried.
  SESEMI_RETURN_IF_ERROR(scheduler_.RegisterFunction(spec.name, spec.sched));
  auto [it, inserted] = functions_.try_emplace(spec.name, nullptr);
  (void)inserted;  // guaranteed by the contains() check under the same lock
  it->second = std::make_unique<FunctionShard>(std::move(normalized));
  return Status::OK();
}

ServerlessPlatform::FunctionShard* ServerlessPlatform::FindShard(
    const std::string& function) const {
  std::shared_lock<std::shared_mutex> lock(functions_mutex_);
  auto it = functions_.find(function);
  return it == functions_.end() ? nullptr : it->second.get();
}

bool ServerlessPlatform::TryReserveMemory(uint64_t bytes) {
  uint64_t current = memory_used_.load(std::memory_order_relaxed);
  for (;;) {
    if (current + bytes > config_.invoker_memory_bytes) return false;
    if (memory_used_.compare_exchange_weak(current, current + bytes,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
      return true;
    }
  }
}

Result<ServerlessPlatform::Container*> ServerlessPlatform::ColdStart(
    FunctionShard* shard) {
  obs::Span span(obs::spans::kColdStart);
  const FunctionSpec& spec = shard->spec;
  // Relaunch gate: after enclave *launch* failures, back off instead of
  // hammering a failing platform. Memory admission below is capacity, not
  // health, and deliberately bypasses the gate.
  {
    Status admit = relaunch_gate_.Admit(clock_->Now());
    if (!admit.ok()) {
      counters_.relaunch_backoffs.Inc();
      return admit;
    }
  }
  if (!TryReserveMemory(spec.container_memory_bytes)) {
    return Status::ResourceExhausted("no invoker has memory for " + spec.name);
  }

  // The expensive part — enclave launch — runs outside every platform lock,
  // so cold starts proceed in parallel with each other and with warm traffic.
  auto instance = semirt::SemirtInstance::Create(&sgx_, spec.options, storage_,
                                                 keyservice_);
  if (!instance.ok()) {
    memory_used_.fetch_sub(spec.container_memory_bytes, std::memory_order_acq_rel);
    relaunch_gate_.OnLaunchFailure(clock_->Now());
    return instance.status();
  }
  relaunch_gate_.OnLaunchSuccess();
  // A successful launch while poisonings are outstanding is the recovery
  // event the relaunch counter tracks.
  int pending = pending_relaunches_.load(std::memory_order_acquire);
  while (pending > 0 &&
         !pending_relaunches_.compare_exchange_weak(pending, pending - 1,
                                                    std::memory_order_acq_rel)) {
  }
  if (pending > 0) counters_.relaunches.Inc();

  auto container = std::make_unique<Container>();
  container->memory_bytes = spec.container_memory_bytes;
  container->instance = std::move(*instance);
  container->busy = 1;  // the caller's slot
  container->last_used = clock_->Now();
  Container* raw = container.get();
  {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->containers.push_back(std::move(container));
    shard->live.store(static_cast<int>(shard->containers.size()),
                      std::memory_order_relaxed);
  }
  counters_.cold_starts.Inc();
  return raw;
}

Result<ServerlessPlatform::Container*> ServerlessPlatform::AcquireContainer(
    FunctionShard* shard, const std::string& model_id, bool* cold) {
  obs::Span span(obs::spans::kWarmAcquire);
  const uint32_t num_tcs = shard->spec.options.num_tcs;
  Container* container = nullptr;
  {
    std::lock_guard<std::mutex> lock(shard->mutex);
    // Fig. 4's hot path first: among healthy containers with a free slot,
    // take one that already holds this request's model, else the most
    // recently released one.
    bool hot = false;
    for (const std::unique_ptr<Container>& c : shard->containers) {
      if (c->poisoned || c->busy >= num_tcs) continue;
      const bool c_hot = c->instance->loaded_model_id() == model_id;
      if (container == nullptr || c_hot > hot ||
          (c_hot == hot && c->last_used >= container->last_used)) {
        container = c.get();
        hot = c_hot;
      }
    }
    if (container != nullptr) container->busy++;
  }
  *cold = container == nullptr;
  if (*cold) {
    SESEMI_ASSIGN_OR_RETURN(container, ColdStart(shard));
  }
  span.set_arg("cold", *cold ? 1 : 0);
  return container;
}

void ServerlessPlatform::ReleaseContainer(FunctionShard* shard,
                                          Container* container, bool poison) {
  std::unique_ptr<Container> retired;
  {
    std::lock_guard<std::mutex> lock(shard->mutex);
    if (poison && !container->poisoned) {
      // The enclave's state can no longer be trusted: every TCS slot leaves
      // service now, and a relaunch (the next cold start) restores capacity.
      container->poisoned = true;
      counters_.enclave_failures.Inc();
      counters_.quarantined_slots.Inc(shard->spec.options.num_tcs);
      pending_relaunches_.fetch_add(1, std::memory_order_acq_rel);
    }
    container->busy--;
    container->last_used = clock_->Now();
    if (container->poisoned && container->busy == 0) {
      auto it = std::find_if(
          shard->containers.begin(), shard->containers.end(),
          [&](const std::unique_ptr<Container>& c) { return c.get() == container; });
      retired = std::move(*it);
      shard->containers.erase(it);
      shard->live.store(static_cast<int>(shard->containers.size()),
                        std::memory_order_relaxed);
    }
  }
  if (retired != nullptr) DestroyContainer(std::move(retired));
}

void ServerlessPlatform::DestroyContainer(std::unique_ptr<Container> container) {
  const uint64_t bytes = container->memory_bytes;
  container.reset();
  memory_used_.fetch_sub(bytes, std::memory_order_acq_rel);
}

Result<Bytes> ServerlessPlatform::Invoke(const std::string& function,
                                         const semirt::InferenceRequest& request,
                                         semirt::StageTimings* timings,
                                         bool* cold_start) {
  InvocationResult out = InvokeAsync(function, request).get();
  if (timings != nullptr) *timings = out.timings;
  if (cold_start != nullptr) *cold_start = out.cold_start;
  return std::move(out.response);
}

std::future<InvocationResult> ServerlessPlatform::InvokeAsync(
    const std::string& function, semirt::InferenceRequest request,
    const InvokeOptions& options) {
  if (shutting_down_.load(std::memory_order_acquire)) {
    counters_.shutdown_drops.Inc();
    std::promise<InvocationResult> rejected;
    InvocationResult out;
    out.response = Status::Unavailable("shutting down");
    rejected.set_value(std::move(out));
    return rejected.get_future();
  }
  auto pending = std::make_shared<PendingInvocation>();
  pending->request = std::move(request);
  std::future<InvocationResult> future = pending->promise.get_future();

  // Nests under cluster.route when the router invoked us on this thread;
  // otherwise roots a new trace. The context rides the queued request to
  // whichever dispatcher thread pops it.
  obs::Span submit(obs::spans::kPlatformSubmit);

  sched::QueuedRequest queued;
  queued.function = function;
  queued.model_id = pending->request.model_id;
  queued.session_id = pending->request.user_id;
  queued.priority = options.priority;
  queued.deadline = options.deadline;
  queued.trace = submit.context();
  queued.payload = pending;
  const uint64_t payload_bytes = pending->request.encrypted_input.size();

  Result<int> queued_class = scheduler_.Submit(std::move(queued), payload_bytes);
  if (!queued_class.ok()) {
    // Typed rejection (rate limit / backlog full / unknown function): the
    // future resolves immediately — no caller ever parks on a mutex.
    InvocationResult out;
    out.response = queued_class.status();
    pending->promise.set_value(std::move(out));
    return future;
  }

  // Ring the doorbell of the tier that pops the class the request queued in:
  // one RT token per request queued in an RT class, taken without a lock.
  if ((sched::ClassMaskOf(*queued_class) & rt_mask_) != 0) {
    rt_exec_->Kick();
  } else {
    MaybeSpawnDispatcher();
  }
  return future;
}

void ServerlessPlatform::RtPump(int lane) {
  if (shutting_down_.load(std::memory_order_acquire)) {
    return;  // the destructor's drain resolves whatever is queued
  }
  {
    std::lock_guard<std::mutex> lock(dispatch_mutex_);
    if (dispatch_paused_) return;  // ResumeDispatch re-rings per queued request
  }
  // Popping nothing means another lane raced us (or everything was shed).
  DispatchNext(rt_mask_, lane);
}

void ServerlessPlatform::MaybeSpawnDispatcher() {
  {
    std::lock_guard<std::mutex> lock(dispatch_mutex_);
    if (dispatch_paused_ || active_dispatchers_ >= window_limit_) return;
    active_dispatchers_++;
  }
  async_tasks_.Submit([this] { PumpScheduler(); });
}

void ServerlessPlatform::PumpScheduler() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(dispatch_mutex_);
      if (dispatch_paused_ || shutting_down_.load(std::memory_order_acquire)) {
        // On shutdown the destructor's drain resolves whatever remains queued.
        active_dispatchers_--;
        return;
      }
    }
    // Bulk dispatchers serve only the non-RT classes (bulk_mask_ is
    // kAllClasses when the tier is disabled, making this the unmasked pop).
    if (DispatchNext(bulk_mask_, /*rt_lane=*/-1)) continue;
    // Exit only if the queue is truly drained: the depth re-check under
    // dispatch_mutex_ pairs with MaybeSpawnDispatcher's increment, so a
    // submission that saw active_dispatchers_ == limit is guaranteed to be
    // observed by one of those dispatchers before it exits.
    std::lock_guard<std::mutex> lock(dispatch_mutex_);
    // Depth is checked through the bulk mask: backlog parked in RT-only
    // classes belongs to the lanes, and spinning on it here would wedge this
    // dispatcher forever.
    if (scheduler_.DepthInClasses(bulk_mask_) == 0 || dispatch_paused_) {
      active_dispatchers_--;
      return;
    }
  }
}

void ServerlessPlatform::PauseDispatch() {
  std::lock_guard<std::mutex> lock(dispatch_mutex_);
  dispatch_paused_ = true;
}

void ServerlessPlatform::ResumeDispatch() {
  {
    std::lock_guard<std::mutex> lock(dispatch_mutex_);
    dispatch_paused_ = false;
  }
  // One dispatcher per window slot (bounded inside MaybeSpawnDispatcher);
  // surplus dispatchers find the queue empty and exit.
  const size_t depth = scheduler_.DepthInClasses(bulk_mask_);
  for (size_t i = 0; i < depth; ++i) MaybeSpawnDispatcher();
  if (rt_exec_ != nullptr) {
    // One token per parked RT request; surplus pumps pop nothing and return.
    rt_exec_->Kick(static_cast<int>(scheduler_.DepthInClasses(rt_mask_)));
  }
}

void ServerlessPlatform::ObserveClassLatency(int cls, TimeMicros wait,
                                             TimeMicros exec) {
  cls = std::clamp(cls, 0, sched::kNumPriorityClasses - 1);
  if (obs::Histogram* h =
          wait_hist_[cls].load(std::memory_order_relaxed)) {
    h->Observe(MicrosToSeconds(wait < 0 ? 0 : wait));
  }
  if (exec < 0) return;  // cut or failed before a container was acquired
  if (obs::Histogram* h =
          exec_hist_[cls].load(std::memory_order_relaxed)) {
    h->Observe(MicrosToSeconds(exec));
  }
}

void ServerlessPlatform::Resolve(sched::QueuedRequest& qr, TimeMicros dispatched,
                                 InvocationResult out) {
  out.sched_seq = qr.seq;
  out.dispatch_seq = qr.dispatch_seq;
  out.queue_wait = dispatched - qr.enqueue_time;
  PayloadOf(qr)->promise.set_value(std::move(out));
}

bool ServerlessPlatform::DispatchNext(sched::ClassMask classes, int rt_lane) {
  std::vector<sched::QueuedRequest> expired;
  std::vector<sched::QueuedRequest> unit = scheduler_.PopBatch(classes, &expired);
  // Deadline-shed work (DeadlineEdf) is never executed: its futures resolve
  // with a typed DeadlineExceeded right here at dispatch time.
  for (sched::QueuedRequest& qr : expired) {
    Resolve(qr, clock_->Now(),
            {.response = Status::DeadlineExceeded(
                 "deadline passed before dispatch: " + qr.function)});
  }
  if (unit.empty()) return false;
  Execute(std::move(unit), rt_lane);
  return true;
}

void ServerlessPlatform::Execute(std::vector<sched::QueuedRequest> unit,
                                 int rt_lane) {
  const TimeMicros now = clock_->Now();
  const sched::QueuedRequest& head = unit.front();
  const size_t n = unit.size();

  // Continue the head request's trace on this thread; RT units get their own
  // span name so lane occupancy reads directly off a Chrome trace. Coalesced
  // companions keep their own traces: each gets a reconstructed queue-wait
  // span plus (for non-heads) a sched.coalesced instant pointing at the trace
  // that carries the shared dispatch/ecall spans.
  obs::Span dispatch(rt_lane >= 0 ? obs::spans::kRtLane : obs::spans::kDispatch,
                     head.trace);
  if (rt_lane >= 0) {
    dispatch.set_arg("lane", rt_lane);
  } else {
    dispatch.set_arg("batch_size", static_cast<int64_t>(n));
  }
  dispatch.set_priority(head.priority);
  if (obs::Tracer::Enabled()) {
    const TimeMicros trace_now = obs::Tracer::Now();
    for (size_t i = 0; i < n; ++i) {
      const sched::QueuedRequest& qr = unit[i];
      const TimeMicros wait = now >= qr.enqueue_time ? now - qr.enqueue_time : 0;
      obs::Tracer::EmitSpan(qr.trace, obs::spans::kQueueWait, trace_now - wait,
                            trace_now, "batch_size", static_cast<int64_t>(n),
                            qr.priority);
      if (i > 0) {
        obs::Tracer::EmitInstant(qr.trace, obs::spans::kCoalesced, "head_trace",
                                 static_cast<int64_t>(head.trace.trace_id));
      }
    }
  }

  // Deadline enforcement at execution time: checked before a container is
  // acquired, then cooperatively between pipeline stages (never
  // mid-inference). The earliest deadline governs a unit.
  semirt::ExecDeadline deadline;
  const semirt::ExecDeadline* deadline_ptr = nullptr;
  TimeMicros earliest = sched::kNoDeadline;
  for (const sched::QueuedRequest& qr : unit) {
    earliest = std::min(earliest, qr.deadline);
  }
  if (earliest != sched::kNoDeadline) {
    deadline = {earliest, clock_};
    deadline_ptr = &deadline;
  }

  std::vector<const semirt::InferenceRequest*> requests;
  requests.reserve(n);
  for (const sched::QueuedRequest& qr : unit) {
    requests.push_back(&PayloadOf(qr)->request);
  }

  MaybeReap();
  FunctionShard* shard = FindShard(head.function);
  std::vector<Result<Bytes>> results;
  semirt::StageTimings timings;
  bool cold = false;
  TimeMicros exec_micros = -1;  // acquire -> enclave return; -1 = never acquired
  // One attempt: a failure before the enclave entry fails the whole unit
  // (the returned status); past it, `results` holds one result per request.
  auto attempt = [&]() -> Status {
    if (shard == nullptr) {
      return Status::NotFound("no such function: " + head.function);
    }
    SESEMI_FAULT_POINT(faults::kServerlessDispatch);
    if (deadline_ptr != nullptr && deadline_ptr->Expired()) {
      return Status::DeadlineExceeded("deadline passed before execution");
    }
    const TimeMicros exec_start = clock_->Now();
    bool cold_here = false;
    SESEMI_ASSIGN_OR_RETURN(Container * container,
                            AcquireContainer(shard, head.model_id, &cold_here));
    cold = cold || cold_here;
    results = container->instance->HandleRequestBatch(requests, &timings,
                                                      deadline_ptr);
    exec_micros = clock_->Now() - exec_start;
    // A poisoning failure means the enclave's internal state can no longer be
    // trusted: the release retires the container instead of reusing it.
    const bool poison =
        std::any_of(results.begin(), results.end(), [](const Result<Bytes>& r) {
          return !r.ok() && IsEnclavePoisoning(r.status().code());
        });
    ReleaseContainer(shard, container, poison);
    counters_.invocations.Inc(n);
    return Status::OK();
  };

  const int max_attempts = std::max(1, config_.recovery.retry.max_attempts);
  for (int i = 0;; ++i) {
    Status entered = attempt();
    if (!entered.ok()) results.assign(n, entered);
    // Retry only a unit whose every request failed retryably: kUnavailable
    // comes only from the shared idempotent stages (key fetch, handshake,
    // model fetch, pre-entry faults), never from one request's own input.
    const bool retryable =
        std::all_of(results.begin(), results.end(), [](const Result<Bytes>& r) {
          return !r.ok() && IsRetryableFailure(r.status().code());
        });
    if (!retryable || i + 1 >= max_attempts ||
        (deadline_ptr != nullptr && deadline_ptr->Expired())) {
      break;
    }
    counters_.retries.Inc();
    const TimeMicros delay = retry_backoff_.Next(i);
    if (delay > 0) std::this_thread::sleep_for(std::chrono::microseconds(delay));
  }

  if (rt_lane >= 0) counters_.rt_dispatches.Inc(n);
  const uint64_t exec_thread =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  for (size_t i = 0; i < n; ++i) {
    InvocationResult out;
    out.response = std::move(results[i]);
    if (!out.response.ok()) {
      const StatusCode code = out.response.status().code();
      if (code == StatusCode::kDeadlineExceeded) {
        counters_.deadline_cuts.Inc();
      } else if (IsEnclavePoisoning(code)) {
        // The inference ecall itself faulted: never retried (it may have
        // consumed or mutated state), but surfaced as typed Unavailable — the
        // enclave is retired and a relaunch restores service.
        out.response = Status::Unavailable("enclave failure: " +
                                           out.response.status().message());
      }
    }
    out.timings = timings;  // stage costs are shared across the unit
    out.cold_start = cold;
    out.batch_size = static_cast<int>(n);
    out.rt_lane = rt_lane;
    out.exec_thread = exec_thread;
    ObserveClassLatency(unit[i].priority, now - unit[i].enqueue_time, exec_micros);
    Resolve(unit[i], now, std::move(out));
  }
}

void ServerlessPlatform::MaybeReap() {
  // Rate-limit the opportunistic sweep so it takes the pool mutexes at most
  // once per interval, not on every request.
  const TimeMicros interval =
      std::min<TimeMicros>(config_.keep_alive / 4 + 1, SecondsToMicros(1));
  const TimeMicros now = clock_->Now();
  TimeMicros last = last_reap_.load(std::memory_order_relaxed);
  if (now - last < interval) return;
  if (!last_reap_.compare_exchange_strong(last, now, std::memory_order_acq_rel)) {
    return;  // another thread took this sweep
  }
  ReapIdleContainers();
}

void ServerlessPlatform::ReapShard(
    FunctionShard* shard, TimeMicros now,
    std::vector<std::unique_ptr<Container>>* expired) {
  // One pass under the pool mutex moves out the containers with no busy slot
  // that have idled past keep-alive. A poisoned container is always busy: it
  // retires at its last release.
  std::lock_guard<std::mutex> lock(shard->mutex);
  for (auto it = shard->containers.begin(); it != shard->containers.end();) {
    if ((*it)->busy == 0 && now - (*it)->last_used >= config_.keep_alive) {
      expired->push_back(std::move(*it));
      it = shard->containers.erase(it);
    } else {
      ++it;
    }
  }
  shard->live.store(static_cast<int>(shard->containers.size()),
                    std::memory_order_relaxed);
}

int ServerlessPlatform::ReapIdleContainers() {
  const TimeMicros now = clock_->Now();
  std::vector<std::unique_ptr<Container>> expired;
  {
    std::shared_lock<std::shared_mutex> lock(functions_mutex_);
    for (auto& [name, shard] : functions_) ReapShard(shard.get(), now, &expired);
  }
  // The enclaves are torn down outside every platform lock.
  const int reaped = static_cast<int>(expired.size());
  for (std::unique_ptr<Container>& c : expired) DestroyContainer(std::move(c));
  counters_.reaped_containers.Inc(static_cast<uint64_t>(reaped));
  return reaped;
}

int ServerlessPlatform::ContainerCount(const std::string& function) const {
  if (!function.empty()) {
    const FunctionShard* shard = FindShard(function);
    return shard == nullptr ? 0 : shard->live.load(std::memory_order_relaxed);
  }
  std::shared_lock<std::shared_mutex> lock(functions_mutex_);
  int count = 0;
  for (const auto& [name, shard] : functions_) {
    count += shard->live.load(std::memory_order_relaxed);
  }
  return count;
}

void ServerlessPlatform::RegisterMetrics(
    obs::MetricsRegistry* registry,
    std::vector<std::pair<std::string, std::string>> labels) {
  // Per-class latency histograms are bound once here and observed lock-free
  // on the dispatch paths; until registration they stay null and dispatch
  // skips the observation entirely.
  for (int cls = 0; cls < sched::kNumPriorityClasses; ++cls) {
    auto cls_labels = labels;
    cls_labels.emplace_back("class", std::to_string(cls));
    wait_hist_[static_cast<size_t>(cls)].store(
        registry->GetHistogram("sesemi_sched_wait_seconds",
                               obs::Histogram::LatencyBounds(), cls_labels),
        std::memory_order_release);
    exec_hist_[static_cast<size_t>(cls)].store(
        registry->GetHistogram("sesemi_platform_exec_seconds",
                               obs::Histogram::LatencyBounds(), cls_labels),
        std::memory_order_release);
  }
  // One scrape-time collector reads every counter in place; the only values
  // computed here are the read-time gauges (policy, queue depths, average
  // batch, RT lanes). obs_test's ExportedMetricContractOnClusterStack pins
  // the exported names and label keys.
  metrics_collector_ = obs::ScopedCollector(
      registry, [this, labels = std::move(labels)]() {
        std::vector<obs::Sample> samples;
        samples.reserve(32);
        auto with = [&labels](std::string key, std::string value) {
          auto combined = labels;
          combined.emplace_back(std::move(key), std::move(value));
          return combined;
        };
        auto counter = [&samples](const char* name, const obs::Counter& value,
                                  const auto& sample_labels) {
          samples.push_back(obs::MakeCounterSample(
              name, static_cast<double>(value.Value()), sample_labels));
        };
        auto gauge = [&samples, &labels](const char* name, double value) {
          samples.push_back(obs::MakeGaugeSample(name, value, labels));
        };

        const PlatformCounters& p = counters_;
        counter("sesemi_platform_invocations_total", p.invocations, labels);
        counter("sesemi_platform_cold_starts_total", p.cold_starts, labels);
        counter("sesemi_platform_reaped_containers_total", p.reaped_containers,
                labels);
        counter("sesemi_recovery_enclave_failures_total", p.enclave_failures,
                labels);
        counter("sesemi_recovery_quarantined_slots_total", p.quarantined_slots,
                labels);
        counter("sesemi_recovery_relaunches_total", p.relaunches, labels);
        counter("sesemi_recovery_relaunch_backoffs_total", p.relaunch_backoffs,
                labels);
        counter("sesemi_recovery_retries_total", p.retries, labels);
        counter("sesemi_recovery_deadline_cuts_total", p.deadline_cuts, labels);
        counter("sesemi_recovery_shutdown_drops_total", p.shutdown_drops,
                labels);

        const sched::SchedulerCounters& s = scheduler_.counters();
        const sched::AdmissionCounters& a = scheduler_.admission_counters();
        samples.push_back(obs::MakeGaugeSample(
            "sesemi_sched_policy_info", 1,
            with("policy", sched::ToString(scheduler_.policy_kind()))));
        counter("sesemi_sched_submitted_total", s.submitted, labels);
        counter("sesemi_sched_admitted_total", a.admitted, labels);
        counter("sesemi_sched_dispatched_total", s.dispatched, labels);
        counter("sesemi_sched_rejected_total", a.rejected_rate,
                with("reason", "rate"));
        counter("sesemi_sched_rejected_total", a.rejected_depth,
                with("reason", "depth"));
        counter("sesemi_sched_rejected_total", a.rejected_global,
                with("reason", "global"));
        counter("sesemi_sched_deadline_drops_total", s.drops, labels);
        gauge("sesemi_sched_queue_depth",
              static_cast<double>(scheduler_.TotalDepth()));
        counter("sesemi_sched_batches_total", s.batches, labels);
        gauge("sesemi_sched_avg_batch_size", s.avg_batch_size());

        gauge("sesemi_rt_tier_enabled", rt_exec_ != nullptr ? 1.0 : 0.0);
        if (rt_exec_ != nullptr) {
          const RtExecutorStats rt = rt_exec_->stats();
          gauge("sesemi_rt_lanes", rt.lanes);
          gauge("sesemi_rt_busy_lanes", rt.busy_lanes);
          counter("sesemi_rt_dispatches_total", p.rt_dispatches, labels);
          gauge("sesemi_rt_interactive_depth",
                static_cast<double>(interactive_depth()));
        }
        return samples;
      });
}

}  // namespace sesemi::serverless
