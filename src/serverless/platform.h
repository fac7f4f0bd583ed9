#ifndef SESEMI_SERVERLESS_PLATFORM_H_
#define SESEMI_SERVERLESS_PLATFORM_H_

#include <array>
#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/parallel_for.h"
#include "common/result.h"
#include "common/rt_executor.h"
#include "keyservice/keyservice.h"
#include "obs/metrics.h"
#include "sched/scheduler.h"
#include "semirt/semirt.h"
#include "serverless/recovery.h"
#include "sgx/platform.h"
#include "storage/object_store.h"

namespace sesemi::serverless {

/// Per-node execution-tier configuration (docs/ARCHITECTURE.md "Execution
/// tiers"). Disabled (the default) is behaviorally identical to the
/// single-tier dispatcher: every class rides the shared fork-join pool.
struct RtTierConfig {
  bool enabled = false;
  /// Priority classes [0, classes) route to the RT tier; the rest keep the
  /// shared-pool dispatchers. Clamped to [1, kNumPriorityClasses].
  int classes = 1;
  /// The lanes themselves: count and pinning.
  RtExecutorConfig executor;
};

/// Platform-level configuration: one invoker's OpenWhisk knobs from Table V.
/// A multi-node deployment is a ClusterDataplane (cluster/cluster.h) of
/// platforms, one per node.
struct PlatformConfig {
  uint64_t invoker_memory_bytes = 4ull << 30;  ///< sandbox memory budget
  TimeMicros keep_alive = SecondsToMicros(180);
  sgx::SgxGeneration generation = sgx::SgxGeneration::kSgx2;
  /// Upper bound on concurrently *executing* InvokeAsync dispatches (the
  /// in-flight window = number of dispatcher tasks pulling from the request
  /// scheduler). Submissions beyond it queue inside the scheduler in policy
  /// order — InvokeAsync itself never blocks. 0 = 2 x ParallelismDegree().
  int max_inflight = 0;
  /// Request scheduler: ordering policy (FIFO / weighted-fair / EDF) and
  /// global admission limits. Per-function weights, rate limits, and batch
  /// caps ride on FunctionSpec::sched. When `scheduler.limits.max_queued`
  /// is 0 the platform installs a default backlog bound of 256 x the
  /// in-flight window, so an overloaded platform sheds (typed
  /// ResourceExhausted) instead of queueing unboundedly — set an explicit
  /// large value to lift it.
  sched::SchedulerConfig scheduler;
  /// Failure model: enclave poisoning/quarantine/relaunch, idempotent-stage
  /// retries, and execution-time deadline cuts (see serverless/recovery.h).
  RecoveryConfig recovery;
  /// Latency-class execution tiers: dedicated pinned RT lanes for the
  /// interactive classes, bypassing the shared pool.
  RtTierConfig rt;
};

/// A deployed function: a name bound to a SeMIRT (or baseline) runtime
/// configuration and a container memory budget.
struct FunctionSpec {
  std::string name;
  semirt::SemirtOptions options;
  /// Memory charged against the invoker per container; rounded up to the
  /// 128 MB provisioning granularity.
  uint64_t container_memory_bytes = 256ull << 20;
  /// Scheduling parameters: weighted-fair share, token-bucket rate limit,
  /// backlog cap, same-model batch limit, default priority/deadline slack.
  sched::FunctionSchedParams sched;
};

/// Cumulative platform counts, incremented in place by the dispatch,
/// container, recovery and RT paths. The scheduler's counts live in
/// sched::SchedulerCounters, the RT lanes' in RtExecutorStats.
struct PlatformCounters {
  obs::Counter invocations;  ///< requests that ran in an enclave
  obs::Counter cold_starts;
  obs::Counter reaped_containers;
  // Failure recovery (policy in serverless/recovery.h).
  obs::Counter enclave_failures;   ///< enclaves poisoned by a faulting ecall
  obs::Counter quarantined_slots;  ///< num_tcs per poisoned container
  obs::Counter relaunches;         ///< successful cold starts after a poisoning
  obs::Counter relaunch_backoffs;  ///< cold starts rejected while backing off
  obs::Counter retries;            ///< idempotent-stage retry attempts
  obs::Counter deadline_cuts;      ///< invocations cut by the execution deadline
  obs::Counter shutdown_drops;     ///< futures resolved Unavailable at shutdown
  // RT tier (stays 0 while it is disabled).
  obs::Counter rt_dispatches;  ///< requests executed on RT lanes
};

/// Everything one asynchronous invocation produces: the sealed response (or
/// error), the per-stage timings, whether a container was provisioned, and
/// the scheduler's view of the request (admission order, dispatch order,
/// queue wait, and the size of the coalesced batch it rode in).
struct InvocationResult {
  /// The platform overwrites this with either the sealed response or a
  /// specific typed error; the Aborted default can only surface if a result
  /// object escapes without passing through the platform at all.
  Result<Bytes> response = Status::Aborted("request dropped before execution");
  semirt::StageTimings timings;
  bool cold_start = false;
  uint64_t sched_seq = 0;     ///< arrival order assigned at admission
  uint64_t dispatch_seq = 0;  ///< policy order assigned at dispatch
  TimeMicros queue_wait = 0;  ///< time spent queued before dispatch
  int batch_size = 1;         ///< requests coalesced into this dispatch
  /// RT lane that executed this request, or -1 for the shared-pool path.
  int rt_lane = -1;
  /// Hashed std::thread::id of the executing thread. The isolation tests
  /// assert interactive and bulk executions land on disjoint thread sets.
  uint64_t exec_thread = 0;
};

/// Per-call scheduling overrides for InvokeAsync (defaults inherit the
/// function's FunctionSchedParams).
struct InvokeOptions {
  int priority = -1;  ///< -1 = function default; 0 = highest class
  TimeMicros deadline = sched::kNoDeadline;  ///< absolute, for DeadlineEdf
};

/// A live, in-process serverless invoker: the request scheduler in front
/// (sched/, which keeps each function's scheduling record), warm-container
/// reuse, cold starts that launch SeMIRT sandboxes within one memory budget,
/// and keep-alive reclamation. This is the execution substrate the examples,
/// benchmarks, and integration tests run on; ClusterDataplane runs one per
/// node, and the discrete-event simulator in src/sim mirrors its policies at
/// cluster scale.
///
/// \par Concurrency design
/// The invocation hot path is sharded per function, so requests for
/// different functions never serialize behind one lock:
///  - the function table is read-mostly (`std::shared_mutex`; deploys are the
///    only writers, and shards are heap-stable so a reference obtained under
///    the shared lock stays valid for the platform's lifetime);
///  - each function's containers sit under that function's shard mutex,
///    which an acquisition and a release each take once. An acquisition
///    scans the containers for a free TCS slot, preferring the one that
///    holds the request's model (Fig. 4's hot path), and a keep-alive sweep
///    is one pass under the same mutex;
///  - memory accounting is a CAS reservation on one atomic counter, and
///    every enclave launch, teardown, model load and KeyService round trip
///    runs outside every platform lock, so cold starts of different
///    functions proceed in parallel.
///
/// \threadsafety All public methods are safe to call concurrently.
class ServerlessPlatform {
 public:
  /// `clock` defaults to a process-lifetime RealClock; tests inject a
  /// ManualClock to drive keep-alive expiry.
  ServerlessPlatform(const PlatformConfig& config,
                     sgx::AttestationAuthority* authority,
                     storage::ObjectStore* storage,
                     keyservice::KeyServiceServer* keyservice,
                     Clock* clock = nullptr);

  /// Shuts the platform down: still-queued requests resolve immediately with
  /// typed Unavailable("shutting down") (they are NOT executed), in-flight
  /// dispatches run to completion, and every outstanding InvokeAsync future
  /// is satisfied before any member is destroyed.
  ~ServerlessPlatform();

  /// Register a function (the owner's deployment step). Fails on duplicates.
  /// \threadsafety May race with Invoke/InvokeAsync on other functions.
  Status DeployFunction(const FunctionSpec& spec);

  /// Synchronously execute one request on `function`: InvokeAsync(...).get(),
  /// so it passes the same admission, scheduler and dispatch path as every
  /// other request. Sets *cold_start if provisioning happened.
  /// \threadsafety Safe to call from many threads at once, but never from a
  /// fork-join pool worker or while dispatch is paused: the call blocks until
  /// a dispatcher runs the request.
  Result<Bytes> Invoke(const std::string& function,
                       const semirt::InferenceRequest& request,
                       semirt::StageTimings* timings = nullptr,
                       bool* cold_start = nullptr);

  /// Asynchronously execute one request through the request scheduler:
  /// admission control first (typed rejection — never an indefinite block),
  /// then policy-ordered queuing, then execution by dispatcher tasks on the
  /// process-wide fork-join pool, bounded by the in-flight window. Queued
  /// same-model requests may be coalesced into one batched enclave invocation
  /// when the function's sched.max_batch allows it. On single-threaded pools
  /// the dispatcher runs inline, so the queue drains before the future is
  /// returned (unless dispatch is paused).
  ///
  /// The returned future is always satisfied (errors — including admission
  /// rejections — are carried inside InvocationResult::response, never
  /// thrown).
  std::future<InvocationResult> InvokeAsync(const std::string& function,
                                            semirt::InferenceRequest request,
                                            const InvokeOptions& options = {});

  const PlatformCounters& counters() const { return counters_; }

  /// The request scheduler, for its counters (admission drops by reason,
  /// dispatches, batches) and per-function queue stats.
  const sched::RequestScheduler& scheduler() const { return scheduler_; }

  /// The RT lanes (occupancy, pinning), or null while the
  /// tier is disabled.
  const RtExecutor* rt_executor() const { return rt_exec_.get(); }

  /// Requests currently queued in this platform's scheduler. One atomic
  /// read — cheap enough for the cluster router's bounded-load placement to
  /// poll on every invocation.
  size_t queue_depth() const { return scheduler_.TotalDepth(); }

  /// Requests queued in the RT-routed classes (0 while the tier is
  /// disabled): the interactive backlog the cluster autoscaler samples.
  size_t interactive_depth() const { return scheduler_.DepthInClasses(rt_mask_); }

  /// Gate the dispatcher tasks (benchmarks/tests): while paused, InvokeAsync
  /// submissions accumulate in the scheduler; Resume releases them in policy
  /// order. The destructor resumes automatically so queued work drains.
  void PauseDispatch();
  void ResumeDispatch();

  /// Reclaim containers idle longer than the keep-alive window. Called
  /// opportunistically (and rate-limited) by dispatch; exposed for tests and
  /// maintenance loops, where it always runs a full sweep.
  int ReapIdleContainers();

  /// Number of live containers for `function` ("" = all), poisoned ones
  /// included until they retire. One atomic read per function, so the
  /// cluster router can call it on every request.
  int ContainerCount(const std::string& function = "") const;

  /// Export this platform's counters, its scheduler's dispatch and
  /// admission counters, and the RT lanes into `registry` through one
  /// scrape-time collector (`sesemi_platform_*`, `sesemi_recovery_*`,
  /// `sesemi_sched_*`, `sesemi_rt_*`), and bind the per-class wait/exec
  /// histograms. The label (e.g. node="2") distinguishes platforms sharing
  /// one registry; deregistration is automatic at destruction. See
  /// docs/ARCHITECTURE.md "Observability".
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       std::vector<std::pair<std::string, std::string>> labels = {});

 private:
  /// One sandbox. `memory_bytes` and `instance` are set before the container
  /// joins its shard; the other fields are guarded by the shard's mutex.
  struct Container {
    uint64_t memory_bytes = 0;
    std::unique_ptr<semirt::SemirtInstance> instance;
    uint32_t busy = 0;         ///< TCS slots handed out, at most num_tcs
    TimeMicros last_used = 0;  ///< last release, or the launch
    /// Set at the release of a request whose ecall poisoned the enclave. A
    /// poisoned container takes no new work and retires (enclave destroyed,
    /// memory returned) at its last release.
    bool poisoned = false;
  };

  /// Per-function state: the function's containers under one mutex, taken
  /// once per acquisition, release, cold-start insertion and sweep.
  struct FunctionShard {
    explicit FunctionShard(FunctionSpec s) : spec(std::move(s)) {}

    const FunctionSpec spec;
    std::mutex mutex;
    std::vector<std::unique_ptr<Container>> containers;  ///< guarded by mutex
    /// containers.size(), stored under mutex and read without it.
    std::atomic<int> live{0};
  };

  FunctionShard* FindShard(const std::string& function) const;
  /// CAS reservation against the invoker memory budget.
  bool TryReserveMemory(uint64_t bytes);

  /// Cold-start a container for `shard`, returning it with one TCS slot
  /// already held by the caller. The launch runs outside every lock.
  Result<Container*> ColdStart(FunctionShard* shard);

  /// Take one TCS slot for `shard`: among healthy containers with a free
  /// slot, one already holding `model_id`, else the most recently released
  /// one; a cold start only when none has a free slot. Pairs with
  /// ReleaseContainer.
  Result<Container*> AcquireContainer(FunctionShard* shard,
                                      const std::string& model_id, bool* cold);
  /// Return the slot. `poison` (the ecall faulted) marks the container
  /// poisoned; a poisoned container retires at its last release.
  void ReleaseContainer(FunctionShard* shard, Container* container, bool poison);
  /// Destroy the enclave, then return the memory. Never called under a
  /// shard mutex.
  void DestroyContainer(std::unique_ptr<Container> container);

  /// Resolve `qr`'s future with `out`, stamped with the scheduler's view of
  /// the request (admission and dispatch order, queue wait up to
  /// `dispatched`). Every request popped from the scheduler — executed, shed
  /// on its deadline, or drained at shutdown — is resolved here.
  void Resolve(sched::QueuedRequest& qr, TimeMicros dispatched,
               InvocationResult out);

  /// Resolve every request still queued in the scheduler with a typed
  /// shutdown error (deadline-shed entries keep DeadlineExceeded).
  void DrainForShutdown();

  /// Dispatcher task body: pull units from the scheduler until it drains.
  void PumpScheduler();
  void MaybeSpawnDispatcher();
  /// Pop one policy-ordered unit from `classes`, resolve the requests shed on
  /// the way, and Execute it. Returns false when no unit was popped.
  bool DispatchNext(sched::ClassMask classes, int rt_lane);
  /// The one execution path: run a dispatch unit (1..n same-session requests
  /// from PopBatch) through one container slot and one enclave entry, with
  /// the dispatch-fault, deadline, poisoning and retry rules applied to the
  /// unit, then resolve every promise. `rt_lane` >= 0 tags the RT path in
  /// results and spans.
  void Execute(std::vector<sched::QueuedRequest> unit, int rt_lane);

  /// The RT lanes' pump, run once per doorbell token (one token per request
  /// queued in an RT class): pop one interactive-class unit and execute it on
  /// `lane`, the calling lane.
  void RtPump(int lane);
  /// Feed the per-class wait/exec histograms (no-op until RegisterMetrics).
  void ObserveClassLatency(int cls, TimeMicros wait, TimeMicros exec);

  void MaybeReap();
  /// Move `shard`'s idle containers past keep-alive into `expired`.
  void ReapShard(FunctionShard* shard, TimeMicros now,
                 std::vector<std::unique_ptr<Container>>* expired);

  PlatformConfig config_;
  storage::ObjectStore* storage_;
  keyservice::KeyServiceServer* keyservice_;
  std::unique_ptr<Clock> owned_clock_;
  Clock* clock_;

  /// The invoker: its SGX platform and the sandbox memory charged to it.
  sgx::SgxPlatform sgx_;
  std::atomic<uint64_t> memory_used_{0};

  /// Function table: read-shared on every invocation, written only by
  /// DeployFunction. Shard pointers are stable once inserted.
  mutable std::shared_mutex functions_mutex_;
  std::unordered_map<std::string, std::unique_ptr<FunctionShard>> functions_;

  PlatformCounters counters_;
  std::atomic<TimeMicros> last_reap_{0};

  // Recovery state (see serverless/recovery.h for the policy).
  RelaunchGate relaunch_gate_;
  JitteredBackoff retry_backoff_;
  std::atomic<int> pending_relaunches_{0};  ///< poisonings awaiting a relaunch
  std::atomic<bool> shutting_down_{false};

  /// Request scheduler (admission + fair queues + unit pop). Dispatcher
  /// tasks on the fork-join pool pull from it; their count is bounded by
  /// window_limit_ (the in-flight window).
  sched::RequestScheduler scheduler_;
  std::mutex dispatch_mutex_;
  int active_dispatchers_ = 0;  ///< guarded by dispatch_mutex_
  bool dispatch_paused_ = false;  ///< guarded by dispatch_mutex_
  int window_limit_ = 0;

  /// Execution tiers (common/rt_executor.h). The bulk dispatchers pop with
  /// bulk_mask_; RT lanes pop with rt_mask_. Tier disabled: rt_mask_ == 0
  /// and bulk_mask_ == kAllClasses, making every path bit-identical to the
  /// single-tier dispatcher.
  sched::ClassMask rt_mask_ = 0;
  sched::ClassMask bulk_mask_ = sched::kAllClasses;
  std::unique_ptr<RtExecutor> rt_exec_;  ///< reset first in the destructor

  /// Per-class latency histograms, bound at RegisterMetrics (null = not
  /// registered; the hot path pays one relaxed load to find out).
  std::array<std::atomic<obs::Histogram*>, sched::kNumPriorityClasses>
      wait_hist_{};
  std::array<std::atomic<obs::Histogram*>, sched::kNumPriorityClasses>
      exec_hist_{};

  /// Deregisters the collector before the counters it reads die.
  obs::ScopedCollector metrics_collector_;

  /// Declared last so outstanding async invocations drain before any other
  /// member is destroyed.
  TaskGroup async_tasks_;
};

}  // namespace sesemi::serverless

#endif  // SESEMI_SERVERLESS_PLATFORM_H_
