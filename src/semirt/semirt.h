#ifndef SESEMI_SEMIRT_SEMIRT_H_
#define SESEMI_SEMIRT_SEMIRT_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "inference/framework.h"
#include "keyservice/keyservice.h"
#include "semirt/keyservice_link.h"
#include "semirt/request_codec.h"
#include "sgx/platform.h"
#include "storage/object_store.h"

namespace sesemi::semirt {

/// Execution strategy of a serverless instance. kSesemi is this paper's
/// runtime; the others are the evaluation baselines (§VI):
///  - kIsoReuse  — S-FaaS/Clemmys-style: reuse enclave + decryption keys, but
///    reload the model and re-initialize the runtime for every request.
///  - kNative    — existing serverless runtimes: a fresh enclave per request.
///  - kUntrusted — no TEE, plaintext models and requests (Figure 9's
///    "Untrusted"); model reuse across requests gives "Untrusted (reuse)".
enum class RuntimeMode { kSesemi, kIsoReuse, kNative, kUntrusted };

/// Classification of an invocation per Figure 4.
enum class InvocationKind { kCold, kWarm, kHot };

const char* ToString(InvocationKind kind);

/// Deployment-time configuration. Everything here except `heap_size_bytes`
/// defaults is part of the enclave identity (MeasurementFor), matching §V.
struct SemirtOptions {
  inference::FrameworkKind framework = inference::FrameworkKind::kTvm;
  /// Compile models through the int8 quantized tier (see
  /// inference::FrameworkOptions::quantize). Changes the numbers a model
  /// produces, so it is part of the enclave identity: users attesting the
  /// enclave see whether their requests run int8 or fp32.
  bool quantize = false;
  RuntimeMode mode = RuntimeMode::kSesemi;
  uint32_t num_tcs = 1;
  uint64_t heap_size_bytes = 256ull << 20;
  bool sequential_mode = false;    ///< Table II: strict per-request isolation
  bool disable_key_cache = false;  ///< part of sequential isolation build
  std::string fixed_model_id;      ///< restrict the enclave to one model
  bool reuse_model = true;         ///< kUntrusted only: cache the loaded model
  /// §IV-D model-extraction mitigation: round output confidence scores to
  /// this many decimal places before encryption (0 = disabled). Part of the
  /// enclave identity, so users can verify the policy is actually enforced.
  int round_scores_decimals = 0;
};

/// Most TCS slots one instance may have: a slot is one bit of a 64-bit
/// free-slot mask.
inline constexpr uint32_t kMaxTcs = 64;

/// The launch's checks on `options` alone: num_tcs in [1, kMaxTcs], one TCS
/// for sequential mode and for the Native baseline, and a KeyService for
/// every trusted mode. SemirtInstance::Create runs them at every launch; a
/// platform runs them at deploy (ServerlessPlatform::DeployFunction), so a
/// spec no launch can take is refused before it reaches a cold start.
Status ValidateOptions(const SemirtOptions& options, bool has_keyservice);

/// Per-request stage timings (live-mode measurements; the sim substitutes its
/// calibrated cost model for the same stages).
struct StageTimings {
  InvocationKind kind = InvocationKind::kHot;
  TimeMicros key_fetch = 0;     ///< attestation + KEY_PROVISIONING
  TimeMicros model_load = 0;    ///< storage fetch + copy-in + decrypt + parse
  TimeMicros runtime_init = 0;  ///< RUNTIME_INIT
  TimeMicros execute = 0;       ///< decrypt input + MODEL_EXEC + encrypt result
  TimeMicros total = 0;
};

/// Cooperative execution deadline. The pipeline checks it *between* stages
/// (after key fetch, model load, runtime init) — never mid-inference, so a
/// started MODEL_EXEC always runs to completion — and cuts the request with
/// kDeadlineExceeded once `clock->Now() >= deadline`. DeadlineEdf sheds only
/// at dispatch; this catches requests that start in time but overrun on a
/// cold path.
struct ExecDeadline {
  TimeMicros deadline = 0;
  const Clock* clock = nullptr;

  bool Expired() const { return clock != nullptr && clock->Now() >= deadline; }
  Status Check(const char* stage) const {
    if (!Expired()) return Status::OK();
    return Status::DeadlineExceeded(std::string("deadline cut after ") + stage);
  }
};

/// Cumulative instance statistics.
struct SemirtStats {
  uint64_t cold_invocations = 0;
  uint64_t warm_invocations = 0;
  uint64_t hot_invocations = 0;
  uint64_t key_fetches = 0;
  uint64_t model_loads = 0;
  uint64_t runtime_inits = 0;
  uint64_t requests = 0;
};

/// One serverless sandbox running the SeMIRT runtime (Figure 6): an enclave
/// with a shared decrypted-model cache, a single cached ⟨uid,Moid⟩ key pair,
/// and per-TCS thread contexts holding model runtimes.
///
/// \par Thread-safety contract
///  - HandleRequest / HandleRequestBatch may be called from any number of
///    threads concurrently; at most `num_tcs` execute inside at once (one
///    slot per pass, whatever its batch size), the rest block on TCS slot
///    acquisition exactly as on real SGX. Slot acquisition is a lock-free
///    CAS on a 64-bit free-slot mask; waiting uses a condition variable.
///  - A thread holding a slot has exclusive use of that slot's ThreadContext
///    (its model runtime and activation buffers); the instance mutex guards
///    the shared state — loaded-model cache, key cache, statistics — and the
///    contexts of idle slots, and is never held across model execution or
///    KeyService round trips.
///  - A model switch drops, under the instance mutex, the runtime of every
///    idle slot built for another model, so the old model and its arenas are
///    released with its heap charge. A held slot keeps its runtime until its
///    own EnsureRuntime. A slot taken after the switch read the free-slot
///    bits reaches EnsureRuntime only under the instance mutex, so nothing
///    executes on a dropped runtime.
///  - Concurrent EnsureKeys / EnsureModel for the same (user, model) may
///    both do the fetch/load; the second write wins and the duplicate work
///    is benign (both produce identical state).
///  - ClearExecutionContext must not race with in-flight HandleRequest calls
///    (it tears down the runtimes those requests execute on); callers
///    serialize externally — the platform only invokes it on idle containers.
///  - stats(), heap_peak(), loaded_model_id() are safe at any time.
class SemirtInstance {
 public:
  /// Launch the instance: creates the enclave (the expensive part of a cold
  /// start) and connects the KeyService link. `options` must pass
  /// ValidateOptions; `keyservice` may be null only in kUntrusted mode and
  /// must outlive the instance, whose destructor disconnects its session.
  static Result<std::unique_ptr<SemirtInstance>> Create(
      sgx::SgxPlatform* platform, const SemirtOptions& options,
      storage::ObjectStore* storage, keyservice::KeyServiceServer* keyservice);

  ~SemirtInstance();

  /// The enclave identity E_S a deployment of `options` will have. Model
  /// owners and users derive this from the published code + configuration to
  /// write access-control entries (§III).
  static sgx::Measurement MeasurementFor(const SemirtOptions& options);

  /// ECALL EC_MODEL_INF + EC_GET_OUTPUT for one request: a one-element
  /// HandleRequestBatch. Returns the result encrypted under the request key
  /// (raw output in kUntrusted mode).
  Result<Bytes> HandleRequest(const InferenceRequest& request,
                              StageTimings* timings = nullptr,
                              const ExecDeadline* deadline = nullptr);

  /// The trusted pipeline. Serves a same-user, same-model batch (the
  /// platform's dispatch unit, 1..n requests) through ONE TCS slot and ONE
  /// enclave entry: keys, model, and runtime are ensured once, inputs are
  /// decrypted individually, inference runs as one batched MODEL_EXEC
  /// (multi-row GEMM), and each result is sealed under the shared request
  /// key. Returns per-request results in request order. A failed shared stage
  /// (validation, ecall entry, key fetch, model load, runtime init) fails
  /// every request of the pass with its status; a request that fails
  /// decryption gets its own error without failing the rest. Entries whose
  /// user or model differ from the first request's are rejected with
  /// InvalidArgument (the key cache holds one ⟨uid,Moid⟩ pair — mixing would
  /// leak across sessions).
  ///
  /// The baseline modes and sequential isolation builds set up and tear down
  /// around every request, so they run the same pipeline one request per
  /// pass; kUntrusted runs its plaintext pipeline per request. `deadline`
  /// (optional) is checked before the slot is taken and cooperatively
  /// between stages; an expired deadline cuts the pass with
  /// kDeadlineExceeded. `timings` receives the (last) pass's stage timings,
  /// shared by its requests.
  std::vector<Result<Bytes>> HandleRequestBatch(
      const std::vector<const InferenceRequest*>& batch,
      StageTimings* timings = nullptr, const ExecDeadline* deadline = nullptr);

  /// ECALL EC_CLEAR_EXEC_CTX: drop all thread-local runtimes, the cached
  /// model, and cached keys, returning the enclave to its post-init state.
  void ClearExecutionContext();

  const SemirtOptions& options() const { return options_; }
  sgx::Enclave* enclave() { return enclave_.get(); }  ///< null in kUntrusted
  SemirtStats stats() const;

  /// Peak trusted-heap usage (Figure 10's measurement).
  uint64_t heap_peak() const;

  /// Currently loaded model id (empty if none) — used by schedulers that
  /// prefer hot containers.
  std::string loaded_model_id() const;

  /// Storage key where model `id`'s ciphertext lives.
  static std::string ModelObjectKey(const std::string& model_id);
  /// Storage key for the plaintext copy used by the untrusted baselines.
  static std::string PlainModelObjectKey(const std::string& model_id);

 private:
  struct ThreadContext {
    std::string model_id;
    std::unique_ptr<inference::ModelRuntime> runtime;
    uint64_t charged_bytes = 0;
  };

  SemirtInstance(sgx::SgxPlatform* platform, SemirtOptions options,
                 storage::ObjectStore* storage,
                 keyservice::KeyServiceServer* keyservice);

  /// Holds one TCS slot for its scope.
  class SlotGuard {
   public:
    explicit SlotGuard(SemirtInstance* instance)
        : instance_(instance), index_(instance->AcquireSlot()) {}
    ~SlotGuard() { instance_->ReleaseSlot(index_); }
    SlotGuard(const SlotGuard&) = delete;
    SlotGuard& operator=(const SlotGuard&) = delete;
    int index() const { return index_; }

   private:
    SemirtInstance* instance_;
    int index_;
  };

  Status Initialize();
  /// One pass of the pipeline over `batch` (one session). A non-OK return is
  /// a shared-stage failure for every request of the pass; otherwise
  /// `results` holds one result per request.
  Status RunPipeline(std::span<const InferenceRequest* const> batch,
                     StageTimings* timings, const ExecDeadline* deadline,
                     std::span<Result<Bytes>> results);
  Result<Bytes> HandleUntrusted(const InferenceRequest& request, int slot,
                                StageTimings* timings,
                                const ExecDeadline* deadline);
  /// Classify a pass per Figure 4 and count its `served` requests (none
  /// served: nothing changes). Requires mutex_.
  void CountInvocationLocked(bool setup_ran, int served, StageTimings* timings);

  /// Ensure (K_M, K_R) for (uid, Moid) are available, honoring the one-pair
  /// key cache. Sets *fetched if a KeyService round trip happened.
  Result<std::pair<Bytes, Bytes>> EnsureKeys(const std::string& user_id,
                                             const std::string& model_id,
                                             bool* fetched);

  /// Ensure the target model is the loaded model (OC_LOAD_MODEL + decrypt +
  /// MODEL_LOAD). Sets *loaded if a load happened.
  Result<std::shared_ptr<inference::LoadedModel>> EnsureModel(
      const std::string& model_id, ByteSpan model_key, bool* loaded);

  /// Make `model` the loaded model, moving the heap charge to it and dropping
  /// every idle slot's runtime for another model. Requires mutex_.
  void InstallModelLocked(std::shared_ptr<inference::LoadedModel> model,
                          const std::string& model_id, uint64_t charged_bytes);

  /// Ensure slot's runtime targets `model_id`. Sets *inited on RUNTIME_INIT.
  Status EnsureRuntime(int slot, const std::string& model_id,
                       const std::shared_ptr<inference::LoadedModel>& model,
                       bool* inited);

  int AcquireSlot();
  int TryAcquireSlotFast();
  void ReleaseSlot(int slot);
  void DropRuntimeLocked(ThreadContext* ctx);
  Status ChargeHeap(uint64_t bytes);
  void FreeHeap(uint64_t bytes);

  sgx::SgxPlatform* platform_;
  SemirtOptions options_;
  storage::ObjectStore* storage_;
  keyservice::KeyServiceServer* keyservice_;

  std::unique_ptr<sgx::Enclave> enclave_;
  std::unique_ptr<KeyServiceLink> link_;
  std::unique_ptr<inference::InferenceFramework> framework_;

  mutable std::mutex mutex_;
  std::vector<ThreadContext> contexts_;

  // TCS slot pool. Acquisition is a CAS on the free-bit mask (bit i set =
  // slot i free), so the request hot path never takes a lock;
  // slot_mutex_/slot_cv_ only park threads when every slot is busy.
  std::atomic<uint64_t> free_slot_bits_;
  std::atomic<int> slot_waiters_{0};  ///< parked threads; gates the notify
  std::mutex slot_mutex_;
  std::condition_variable slot_cv_;

  // Shared (enclave-heap) state: one model, one key pair (Algorithm 2).
  std::shared_ptr<inference::LoadedModel> loaded_model_;
  std::string loaded_model_id_;
  uint64_t model_charged_bytes_ = 0;
  std::string cached_key_id_;  // Moid|uid
  Bytes cached_model_key_;
  Bytes cached_request_key_;

  bool enclave_fresh_ = true;  // next request is the cold one
  SemirtStats stats_;
  // Heap accounting for kUntrusted (no enclave). Atomic so Charge/Free are
  // safe from paths that already hold mutex_.
  std::atomic<uint64_t> untrusted_heap_peak_{0};
  std::atomic<uint64_t> untrusted_heap_used_{0};
};

}  // namespace sesemi::semirt

#endif  // SESEMI_SEMIRT_SEMIRT_H_
