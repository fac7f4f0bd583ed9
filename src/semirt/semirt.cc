#include "semirt/semirt.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>

#include "common/faultpoint.h"
#include "model/format.h"
#include "obs/trace.h"

namespace sesemi::semirt {

namespace {
TimeMicros NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Record a just-finished pipeline stage of `duration` micros under the
/// thread-current span (the open semirt.ecall / semirt.request). StageTimings
/// marks use NowMicros (a different epoch than the tracer), so the span is
/// reconstructed backwards from the tracer's own now.
void EmitStage(const char* name, TimeMicros duration) {
  if (!obs::Tracer::Enabled()) return;
  const TimeMicros end = obs::Tracer::Now();
  obs::Tracer::EmitSpan(obs::Tracer::Current(), name,
                        end - (duration > 0 ? duration : 0), end);
}

/// The enclave image a deployment of `options` launches. It covers the
/// runtime core, the inference framework, the expected KeyService identity
/// (Appendix A), and the execution-restriction configuration (§V) — but never
/// model weights or keys. MeasurementFor (the identity users attest) and
/// Initialize (the enclave a launch creates) both build it here, so the two
/// cannot drift apart.
sgx::EnclaveImage ImageFor(const SemirtOptions& options) {
  std::vector<std::pair<std::string, Bytes>> units = {
      {"semirt-core", ToBytes("sesemi semirt runtime v1")},
      {"inference-framework",
       ToBytes(std::string("framework:") + inference::ToString(options.framework) +
               (options.quantize ? "+int8" : ""))},
      {"keyservice-identity",
       ToBytes(keyservice::KeyServiceEnclave::ExpectedMeasurement().ToHex())},
  };
  sgx::EnclaveConfig config;
  config.heap_size_bytes = options.heap_size_bytes;
  config.num_tcs = options.num_tcs;
  config.sequential_mode = options.sequential_mode;
  config.disable_key_cache = options.disable_key_cache;
  config.fixed_model_id = options.fixed_model_id;
  config.round_scores_decimals = static_cast<uint32_t>(options.round_scores_decimals);
  return sgx::EnclaveImage("semirt", std::move(units), config);
}

/// §IV-D model-extraction mitigation: quantize the raw float32 output to
/// `decimals` decimal places, in place. Runs inside the enclave before the
/// result is encrypted, so the precise scores never leave the TEE.
void RoundScores(Bytes* raw_output, int decimals) {
  if (decimals <= 0 || raw_output->size() % sizeof(float) != 0) return;
  const double factor = std::pow(10.0, decimals);
  float* values = reinterpret_cast<float*>(raw_output->data());
  size_t n = raw_output->size() / sizeof(float);
  for (size_t i = 0; i < n; ++i) {
    values[i] = static_cast<float>(
        std::round(static_cast<double>(values[i]) * factor) / factor);
  }
}
}  // namespace

const char* ToString(InvocationKind kind) {
  switch (kind) {
    case InvocationKind::kCold: return "cold";
    case InvocationKind::kWarm: return "warm";
    case InvocationKind::kHot: return "hot";
  }
  return "unknown";
}

std::string SemirtInstance::ModelObjectKey(const std::string& model_id) {
  return "models/" + model_id;
}

std::string SemirtInstance::PlainModelObjectKey(const std::string& model_id) {
  return "plainmodels/" + model_id;
}

sgx::Measurement SemirtInstance::MeasurementFor(const SemirtOptions& options) {
  return ImageFor(options).mrenclave();
}

Status ValidateOptions(const SemirtOptions& options, bool has_keyservice) {
  if (options.num_tcs < 1 || options.num_tcs > kMaxTcs) {
    return Status::InvalidArgument("num_tcs must be in [1, " +
                                   std::to_string(kMaxTcs) + "]");
  }
  if (options.mode != RuntimeMode::kUntrusted && !has_keyservice) {
    return Status::InvalidArgument("trusted modes require a KeyService");
  }
  if (options.sequential_mode && options.num_tcs != 1) {
    return Status::InvalidArgument("sequential mode requires num_tcs == 1");
  }
  if (options.mode == RuntimeMode::kNative && options.num_tcs != 1) {
    return Status::InvalidArgument(
        "the Native baseline launches one enclave per request (num_tcs == 1)");
  }
  return Status::OK();
}

Result<std::unique_ptr<SemirtInstance>> SemirtInstance::Create(
    sgx::SgxPlatform* platform, const SemirtOptions& options,
    storage::ObjectStore* storage, keyservice::KeyServiceServer* keyservice) {
  SESEMI_RETURN_IF_ERROR(ValidateOptions(options, keyservice != nullptr));
  if (storage == nullptr) {
    return Status::InvalidArgument("storage is required");
  }
  auto instance = std::unique_ptr<SemirtInstance>(
      new SemirtInstance(platform, options, storage, keyservice));
  SESEMI_RETURN_IF_ERROR(instance->Initialize());
  return instance;
}

SemirtInstance::SemirtInstance(sgx::SgxPlatform* platform, SemirtOptions options,
                               storage::ObjectStore* storage,
                               keyservice::KeyServiceServer* keyservice)
    : platform_(platform),
      options_(std::move(options)),
      storage_(storage),
      keyservice_(keyservice),
      framework_(inference::CreateFramework(
          options_.framework,
          inference::FrameworkOptions{.quantize = options_.quantize})),
      contexts_(options_.num_tcs),
      free_slot_bits_(options_.num_tcs == kMaxTcs
                          ? ~0ull
                          : (1ull << options_.num_tcs) - 1) {}

SemirtInstance::~SemirtInstance() { ClearExecutionContext(); }

Status SemirtInstance::Initialize() {
  if (options_.mode == RuntimeMode::kUntrusted) return Status::OK();
  obs::Span span(obs::spans::kEnclaveInit);
  SESEMI_ASSIGN_OR_RETURN(enclave_, platform_->CreateEnclave(ImageFor(options_)));
  link_ = std::make_unique<KeyServiceLink>(
      keyservice_, keyservice::KeyServiceEnclave::ExpectedMeasurement());
  return Status::OK();
}

Status SemirtInstance::ChargeHeap(uint64_t bytes) {
  if (enclave_ != nullptr) return enclave_->AllocateTrusted(bytes);
  uint64_t used = untrusted_heap_used_.fetch_add(bytes) + bytes;
  uint64_t peak = untrusted_heap_peak_.load();
  while (used > peak && !untrusted_heap_peak_.compare_exchange_weak(peak, used)) {
  }
  return Status::OK();
}

void SemirtInstance::FreeHeap(uint64_t bytes) {
  if (enclave_ != nullptr) {
    enclave_->FreeTrusted(bytes);
    return;
  }
  uint64_t used = untrusted_heap_used_.load();
  uint64_t clamped = bytes > used ? used : bytes;
  untrusted_heap_used_.fetch_sub(clamped);
}

uint64_t SemirtInstance::heap_peak() const {
  if (enclave_ != nullptr) return enclave_->heap_peak();
  return untrusted_heap_peak_.load();
}

int SemirtInstance::TryAcquireSlotFast() {
  // seq_cst load: pairs with ReleaseSlot's seq_cst fetch_or + waiter-count
  // check so a parked waiter's re-try is guaranteed to observe the freed bit
  // whenever the releaser skipped the notify.
  uint64_t mask = free_slot_bits_.load(std::memory_order_seq_cst);
  while (mask != 0) {
    const int slot = std::countr_zero(mask);
    if (free_slot_bits_.compare_exchange_weak(mask, mask & ~(1ull << slot),
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed)) {
      return slot;
    }
  }
  return -1;
}

int SemirtInstance::AcquireSlot() {
  int slot = TryAcquireSlotFast();
  if (slot >= 0) return slot;
  // All slots busy: park. The waiter count and the free-bit mask are both
  // seq_cst, so either the releaser's load sees our increment (and notifies
  // under the lock) or our re-try under the lock sees its freed bit — no
  // lost wakeups, and idle releases skip the lock entirely.
  std::unique_lock<std::mutex> lock(slot_mutex_);
  slot_waiters_.fetch_add(1, std::memory_order_seq_cst);
  for (;;) {
    slot = TryAcquireSlotFast();
    if (slot >= 0) {
      slot_waiters_.fetch_sub(1, std::memory_order_seq_cst);
      return slot;
    }
    slot_cv_.wait(lock);
  }
}

void SemirtInstance::ReleaseSlot(int slot) {
  free_slot_bits_.fetch_or(1ull << slot, std::memory_order_seq_cst);
  if (slot_waiters_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lock(slot_mutex_);
    slot_cv_.notify_one();
  }
}

void SemirtInstance::DropRuntimeLocked(ThreadContext* ctx) {
  if (ctx->runtime != nullptr) {
    FreeHeap(ctx->charged_bytes);
    ctx->runtime.reset();
    ctx->charged_bytes = 0;
    ctx->model_id.clear();
  }
}

Result<std::pair<Bytes, Bytes>> SemirtInstance::EnsureKeys(
    const std::string& user_id, const std::string& model_id, bool* fetched) {
  const std::string key_id = model_id + "|" + user_id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!options_.disable_key_cache && cached_key_id_ == key_id) {
      return std::make_pair(cached_model_key_, cached_request_key_);
    }
  }
  // Round trip to KeyService outside the instance lock.
  SESEMI_ASSIGN_OR_RETURN(auto keys,
                          link_->FetchKeys(enclave_.get(), user_id, model_id));
  *fetched = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.key_fetches++;
    if (!options_.disable_key_cache) {
      // Cache exactly one ⟨uid,Moid⟩ pair (Algorithm 2 line 8) so requests
      // from multiple users never share an enclave concurrently.
      cached_key_id_ = key_id;
      cached_model_key_ = keys.first;
      cached_request_key_ = keys.second;
    }
  }
  return keys;
}

Result<std::shared_ptr<inference::LoadedModel>> SemirtInstance::EnsureModel(
    const std::string& model_id, ByteSpan model_key, bool* loaded) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (loaded_model_ != nullptr && loaded_model_id_ == model_id &&
        options_.mode == RuntimeMode::kSesemi) {
      return loaded_model_;
    }
  }

  // OC_LOAD_MODEL: the untrusted side fetches the ciphertext from storage.
  if (enclave_ != nullptr) enclave_->RecordOcall();
  SESEMI_ASSIGN_OR_RETURN(Bytes sealed, storage_->Get(ModelObjectKey(model_id)));

  // The ciphertext is copied into enclave memory before decryption
  // (Appendix D: the enclave holds the encrypted copy + the decrypted model
  // at peak).
  SESEMI_RETURN_IF_ERROR(ChargeHeap(sealed.size()));
  auto decrypted = model::DecryptModel(sealed, model_key, model_id);
  if (!decrypted.ok()) {
    FreeHeap(sealed.size());
    return decrypted.status();
  }
  auto wrapped = framework_->WrapModel(std::move(*decrypted));
  if (!wrapped.ok()) {
    FreeHeap(sealed.size());
    return wrapped.status();
  }
  uint64_t model_bytes = (*wrapped)->memory_bytes();
  Status charge = ChargeHeap(model_bytes);
  // OC_FREE_LOADED: release the ciphertext staging copy.
  FreeHeap(sealed.size());
  if (enclave_ != nullptr) enclave_->RecordOcall();
  if (!charge.ok()) return charge;

  std::lock_guard<std::mutex> lock(mutex_);
  InstallModelLocked(std::move(*wrapped), model_id, model_bytes);
  *loaded = true;
  return loaded_model_;
}

void SemirtInstance::InstallModelLocked(
    std::shared_ptr<inference::LoadedModel> model, const std::string& model_id,
    uint64_t charged_bytes) {
  if (loaded_model_ != nullptr) FreeHeap(model_charged_bytes_);
  loaded_model_ = std::move(model);
  loaded_model_id_ = model_id;
  model_charged_bytes_ = charged_bytes;
  stats_.model_loads++;
  // A switch releases the old model for real: every idle slot's runtime for
  // another model (its arena, and the reference that pins that model) goes
  // with the old model's charge. A held slot keeps its runtime until its own
  // EnsureRuntime; a slot taken after the read below reaches EnsureRuntime
  // only under mutex_, so nothing executes on a dropped runtime.
  const uint64_t free_bits = free_slot_bits_.load(std::memory_order_seq_cst);
  for (size_t i = 0; i < contexts_.size(); ++i) {
    ThreadContext& ctx = contexts_[i];
    const bool idle = ((free_bits >> i) & 1) != 0;
    if (idle && ctx.model_id != model_id) DropRuntimeLocked(&ctx);
  }
}

Status SemirtInstance::EnsureRuntime(
    int slot, const std::string& model_id,
    const std::shared_ptr<inference::LoadedModel>& model, bool* inited) {
  std::unique_lock<std::mutex> lock(mutex_);
  ThreadContext& ctx = contexts_[slot];
  const bool reuse_allowed =
      options_.mode == RuntimeMode::kSesemi ||
      (options_.mode == RuntimeMode::kUntrusted && options_.reuse_model);
  const bool reusable =
      ctx.runtime != nullptr && ctx.model_id == model_id && reuse_allowed;
  if (reusable) return Status::OK();

  DropRuntimeLocked(&ctx);
  lock.unlock();

  auto runtime = framework_->CreateRuntime(model);
  if (!runtime.ok()) return runtime.status();
  uint64_t bytes = (*runtime)->buffer_bytes();
  SESEMI_RETURN_IF_ERROR(ChargeHeap(bytes));

  lock.lock();
  ctx.runtime = std::move(*runtime);
  ctx.model_id = model_id;
  ctx.charged_bytes = bytes;
  stats_.runtime_inits++;
  *inited = true;
  return Status::OK();
}

Result<Bytes> SemirtInstance::HandleRequest(const InferenceRequest& request,
                                            StageTimings* timings,
                                            const ExecDeadline* deadline) {
  return std::move(HandleRequestBatch({&request}, timings, deadline).front());
}

std::vector<Result<Bytes>> SemirtInstance::HandleRequestBatch(
    const std::vector<const InferenceRequest*>& batch, StageTimings* timings,
    const ExecDeadline* deadline) {
  std::vector<Result<Bytes>> results(
      batch.size(), Status::Aborted("request dropped before execution"));
  StageTimings local;
  StageTimings* t = timings != nullptr ? timings : &local;
  // The baselines and sequential isolation set up and tear down around every
  // request (and kUntrusted serves plaintext per request), so they run the
  // same pipeline one request per pass.
  const size_t step =
      options_.mode == RuntimeMode::kSesemi && !options_.sequential_mode
          ? batch.size()
          : 1;
  for (size_t i = 0; i < batch.size(); i += step) {
    const TimeMicros start = NowMicros();
    const std::span<Result<Bytes>> out(results.data() + i, step);
    Status shared = RunPipeline({batch.data() + i, step}, t, deadline, out);
    if (!shared.ok()) std::fill(out.begin(), out.end(), shared);
    t->total = NowMicros() - start;
  }
  return results;
}

Status SemirtInstance::RunPipeline(std::span<const InferenceRequest* const> batch,
                                   StageTimings* t, const ExecDeadline* deadline,
                                   std::span<Result<Bytes>> results) {
  const InferenceRequest& head = *batch.front();
  const bool trusted = options_.mode != RuntimeMode::kUntrusted;
  if (head.model_id.empty() || head.encrypted_input.empty() ||
      (trusted && head.user_id.empty())) {
    return Status::InvalidArgument("empty model id, user id or input");
  }
  if (!options_.fixed_model_id.empty() &&
      head.model_id != options_.fixed_model_id) {
    return Status::PermissionDenied("enclave is fixed to model " +
                                    options_.fixed_model_id);
  }
  if (deadline != nullptr && deadline->Expired()) {
    return Status::DeadlineExceeded("deadline passed before execution");
  }

  obs::Span span(obs::spans::kRequest);
  SlotGuard slot(this);
  if (!trusted) {
    results.front() = HandleUntrusted(head, slot.index(), t, deadline);
    return Status::OK();
  }
  if (options_.mode == RuntimeMode::kNative && !enclave_fresh_) {
    // Native baseline: tear down and relaunch the enclave for every request
    // (the sandbox is reused, the enclave is not — §VI "Baselines"). The
    // single TCS slot serializes requests, so this is race-free.
    ClearExecutionContext();
    enclave_.reset();
    SESEMI_RETURN_IF_ERROR(Initialize());
    std::lock_guard<std::mutex> lock(mutex_);
    enclave_fresh_ = true;
  }
  // EC_MODEL_INF: one thread enters the enclave through one TCS for the whole
  // batch — the other TCS slots stay free for concurrent traffic.
  SESEMI_FAULT_POINT(faults::kEcallEnter);
  obs::Span ecall(obs::spans::kEcall);
  ecall.set_arg("batch_size", static_cast<int64_t>(batch.size()));
  sgx::TcsGuard tcs = enclave_->EnterEcall();
  bool key_fetched = false, model_loaded = false, runtime_inited = false;

  // Shared stages, each followed by a cooperative deadline cut (never
  // mid-inference).
  TimeMicros mark = NowMicros();
  SESEMI_ASSIGN_OR_RETURN(auto keys,
                          EnsureKeys(head.user_id, head.model_id, &key_fetched));
  t->key_fetch = NowMicros() - mark;
  EmitStage(obs::spans::kKeyFetch, t->key_fetch);
  if (deadline != nullptr) SESEMI_RETURN_IF_ERROR(deadline->Check("key fetch"));

  mark = NowMicros();
  SESEMI_ASSIGN_OR_RETURN(std::shared_ptr<inference::LoadedModel> model,
                          EnsureModel(head.model_id, keys.first, &model_loaded));
  t->model_load = NowMicros() - mark;
  EmitStage(obs::spans::kModelLoad, t->model_load);
  if (deadline != nullptr) SESEMI_RETURN_IF_ERROR(deadline->Check("model load"));

  mark = NowMicros();
  SESEMI_RETURN_IF_ERROR(
      EnsureRuntime(slot.index(), head.model_id, model, &runtime_inited));
  t->runtime_init = NowMicros() - mark;
  EmitStage(obs::spans::kRuntimeInit, t->runtime_init);
  if (deadline != nullptr) SESEMI_RETURN_IF_ERROR(deadline->Check("runtime init"));

  mark = NowMicros();
  // One K_R cipher context for the whole batch: the AES key schedule + GHASH
  // tables are built once here instead of once per decrypt/encrypt.
  SESEMI_ASSIGN_OR_RETURN(RequestCipher cipher, RequestCipher::Create(keys.second));
  // Decrypt per request; a bad ciphertext (or a mixed-in foreign request)
  // drops only that entry from the execution batch.
  std::vector<Bytes> plain(batch.size());
  std::vector<size_t> live;
  live.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const InferenceRequest& request = *batch[i];
    if (request.model_id != head.model_id || request.user_id != head.user_id) {
      results[i] = Status::InvalidArgument(
          "batch mixes models or users at index " + std::to_string(i));
      continue;
    }
    auto input = cipher.DecryptRequest(request.model_id, request.encrypted_input);
    if (!input.ok()) {
      results[i] = input.status();
      continue;
    }
    plain[i] = std::move(*input);
    live.push_back(i);
  }
  EmitStage(obs::spans::kDecrypt, NowMicros() - mark);

  int served = 0;
  if (!live.empty()) {
    std::vector<ByteSpan> inputs;
    inputs.reserve(live.size());
    for (size_t i : live) inputs.push_back(plain[i]);
    TimeMicros stage_mark = NowMicros();
    auto outputs = [&]() -> Result<std::vector<Bytes>> {
      std::unique_lock<std::mutex> lock(mutex_);
      inference::ModelRuntime* runtime = contexts_[slot.index()].runtime.get();
      lock.unlock();
      return runtime->ExecuteBatch(inputs);
    }();
    EmitStage(obs::spans::kInference, NowMicros() - stage_mark);
    stage_mark = NowMicros();
    if (!outputs.ok()) {
      for (size_t i : live) results[i] = outputs.status();
    } else {
      for (size_t k = 0; k < live.size(); ++k) {
        Bytes& output = (*outputs)[k];
        RoundScores(&output, options_.round_scores_decimals);
        results[live[k]] = cipher.EncryptResult(head.model_id, output);
        if (results[live[k]].ok()) served++;
      }
      EmitStage(obs::spans::kEncrypt, NowMicros() - stage_mark);
    }
  }
  t->execute = NowMicros() - mark;

  std::lock_guard<std::mutex> lock(mutex_);
  CountInvocationLocked(key_fetched || model_loaded || runtime_inited, served, t);
  if (options_.sequential_mode) {
    // Strong isolation (§V, Table II): return the enclave to a state holding
    // only the loaded model — drop runtimes and cached keys.
    DropRuntimeLocked(&contexts_[slot.index()]);
    cached_key_id_.clear();
    cached_model_key_.clear();
    cached_request_key_.clear();
  }
  return Status::OK();
}

void SemirtInstance::CountInvocationLocked(bool setup_ran, int served,
                                           StageTimings* timings) {
  if (served == 0) return;  // nothing served: the next request keeps its kind
  if (enclave_fresh_) {
    timings->kind = InvocationKind::kCold;
    stats_.cold_invocations += served;
    enclave_fresh_ = false;
  } else if (setup_ran) {
    timings->kind = InvocationKind::kWarm;
    stats_.warm_invocations += served;
  } else {
    timings->kind = InvocationKind::kHot;
    stats_.hot_invocations += served;
  }
  stats_.requests += served;
}

Result<Bytes> SemirtInstance::HandleUntrusted(const InferenceRequest& request,
                                              int slot, StageTimings* timings,
                                              const ExecDeadline* deadline) {
  bool model_loaded = false, runtime_inited = false;

  // Plaintext model path (no keys, no attestation).
  TimeMicros mark = NowMicros();
  std::shared_ptr<inference::LoadedModel> model;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (loaded_model_ != nullptr && loaded_model_id_ == request.model_id &&
        options_.reuse_model) {
      model = loaded_model_;
    }
  }
  if (model == nullptr) {
    SESEMI_ASSIGN_OR_RETURN(Bytes plain,
                            storage_->Get(PlainModelObjectKey(request.model_id)));
    SESEMI_ASSIGN_OR_RETURN(model, framework_->LoadModel(plain));
    uint64_t bytes = model->memory_bytes();
    SESEMI_RETURN_IF_ERROR(ChargeHeap(bytes));
    std::lock_guard<std::mutex> lock(mutex_);
    InstallModelLocked(model, request.model_id, bytes);
    model_loaded = true;
  }
  timings->model_load = NowMicros() - mark;
  EmitStage(obs::spans::kModelLoad, timings->model_load);
  if (deadline != nullptr) SESEMI_RETURN_IF_ERROR(deadline->Check("model load"));

  mark = NowMicros();
  SESEMI_RETURN_IF_ERROR(
      EnsureRuntime(slot, request.model_id, model, &runtime_inited));
  timings->runtime_init = NowMicros() - mark;
  EmitStage(obs::spans::kRuntimeInit, timings->runtime_init);
  if (deadline != nullptr) {
    SESEMI_RETURN_IF_ERROR(deadline->Check("runtime init"));
  }

  mark = NowMicros();
  Result<Bytes> output = [&]() -> Result<Bytes> {
    std::unique_lock<std::mutex> lock(mutex_);
    inference::ModelRuntime* runtime = contexts_[slot].runtime.get();
    lock.unlock();
    return runtime->Execute(request.encrypted_input);  // plaintext in this mode
  }();
  if (!output.ok()) return output.status();
  timings->execute = NowMicros() - mark;
  EmitStage(obs::spans::kInference, timings->execute);

  std::lock_guard<std::mutex> lock(mutex_);
  CountInvocationLocked(model_loaded || runtime_inited, 1, timings);
  return *output;
}

void SemirtInstance::ClearExecutionContext() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (ThreadContext& ctx : contexts_) DropRuntimeLocked(&ctx);
  if (loaded_model_ != nullptr) {
    FreeHeap(model_charged_bytes_);
    loaded_model_.reset();
    loaded_model_id_.clear();
    model_charged_bytes_ = 0;
  }
  cached_key_id_.clear();
  cached_model_key_.clear();
  cached_request_key_.clear();
}

std::string SemirtInstance::loaded_model_id() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return loaded_model_id_;
}

SemirtStats SemirtInstance::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace sesemi::semirt
