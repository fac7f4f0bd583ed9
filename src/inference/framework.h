#ifndef SESEMI_INFERENCE_FRAMEWORK_H_
#define SESEMI_INFERENCE_FRAMEWORK_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "model/graph.h"

namespace sesemi::inference {

/// The two inference frameworks the paper integrates with SeMIRT (§V):
/// TFLM (TensorFlow Lite Micro — an interpreter with a small scratch arena)
/// and TVM (an ahead-of-time graph executor whose runtime buffers also hold
/// packed copies of the weights). The contrast in buffer footprint and
/// init/exec cost is load-bearing for Figures 8-12.
enum class FrameworkKind { kTflm, kTvm };

const char* ToString(FrameworkKind kind);
Result<FrameworkKind> FrameworkFromString(const std::string& name);

/// A decrypted, deserialized model held in (enclave) memory — the product of
/// the MODEL_LOAD inference API (Figure 5). Shared by all runtimes in the
/// enclave; SeMIRT keeps exactly one per enclave at a time.
class LoadedModel {
 public:
  virtual ~LoadedModel() = default;
  virtual const model::ModelGraph& graph() const = 0;
  /// Trusted-heap bytes this object accounts for.
  virtual uint64_t memory_bytes() const = 0;
};

/// A per-thread model runtime — the product of RUNTIME_INIT. Owns the
/// framework-specific execution buffers (TCS-local in SeMIRT).
class ModelRuntime {
 public:
  virtual ~ModelRuntime() = default;
  virtual const std::string& model_id() const = 0;
  /// Trusted-heap bytes of this runtime's buffers (Table I buffer sizes).
  virtual uint64_t buffer_bytes() const = 0;
  /// MODEL_EXEC + PREPARE_OUTPUT: run inference on a raw float32 input and
  /// serialize the output scores as raw float32.
  virtual Result<Bytes> Execute(ByteSpan input) = 0;

  /// Batched MODEL_EXEC for the scheduler's same-model coalescer: one call,
  /// `inputs.size()` samples, outputs in input order and numerically equal to
  /// per-sample Execute. The base implementation loops Execute; the executor-
  /// backed runtimes override it to feed the batch dimension through the
  /// multi-row GEMM path (see CompiledModel::ExecuteBatch). The batch
  /// activation arena is transient per call — it is working-set scratch, not
  /// part of the runtime's resident buffer_bytes() footprint.
  virtual Result<std::vector<Bytes>> ExecuteBatch(const std::vector<ByteSpan>& inputs);
};

/// Factory for loaded models and runtimes. Both kinds share one executor
/// implementation: TVM packs weights at MODEL_LOAD, TFLM reads them in place.
/// A model loaded under one kind is rejected by the other's CreateRuntime.
class InferenceFramework {
 public:
  virtual ~InferenceFramework() = default;
  virtual FrameworkKind kind() const = 0;
  const char* name() const { return ToString(kind()); }

  /// MODEL_LOAD: parse (already decrypted) model bytes.
  virtual Result<std::shared_ptr<LoadedModel>> LoadModel(ByteSpan plain_model) const = 0;

  /// Wrap an in-memory graph without reserialization (fast path for tests
  /// and for SeMIRT, which decrypts straight to a graph).
  virtual Result<std::shared_ptr<LoadedModel>> WrapModel(model::ModelGraph graph) const = 0;

  /// RUNTIME_INIT: build a runtime over a loaded model.
  virtual Result<std::unique_ptr<ModelRuntime>> CreateRuntime(
      std::shared_ptr<const LoadedModel> loaded) const = 0;
};

/// Deployment-time framework configuration (part of the enclave identity
/// when SeMIRT creates the framework — see SemirtOptions).
struct FrameworkOptions {
  /// Compile models through the int8 tier (CompiledModel::Options::quantize):
  /// weights quantized at MODEL_LOAD, ~4x smaller resident artifacts,
  /// int8 GEMM execution. Version-2 (pre-quantized) model files always load
  /// quantized regardless of this flag — their fp32 matrices are not on the
  /// wire.
  bool quantize = false;
};

/// Create the framework implementation for `kind`.
std::unique_ptr<InferenceFramework> CreateFramework(FrameworkKind kind);
std::unique_ptr<InferenceFramework> CreateFramework(FrameworkKind kind,
                                                    const FrameworkOptions& options);

}  // namespace sesemi::inference

#endif  // SESEMI_INFERENCE_FRAMEWORK_H_
