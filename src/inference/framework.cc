// The two inference frameworks (paper Table I, §VI-A) are one executor over a
// CompiledModel; they differ only in what MODEL_LOAD leaves resident:
//  - µTVM (compiled-executor semantics): MODEL_LOAD re-lays every Dense/Conv
//    weight matrix into the 16-wide B panels the GEMM micro-kernels consume,
//    as the real TVM emits per-operator packed layouts ahead of time. The
//    packed artifact is resident next to the model, so the loaded model
//    exceeds the model size (λ > 1) and load cost scales with the model.
//  - µTFLM (interpreter semantics): the loaded model is the single source of
//    weights and execution reads them in place (no packing), so the resident
//    footprint is ~the serialized model (λ = buffer/model ≈ 0.14-0.29) and
//    execution over row-major weights is slower than TVM's packed executor.
// Both compile the execution plan at MODEL_LOAD (arena offsets, scratch
// bounds, batch strides — cheap), so Execute does no per-request shape math,
// and RUNTIME_INIT is just the activation arena: runtimes share the immutable
// compiled artifact, so N TCS slots serve one model without N weight copies.
#include "inference/framework.h"

#include <memory>

#include "inference/compiled_model.h"
#include "model/format.h"

namespace sesemi::inference {
namespace {

class CompiledLoadedModel final : public LoadedModel {
 public:
  CompiledLoadedModel(FrameworkKind kind, CompiledModel compiled)
      : kind_(kind), compiled_(std::move(compiled)) {}

  const model::ModelGraph& graph() const override { return compiled_.graph(); }
  uint64_t memory_bytes() const override {
    // The compiled artifact: weights + any packed panels built at MODEL_LOAD
    // (TVM's fp32 panels, or the int8 tier's quantized panels that replace
    // the fp32 matrices — a net shrink), plus per-layer plan metadata.
    // Enclave heap accounting (and through it the platform's node
    // reservation) charges this figure.
    return graph().WeightBytes() + compiled_.packed_weight_bytes() +
           graph().layers.size() * 128;
  }
  FrameworkKind kind() const { return kind_; }
  const CompiledModel& compiled() const { return compiled_; }

 private:
  FrameworkKind kind_;
  CompiledModel compiled_;
};

class CompiledRuntime final : public ModelRuntime {
 public:
  explicit CompiledRuntime(std::shared_ptr<const CompiledLoadedModel> loaded)
      : loaded_(std::move(loaded)),
        arena_(loaded_->compiled().arena_elements(), 0.0f) {}

  const std::string& model_id() const override {
    return loaded_->graph().model_id;
  }

  uint64_t buffer_bytes() const override {
    // Per-TCS state is only the activation arena; the weights (packed or
    // not) are the loaded model's, shared and counted once in memory_bytes().
    return arena_.size() * sizeof(float);
  }

  Result<Bytes> Execute(ByteSpan input) override {
    return loaded_->compiled().Execute(input, arena_.data());
  }

  Result<std::vector<Bytes>> ExecuteBatch(
      const std::vector<ByteSpan>& inputs) override {
    if (inputs.size() <= 1) return ModelRuntime::ExecuteBatch(inputs);
    // Grow-only uninitialized batch arena, cached across batches. Safe: the
    // runtime is exclusive to one TCS slot, and every arena slot is written
    // before it is read (kInput copies, each layer fills its output, im2col
    // zero-fills its padding taps).
    const uint64_t need = loaded_->compiled().batch_arena_elements(
        static_cast<int>(inputs.size()));
    if (batch_arena_capacity_ < need) {
      batch_arena_ = std::unique_ptr<float[]>(new float[need]);
      batch_arena_capacity_ = need;
    }
    std::vector<Bytes> outputs;
    SESEMI_RETURN_IF_ERROR(loaded_->compiled().ExecuteBatch(
        inputs, batch_arena_.get(), &outputs));
    return outputs;
  }

 private:
  std::shared_ptr<const CompiledLoadedModel> loaded_;
  std::vector<float> arena_;
  std::unique_ptr<float[]> batch_arena_;
  uint64_t batch_arena_capacity_ = 0;
};

class CompiledFramework final : public InferenceFramework {
 public:
  CompiledFramework(FrameworkKind kind, const FrameworkOptions& options)
      : kind_(kind), options_(options) {}

  FrameworkKind kind() const override { return kind_; }

  Result<std::shared_ptr<LoadedModel>> LoadModel(ByteSpan plain_model) const override {
    SESEMI_ASSIGN_OR_RETURN(model::QuantizedModelFile file,
                            model::ParseQuantizedModel(plain_model));
    if (file.quant.empty()) return WrapModel(std::move(file.graph));
    // Pre-quantized (version-2) file: its fp32 matrices are not on the wire,
    // so it always compiles through the int8 tier. (TFLite Micro likewise
    // executes int8 flatbuffers with int8 kernels.)
    SESEMI_ASSIGN_OR_RETURN(
        CompiledModel compiled,
        CompiledModel::Compile(std::move(file.graph), std::move(file.quant),
                               CompileOptions()));
    return Wrap(std::move(compiled));
  }

  Result<std::shared_ptr<LoadedModel>> WrapModel(model::ModelGraph graph) const override {
    CompiledModel::Options options = CompileOptions();
    options.quantize = options_.quantize;
    SESEMI_ASSIGN_OR_RETURN(CompiledModel compiled,
                            CompiledModel::Compile(std::move(graph), options));
    return Wrap(std::move(compiled));
  }

  Result<std::unique_ptr<ModelRuntime>> CreateRuntime(
      std::shared_ptr<const LoadedModel> loaded) const override {
    auto typed = std::dynamic_pointer_cast<const CompiledLoadedModel>(loaded);
    if (typed == nullptr || typed->kind() != kind_) {
      return Status::InvalidArgument(std::string("model was not loaded by the ") +
                                     name() + " framework");
    }
    return std::unique_ptr<ModelRuntime>(
        std::make_unique<CompiledRuntime>(std::move(typed)));
  }

 private:
  CompiledModel::Options CompileOptions() const {
    CompiledModel::Options options;
    options.pack_weights = kind_ == FrameworkKind::kTvm;
    return options;
  }

  Result<std::shared_ptr<LoadedModel>> Wrap(CompiledModel compiled) const {
    return std::shared_ptr<LoadedModel>(
        std::make_shared<CompiledLoadedModel>(kind_, std::move(compiled)));
  }

  FrameworkKind kind_;
  FrameworkOptions options_;
};

}  // namespace

Result<std::vector<Bytes>> ModelRuntime::ExecuteBatch(
    const std::vector<ByteSpan>& inputs) {
  std::vector<Bytes> outputs;
  outputs.reserve(inputs.size());
  for (const ByteSpan& input : inputs) {
    SESEMI_ASSIGN_OR_RETURN(Bytes out, Execute(input));
    outputs.push_back(std::move(out));
  }
  return outputs;
}

const char* ToString(FrameworkKind kind) {
  return kind == FrameworkKind::kTflm ? "tflm" : "tvm";
}

Result<FrameworkKind> FrameworkFromString(const std::string& name) {
  if (name == "tflm") return FrameworkKind::kTflm;
  if (name == "tvm") return FrameworkKind::kTvm;
  return Status::InvalidArgument("unknown framework: " + name);
}

std::unique_ptr<InferenceFramework> CreateFramework(FrameworkKind kind) {
  return CreateFramework(kind, FrameworkOptions());
}

std::unique_ptr<InferenceFramework> CreateFramework(FrameworkKind kind,
                                                    const FrameworkOptions& options) {
  return std::make_unique<CompiledFramework>(kind, options);
}

}  // namespace sesemi::inference
