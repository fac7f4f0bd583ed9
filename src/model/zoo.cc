#include "model/zoo.h"

#include <cmath>
#include <cstring>

#include "common/rng.h"

namespace sesemi::model {

const char* ToString(Architecture arch) {
  switch (arch) {
    case Architecture::kMbNet: return "mbnet";
    case Architecture::kRsNet: return "rsnet";
    case Architecture::kDsNet: return "dsnet";
    case Architecture::kHybNet: return "hybnet";
  }
  return "unknown";
}

uint64_t PaperModelBytes(Architecture arch) {
  switch (arch) {
    case Architecture::kMbNet: return 17ull << 20;
    case Architecture::kRsNet: return 170ull << 20;
    case Architecture::kDsNet: return 44ull << 20;
    case Architecture::kHybNet: return 64ull << 20;
  }
  return 0;
}

namespace {

/// Incrementally assembles a ModelGraph, computing shapes and initializing
/// weights with fan-in-scaled Gaussians.
class GraphBuilder {
 public:
  GraphBuilder(const ZooSpec& spec)
      : rng_(spec.seed) {
    graph_.model_id = spec.model_id;
    graph_.architecture = ToString(spec.arch);
    graph_.input_shape = {spec.input_hw, spec.input_hw, 3};
    Layer input;
    input.kind = LayerKind::kInput;
    input.name = "input";
    input.output_shape = graph_.input_shape;
    graph_.layers.push_back(input);
  }

  int32_t last() const { return static_cast<int32_t>(graph_.layers.size()) - 1; }
  const TensorShape& shape_of(int32_t idx) const {
    return graph_.layers[idx].output_shape;
  }

  int32_t Conv(int32_t from, int k, int stride, int out_c) {
    const TensorShape& in = shape_of(from);
    Layer layer;
    layer.kind = LayerKind::kConv2d;
    layer.name = "conv" + std::to_string(last() + 1);
    layer.inputs = {from};
    layer.kernel = k;
    layer.stride = stride;
    layer.out_channels = out_c;
    layer.output_shape = {(in.h + stride - 1) / stride, (in.w + stride - 1) / stride,
                          out_c};
    uint64_t count = static_cast<uint64_t>(k) * k * in.c * out_c + out_c;
    AttachWeights(&layer, count, static_cast<uint64_t>(k) * k * in.c);
    return Push(std::move(layer));
  }

  int32_t DepthwiseConv(int32_t from, int k, int stride) {
    const TensorShape& in = shape_of(from);
    Layer layer;
    layer.kind = LayerKind::kDepthwiseConv2d;
    layer.name = "dwconv" + std::to_string(last() + 1);
    layer.inputs = {from};
    layer.kernel = k;
    layer.stride = stride;
    layer.out_channels = in.c;
    layer.output_shape = {(in.h + stride - 1) / stride, (in.w + stride - 1) / stride,
                          in.c};
    uint64_t count = static_cast<uint64_t>(k) * k * in.c + in.c;
    AttachWeights(&layer, count, static_cast<uint64_t>(k) * k);
    return Push(std::move(layer));
  }

  int32_t Dense(int32_t from, int units) {
    uint64_t in_features = shape_of(from).elements();
    Layer layer;
    layer.kind = LayerKind::kDense;
    layer.name = "dense" + std::to_string(last() + 1);
    layer.inputs = {from};
    layer.units = units;
    layer.output_shape = {1, 1, units};
    AttachWeights(&layer, in_features * units + units, in_features);
    return Push(std::move(layer));
  }

  int32_t Relu(int32_t from) {
    Layer layer;
    layer.kind = LayerKind::kRelu;
    layer.name = "relu" + std::to_string(last() + 1);
    layer.inputs = {from};
    layer.output_shape = shape_of(from);
    return Push(std::move(layer));
  }

  int32_t MaxPool(int32_t from) {
    const TensorShape& in = shape_of(from);
    Layer layer;
    layer.kind = LayerKind::kMaxPool;
    layer.name = "maxpool" + std::to_string(last() + 1);
    layer.inputs = {from};
    layer.output_shape = {(in.h + 1) / 2, (in.w + 1) / 2, in.c};
    return Push(std::move(layer));
  }

  int32_t GlobalAvgPool(int32_t from) {
    Layer layer;
    layer.kind = LayerKind::kGlobalAvgPool;
    layer.name = "gap" + std::to_string(last() + 1);
    layer.inputs = {from};
    layer.output_shape = {1, 1, shape_of(from).c};
    return Push(std::move(layer));
  }

  int32_t Add(int32_t a, int32_t b) {
    Layer layer;
    layer.kind = LayerKind::kAdd;
    layer.name = "add" + std::to_string(last() + 1);
    layer.inputs = {a, b};
    layer.output_shape = shape_of(a);
    return Push(std::move(layer));
  }

  int32_t Concat(int32_t a, int32_t b) {
    const TensorShape& sa = shape_of(a);
    const TensorShape& sb = shape_of(b);
    Layer layer;
    layer.kind = LayerKind::kConcat;
    layer.name = "concat" + std::to_string(last() + 1);
    layer.inputs = {a, b};
    layer.output_shape = {sa.h, sa.w, sa.c + sb.c};
    return Push(std::move(layer));
  }

  int32_t Softmax(int32_t from) {
    Layer layer;
    layer.kind = LayerKind::kSoftmax;
    layer.name = "softmax" + std::to_string(last() + 1);
    layer.inputs = {from};
    layer.output_shape = shape_of(from);
    return Push(std::move(layer));
  }

  uint64_t weight_count() const { return graph_.weights.size(); }

  ModelGraph Finish() { return std::move(graph_); }

 private:
  int32_t Push(Layer layer) {
    graph_.layers.push_back(std::move(layer));
    return last();
  }

  void AttachWeights(Layer* layer, uint64_t count, uint64_t fan_in) {
    layer->weight_offset = graph_.weights.size();
    layer->weight_count = count;
    float sigma = 1.0f / std::sqrt(static_cast<float>(fan_in > 0 ? fan_in : 1));
    graph_.weights.reserve(graph_.weights.size() + count);
    for (uint64_t i = 0; i < count; ++i) {
      graph_.weights.push_back(static_cast<float>(rng_.Gaussian()) * sigma);
    }
  }

  ModelGraph graph_;
  Rng rng_;
};

int32_t BuildMbNetBackbone(GraphBuilder* b) {
  // MobileNetV1 flavour: stem conv then depthwise-separable blocks with
  // channel doubling, spatial reduction via stride-2 depthwise convs.
  int32_t x = b->Conv(0, 3, 2, 16);
  x = b->Relu(x);
  int channels[] = {16, 32, 32, 64};
  for (int c : channels) {
    x = b->DepthwiseConv(x, 3, 1);
    x = b->Relu(x);
    x = b->Conv(x, 1, 1, c);  // pointwise
    x = b->Relu(x);
  }
  x = b->MaxPool(x);
  return b->GlobalAvgPool(x);
}

int32_t BuildRsNetBackbone(GraphBuilder* b) {
  // ResNet flavour: stages of pre-activation residual blocks; ResNet101 is
  // the deepest of the three, so this backbone has the most layers.
  int32_t x = b->Conv(0, 3, 1, 8);
  x = b->Relu(x);
  int stage_channels[] = {8, 12, 16};
  for (size_t stage = 0; stage < 3; ++stage) {
    int c = stage_channels[stage];
    if (stage > 0) {
      x = b->Conv(x, 1, 1, c);  // projection to the new width
      x = b->MaxPool(x);
    }
    for (int block = 0; block < 3; ++block) {
      int32_t shortcut = x;
      int32_t y = b->Conv(x, 3, 1, c);
      y = b->Relu(y);
      y = b->Conv(y, 3, 1, c);
      x = b->Add(y, shortcut);
      x = b->Relu(x);
    }
  }
  return b->GlobalAvgPool(x);
}

int32_t BuildDsNetBackbone(GraphBuilder* b) {
  // DenseNet flavour: dense blocks where each conv's output is concatenated
  // onto the running feature map; transitions halve channels and resolution.
  constexpr int kGrowth = 8;
  int32_t x = b->Conv(0, 3, 1, 16);
  x = b->Relu(x);
  for (int block = 0; block < 2; ++block) {
    for (int conv = 0; conv < 3; ++conv) {
      int32_t y = b->Conv(x, 3, 1, kGrowth);
      y = b->Relu(y);
      x = b->Concat(x, y);
    }
    int c = b->shape_of(x).c / 2;
    x = b->Conv(x, 1, 1, c);  // transition
    x = b->MaxPool(x);
  }
  return b->GlobalAvgPool(x);
}

int32_t BuildHybNetBackbone(GraphBuilder* b) {
  // Mixed conv/dense scenario model: deeper than the three reproductions,
  // with residual stages whose channel counts (24/40/72) sit off the 16-wide
  // panel grid — every conv hits the packed-GEMM ragged edge — plus a dense
  // trunk ahead of the sized classifier head so more than one fully
  // connected layer rides the packed GEMV path.
  int32_t x = b->Conv(0, 3, 1, 24);
  x = b->Relu(x);
  int stage_channels[] = {24, 40, 72};
  for (size_t stage = 0; stage < 3; ++stage) {
    int c = stage_channels[stage];
    if (stage > 0) {
      x = b->Conv(x, 3, 2, c);  // strided reduction into the new width
      x = b->Relu(x);
    }
    for (int block = 0; block < 2; ++block) {
      int32_t shortcut = x;
      int32_t y = b->Conv(x, 3, 1, c);
      y = b->Relu(y);
      y = b->Conv(y, 1, 1, c);  // pointwise mix
      x = b->Add(y, shortcut);
      x = b->Relu(x);
    }
  }
  x = b->GlobalAvgPool(x);
  x = b->Dense(x, 96);
  return b->Relu(x);
}

}  // namespace

Result<ModelGraph> BuildModel(const ZooSpec& spec) {
  if (spec.scale <= 0 || spec.input_hw < 8 || spec.classes < 2) {
    return Status::InvalidArgument("bad zoo spec");
  }
  GraphBuilder b(spec);
  int32_t features;
  switch (spec.arch) {
    case Architecture::kMbNet: features = BuildMbNetBackbone(&b); break;
    case Architecture::kRsNet: features = BuildRsNetBackbone(&b); break;
    case Architecture::kDsNet: features = BuildDsNetBackbone(&b); break;
    case Architecture::kHybNet: features = BuildHybNetBackbone(&b); break;
    default: return Status::InvalidArgument("bad architecture");
  }

  // Size the classifier head so the serialized model hits the target.
  uint64_t target_bytes =
      static_cast<uint64_t>(spec.scale * static_cast<double>(PaperModelBytes(spec.arch)));
  uint64_t backbone_weights = b.weight_count();
  uint64_t feature_count = b.shape_of(features).elements();
  // Serialized size ~= 4 * weights + layer-table overhead (~100 B / layer).
  uint64_t overhead = 4096;
  uint64_t target_weights = target_bytes > overhead ? (target_bytes - overhead) / 4 : 0;
  if (target_weights < backbone_weights + feature_count * 2) {
    return Status::InvalidArgument(
        "target size too small for the " + std::string(ToString(spec.arch)) +
        " backbone; need >= " +
        std::to_string((backbone_weights + feature_count * 2) * 4 + overhead) +
        " bytes");
  }
  uint64_t remaining = target_weights - backbone_weights;
  // hidden layer: f*u + u weights; head: u*classes + classes.
  uint64_t denom = feature_count + 1 + static_cast<uint64_t>(spec.classes);
  uint64_t hidden_units =
      (remaining - static_cast<uint64_t>(spec.classes)) / denom;
  if (hidden_units == 0) hidden_units = 1;

  int32_t x = b.Dense(features, static_cast<int32_t>(hidden_units));
  x = b.Relu(x);
  x = b.Dense(x, spec.classes);
  b.Softmax(x);

  ModelGraph graph = b.Finish();
  SESEMI_RETURN_IF_ERROR(graph.Validate());
  return graph;
}

Bytes GenerateRandomInput(const ModelGraph& graph, uint64_t seed) {
  Rng rng(seed);
  size_t n = graph.input_shape.elements();
  std::vector<float> values(n);
  for (size_t i = 0; i < n; ++i) {
    values[i] = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
  }
  Bytes out(n * sizeof(float));
  std::memcpy(out.data(), values.data(), out.size());
  return out;
}

Result<std::vector<float>> ParseOutput(ByteSpan raw) {
  if (raw.size() % sizeof(float) != 0) {
    return Status::Corruption("output size not a multiple of float");
  }
  std::vector<float> values(raw.size() / sizeof(float));
  std::memcpy(values.data(), raw.data(), raw.size());
  return values;
}

}  // namespace sesemi::model
