#ifndef SESEMI_MODEL_GRAPH_H_
#define SESEMI_MODEL_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace sesemi::model {

/// Activation tensor shape (height, width, channels). Dense layers flatten
/// to 1 x 1 x features.
struct TensorShape {
  int32_t h = 0;
  int32_t w = 0;
  int32_t c = 0;

  size_t elements() const {
    return static_cast<size_t>(h) * static_cast<size_t>(w) * static_cast<size_t>(c);
  }
  bool operator==(const TensorShape&) const = default;
};

/// Supported layer kinds — the operator set needed for the paper's three
/// architectures (MobileNetV1: conv + depthwise-separable; ResNet: residual
/// adds; DenseNet: channel concats).
enum class LayerKind : uint8_t {
  kInput = 0,
  kConv2d = 1,           ///< same-padding KxK convolution + bias
  kDepthwiseConv2d = 2,  ///< per-channel KxK convolution + bias
  kDense = 3,            ///< fully connected over the flattened input
  kRelu = 4,
  kMaxPool = 5,          ///< 2x2, stride 2
  kGlobalAvgPool = 6,    ///< HxWxC -> 1x1xC
  kAdd = 7,              ///< elementwise sum of two same-shape inputs
  kConcat = 8,           ///< channel concat of two same-HxW inputs
  kSoftmax = 9,          ///< over the flattened input
};

/// One node in the dataflow graph. `inputs` index earlier layers; layer 0 is
/// always the kInput placeholder. Weighted layers view a slice
/// [weight_offset, weight_offset + weight_count) of the model's weight blob.
struct Layer {
  LayerKind kind = LayerKind::kInput;
  std::string name;
  std::vector<int32_t> inputs;
  int32_t kernel = 0;        ///< conv kernel size
  int32_t stride = 1;        ///< conv stride
  int32_t out_channels = 0;  ///< conv output channels
  int32_t units = 0;         ///< dense output features
  uint64_t weight_offset = 0;
  uint64_t weight_count = 0;
  TensorShape output_shape;
};

/// A complete model: topology plus a flat float32 weight blob. This is the
/// plaintext form that exists only inside enclaves at inference time.
struct ModelGraph {
  std::string model_id;      ///< M_oid in the paper's notation
  std::string architecture;  ///< "mbnet" | "rsnet" | "dsnet"
  TensorShape input_shape;
  std::vector<Layer> layers;
  std::vector<float> weights;

  /// Approximate in-memory footprint (weights dominate).
  uint64_t WeightBytes() const { return weights.size() * sizeof(float); }

  /// Number of distinct output classes (units of the final dense layer), or
  /// 0 if the model has none.
  int32_t OutputClasses() const;

  /// Structural validation: topological input order, shape agreement for
  /// Add/Concat, weight slices within bounds, exactly one kInput at index 0.
  Status Validate() const;
};

}  // namespace sesemi::model

#endif  // SESEMI_MODEL_GRAPH_H_
