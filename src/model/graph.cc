#include "model/graph.h"

namespace sesemi::model {

int32_t ModelGraph::OutputClasses() const {
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
    if (it->kind == LayerKind::kDense) return it->units;
  }
  return 0;
}

Status ModelGraph::Validate() const {
  if (layers.empty() || layers[0].kind != LayerKind::kInput) {
    return Status::InvalidArgument("model must start with an input layer");
  }
  if (input_shape.elements() == 0) {
    return Status::InvalidArgument("empty input shape");
  }
  if (layers[0].output_shape != input_shape) {
    return Status::InvalidArgument("input layer shape mismatch");
  }
  for (size_t i = 0; i < layers.size(); ++i) {
    const Layer& layer = layers[i];
    if (i > 0 && layer.kind == LayerKind::kInput) {
      return Status::InvalidArgument("multiple input layers");
    }
    if (i > 0 && layer.inputs.empty()) {
      return Status::InvalidArgument("layer " + layer.name + " has no inputs");
    }
    for (int32_t in : layer.inputs) {
      if (in < 0 || static_cast<size_t>(in) >= i) {
        return Status::InvalidArgument("layer " + layer.name +
                                       " references a non-earlier layer");
      }
    }
    if (layer.weight_count > 0) {
      uint64_t end = layer.weight_offset + layer.weight_count;
      if (end > weights.size() || end < layer.weight_offset) {
        return Status::InvalidArgument("layer " + layer.name +
                                       " weight slice out of bounds");
      }
    }
    switch (layer.kind) {
      case LayerKind::kAdd: {
        if (layer.inputs.size() != 2) {
          return Status::InvalidArgument("add layer needs exactly 2 inputs");
        }
        const auto& a = layers[layer.inputs[0]].output_shape;
        const auto& b = layers[layer.inputs[1]].output_shape;
        if (!(a == b)) {
          return Status::InvalidArgument("add layer shape mismatch at " + layer.name);
        }
        break;
      }
      case LayerKind::kConcat: {
        if (layer.inputs.size() != 2) {
          return Status::InvalidArgument("concat layer needs exactly 2 inputs");
        }
        const auto& a = layers[layer.inputs[0]].output_shape;
        const auto& b = layers[layer.inputs[1]].output_shape;
        if (a.h != b.h || a.w != b.w) {
          return Status::InvalidArgument("concat layer spatial mismatch at " +
                                         layer.name);
        }
        break;
      }
      case LayerKind::kConv2d:
      case LayerKind::kDepthwiseConv2d:
        if (layer.kernel <= 0 || layer.stride <= 0) {
          return Status::InvalidArgument("bad conv params at " + layer.name);
        }
        break;
      case LayerKind::kDense:
        if (layer.units <= 0) {
          return Status::InvalidArgument("bad dense units at " + layer.name);
        }
        break;
      default:
        break;
    }
    if (layer.output_shape.elements() == 0) {
      return Status::InvalidArgument("layer " + layer.name + " has empty output");
    }
  }
  return Status::OK();
}

}  // namespace sesemi::model
