#include "model/quantize.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace sesemi::model {

bool LayerQuantizable(const Layer& layer) {
  return layer.kind == LayerKind::kConv2d || layer.kind == LayerKind::kDense;
}

namespace {

/// GEMM dims of a quantizable layer (K = patch / in_features, N = columns).
void GemmDims(const ModelGraph& graph, const Layer& layer, int32_t* k,
              int32_t* n) {
  const TensorShape& in = graph.layers[layer.inputs[0]].output_shape;
  if (layer.kind == LayerKind::kConv2d) {
    *k = layer.kernel * layer.kernel * in.c;
    *n = layer.out_channels;
  } else {
    *k = static_cast<int32_t>(in.elements());
    *n = layer.units;
  }
}

}  // namespace

ModelQuant QuantizeModelWeights(const ModelGraph& graph) {
  ModelQuant quant;
  for (size_t i = 0; i < graph.layers.size(); ++i) {
    const Layer& layer = graph.layers[i];
    if (!LayerQuantizable(layer)) continue;
    LayerQuant lq;
    lq.layer = static_cast<int32_t>(i);
    GemmDims(graph, layer, &lq.k, &lq.n);
    const uint64_t matrix = static_cast<uint64_t>(lq.k) * lq.n;
    if (layer.weight_count != matrix + lq.n) continue;  // not a full fp32 slice
    const float* w = graph.weights.data() + layer.weight_offset;

    lq.scales.assign(lq.n, 0.0f);
    for (int32_t r = 0; r < lq.k; ++r) {
      const float* row = w + static_cast<uint64_t>(r) * lq.n;
      for (int32_t j = 0; j < lq.n; ++j) {
        lq.scales[j] = std::max(lq.scales[j], std::fabs(row[j]));
      }
    }
    for (float& s : lq.scales) s = s > 0.0f ? s / 127.0f : 1.0f;

    lq.weights.resize(matrix);
    for (int32_t r = 0; r < lq.k; ++r) {
      const float* row = w + static_cast<uint64_t>(r) * lq.n;
      int8_t* qrow = lq.weights.data() + static_cast<uint64_t>(r) * lq.n;
      for (int32_t j = 0; j < lq.n; ++j) {
        const long q = std::lrintf(row[j] / lq.scales[j]);
        qrow[j] = static_cast<int8_t>(std::min<long>(127, std::max<long>(-127, q)));
      }
    }
    quant.layers.push_back(std::move(lq));
  }
  return quant;
}

void DequantizeLayer(const LayerQuant& lq, float* out) {
  for (int32_t r = 0; r < lq.k; ++r) {
    const int8_t* qrow = lq.weights.data() + static_cast<uint64_t>(r) * lq.n;
    float* row = out + static_cast<uint64_t>(r) * lq.n;
    for (int32_t j = 0; j < lq.n; ++j) {
      row[j] = static_cast<float>(qrow[j]) * lq.scales[j];
    }
  }
}

Status CompactQuantizedWeights(ModelGraph* graph, const ModelQuant& quant) {
  std::vector<const LayerQuant*> by_layer(graph->layers.size(), nullptr);
  for (const LayerQuant& lq : quant.layers) {
    if (lq.layer < 0 ||
        static_cast<size_t>(lq.layer) >= graph->layers.size()) {
      return Status::InvalidArgument("quantized layer index out of range");
    }
    by_layer[lq.layer] = &lq;
  }

  // Rebuild the blob from the layer slices in blob order, so relative layout
  // is preserved no matter how the original blob was laid out.
  std::vector<size_t> order;
  for (size_t i = 0; i < graph->layers.size(); ++i) {
    if (graph->layers[i].weight_count > 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return graph->layers[a].weight_offset < graph->layers[b].weight_offset;
  });

  std::vector<float> compact;
  compact.reserve(graph->weights.size());
  for (size_t i : order) {
    Layer& layer = graph->layers[i];
    const uint64_t end = layer.weight_offset + layer.weight_count;
    if (end > graph->weights.size() || end < layer.weight_offset) {
      return Status::InvalidArgument("layer " + layer.name +
                                     " weight slice out of bounds");
    }
    const float* src = graph->weights.data() + layer.weight_offset;
    const uint64_t new_offset = compact.size();
    const LayerQuant* lq = by_layer[i];
    if (lq != nullptr &&
        layer.weight_count == static_cast<uint64_t>(lq->n)) {
      lq = nullptr;  // already compacted to bias-only: plain copy below
    }
    if (lq != nullptr) {
      const uint64_t matrix = static_cast<uint64_t>(lq->k) * lq->n;
      if (layer.weight_count != matrix + lq->n) {
        return Status::InvalidArgument(
            "layer " + layer.name +
            " slice matches neither a full fp32 matrix+bias nor a bias");
      }
      compact.insert(compact.end(), src + matrix, src + matrix + lq->n);
      layer.weight_count = lq->n;  // bias only
    } else {
      compact.insert(compact.end(), src, src + layer.weight_count);
    }
    layer.weight_offset = new_offset;
  }
  graph->weights = std::move(compact);
  return Status::OK();
}

}  // namespace sesemi::model
