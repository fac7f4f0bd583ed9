#ifndef SESEMI_MODEL_QUANTIZE_H_
#define SESEMI_MODEL_QUANTIZE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "model/graph.h"

namespace sesemi::model {

/// Int8 weights for one quantizable layer (kConv2d / kDense): the layer's
/// K x N GEMM weight matrix quantized symmetrically per output channel
/// (column j covers [-127, 127] with scale[j] = absmax(column j) / 127, no
/// zero-point), the layout every int8 GEMM tier consumes after packing.
/// Biases stay fp32 in the graph's weight blob.
struct LayerQuant {
  int32_t layer = -1;  ///< index into ModelGraph::layers
  int32_t k = 0;       ///< GEMM K (kernel*kernel*in_c, or dense in_features)
  int32_t n = 0;       ///< GEMM N (out_channels, or dense units)
  std::vector<float> scales;    ///< n per-output-channel scales
  std::vector<int8_t> weights;  ///< k*n row-major quantized matrix
};

/// Quantized weights for every quantizable layer of one model, in layer
/// order. Produced at MODEL_LOAD by QuantizeModelWeights (or parsed from a
/// version-2 model file).
struct ModelQuant {
  std::vector<LayerQuant> layers;

  bool empty() const { return layers.empty(); }
};

/// True for layer kinds the int8 tier executes (kConv2d, kDense with a full
/// fp32 weight matrix). Depthwise convolutions stay fp32: their per-channel
/// GEMV strips are memory-bound on the activation stream, not the weights.
bool LayerQuantizable(const Layer& layer);

/// Quantize every quantizable layer of `graph` (which must carry full fp32
/// weights). Symmetric per-output-channel: scale[j] = absmax(col j)/127
/// (1.0 for an all-zero column), q = clamp(lrintf(w/scale), -127, 127).
ModelQuant QuantizeModelWeights(const ModelGraph& graph);

/// Reconstruct the fp32 matrix of one quantized layer: out[i*n + j] =
/// weights[i*n + j] * scales[j]. `out` must hold k*n floats. (Accuracy
/// analysis and tests; the runtime never dequantizes weights.)
void DequantizeLayer(const LayerQuant& lq, float* out);

/// Drop the fp32 weight matrices of every layer in `quant` from the graph's
/// weight blob — keeping biases and all non-quantized weights — and rewrite
/// every layer's weight_offset/weight_count for the compacted blob. This is
/// the memory story of the int8 tier: the int8 panels replace the fp32
/// matrices instead of sitting next to them. Each quantized layer's slice
/// must be either the full k*n + n floats (matrix then bias — it gets
/// compacted) or already bias-only (left as is); anything else fails.
Status CompactQuantizedWeights(ModelGraph* graph, const ModelQuant& quant);

}  // namespace sesemi::model

#endif  // SESEMI_MODEL_QUANTIZE_H_
