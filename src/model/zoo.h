#ifndef SESEMI_MODEL_ZOO_H_
#define SESEMI_MODEL_ZOO_H_

#include "common/result.h"
#include "model/graph.h"

namespace sesemi::model {

/// The three architectures the paper evaluates (Table I), plus kHybNet — a
/// deeper mixed conv/dense scenario model (not from the paper) whose channel
/// counts sit off the 16-wide GEMM panel grid, so the packed-conv edge paths
/// and the batch-parallel executor run on a non-trivial graph in benches.
enum class Architecture { kMbNet, kRsNet, kDsNet, kHybNet };

const char* ToString(Architecture arch);

/// Serialized size of the paper's models (Table I): MobileNetV1 17 MB,
/// ResNet101v2 170 MB, DenseNet121 44 MB. kHybNet is not a paper model; its
/// nominal full-scale size is 64 MB.
uint64_t PaperModelBytes(Architecture arch);

/// Specification for a synthetic model.
///
/// The builder lays down the architecture's characteristic backbone
/// (depthwise-separable convs for MBNET, residual blocks for RSNET, dense
/// concat blocks for DSNET) and then sizes a classifier head so the
/// *serialized* model lands within ~1% of `scale * PaperModelBytes(arch)`.
/// Tests use small scales; full-scale builds reproduce Table I.
struct ZooSpec {
  std::string model_id = "m0";
  Architecture arch = Architecture::kMbNet;
  double scale = 0.01;  ///< fraction of the paper's model size
  int32_t input_hw = 32;
  int32_t classes = 10;
  uint64_t seed = 0x5e5e;
};

/// Build a synthetic model per `spec`. Fails if the target size is too small
/// to fit the backbone (raise `scale`).
Result<ModelGraph> BuildModel(const ZooSpec& spec);

/// A random well-scaled input tensor for `graph`, serialized as raw float32
/// bytes (the request payload format).
Bytes GenerateRandomInput(const ModelGraph& graph, uint64_t seed);

/// Deserialize an Execute() output buffer (raw float32) into scores.
Result<std::vector<float>> ParseOutput(ByteSpan raw);

}  // namespace sesemi::model

#endif  // SESEMI_MODEL_ZOO_H_
