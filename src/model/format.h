#ifndef SESEMI_MODEL_FORMAT_H_
#define SESEMI_MODEL_FORMAT_H_

#include "common/bytes.h"
#include "common/result.h"
#include "model/graph.h"
#include "model/quantize.h"

namespace sesemi::model {

/// Binary model format version understood by this build.
constexpr uint32_t kModelFormatVersion = 1;

/// Version 2 adds a trailing int8 weight section: per quantized layer, the
/// per-output-channel scales and the K x N int8 matrix. The fp32 weight blob
/// of a version-2 model is normally compacted (CompactQuantizedWeights) so
/// quantized matrices are carried once, as int8 — roughly 4x smaller on the
/// wire and in enclave memory.
constexpr uint32_t kModelFormatVersionInt8 = 2;

/// Serialize a model to the SeSeMI binary format:
///   magic "SSMI" | version | header (id, arch, input shape) |
///   layer table | weight blob.
/// The layout carries no checksum: integrity comes from the AES-GCM tag of
/// the sealed model (EncryptModel), which binds every byte to K_M and the
/// model id before the parser sees it.
Bytes SerializeModel(const ModelGraph& graph);

/// Parse and validate a serialized model. Rejects bad magic, unsupported
/// versions, truncated layer tables, counts larger than the bytes left,
/// weight-blob size mismatches, and graphs that fail ModelGraph::Validate().
/// Total over hostile bytes: any input yields a model or a Corruption /
/// InvalidArgument status, and no buffer is sized by an unchecked count.
/// Version-2 (quantized) models are rejected here — their fp32 blob is
/// compacted, so callers must go through ParseQuantizedModel to get the int8
/// weights too.
Result<ModelGraph> ParseModel(ByteSpan wire);

/// A parsed model together with its int8 weight section (empty for
/// version-1 files).
struct QuantizedModelFile {
  ModelGraph graph;
  ModelQuant quant;
};

/// Serialize a model with its int8 weight section (format version 2).
/// `graph` is written as passed — normally after CompactQuantizedWeights, so
/// the fp32 blob carries only biases and non-quantized weights.
Bytes SerializeQuantizedModel(const ModelGraph& graph, const ModelQuant& quant);

/// Parse either format version: version 1 yields an empty quant section,
/// version 2 yields the int8 weights alongside the (compacted) graph.
Result<QuantizedModelFile> ParseQuantizedModel(ByteSpan wire);

/// Encrypt a serialized model under the owner's model key K_M, binding the
/// model id as AAD so a ciphertext cannot be re-labelled as another model.
/// Layout: nonce || ciphertext || tag (GcmSeal).
Result<Bytes> EncryptModel(const ModelGraph& graph, ByteSpan model_key);

/// Decrypt + parse an encrypted model: one AES-GCM open, then one copy from
/// the plaintext into the weight vector. `model_id` must match the AAD used
/// at encryption time (SeMIRT passes the id from the request); a wrong key,
/// id or any flipped byte returns Unauthenticated.
Result<ModelGraph> DecryptModel(ByteSpan sealed, ByteSpan model_key,
                                const std::string& model_id);

}  // namespace sesemi::model

#endif  // SESEMI_MODEL_FORMAT_H_
