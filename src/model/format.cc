#include "model/format.h"

#include <cstring>

#include "crypto/gcm.h"

namespace sesemi::model {

namespace {
constexpr char kMagic[4] = {'S', 'S', 'M', 'I'};

constexpr size_t kShapeBytes = 3 * sizeof(uint32_t);
/// A layer entry with an empty name and no inputs: kind, name length, input
/// count, kernel/stride/out_channels/units, weight offset/count, shape.
constexpr size_t kMinLayerEntryBytes = sizeof(uint8_t) + 2 * sizeof(uint32_t) +
                                       4 * sizeof(uint32_t) +
                                       2 * sizeof(uint64_t) + kShapeBytes;

void WriteShape(ByteWriter* w, const TensorShape& s) {
  w->WriteUint32(static_cast<uint32_t>(s.h));
  w->WriteUint32(static_cast<uint32_t>(s.w));
  w->WriteUint32(static_cast<uint32_t>(s.c));
}

bool ReadShape(ByteReader* r, TensorShape* s) {
  uint32_t h, w, c;
  if (!r->ReadUint32(&h) || !r->ReadUint32(&w) || !r->ReadUint32(&c)) return false;
  s->h = static_cast<int32_t>(h);
  s->w = static_cast<int32_t>(w);
  s->c = static_cast<int32_t>(c);
  return true;
}

/// Exact size of WriteCommonBody's output.
size_t CommonBodyBytes(const ModelGraph& graph) {
  // Magic, version, id, architecture, input shape, layer count.
  size_t bytes = sizeof(kMagic) + sizeof(uint32_t) +
                 sizeof(uint32_t) + graph.model_id.size() +
                 sizeof(uint32_t) + graph.architecture.size() + kShapeBytes +
                 sizeof(uint32_t);
  for (const Layer& layer : graph.layers) {
    bytes += kMinLayerEntryBytes + layer.name.size() +
             layer.inputs.size() * sizeof(uint32_t);
  }
  return bytes + sizeof(uint64_t) + graph.weights.size() * sizeof(float);
}

/// Read `count` elements straight into `out`. The count is checked against
/// the bytes left before `out` is sized, so a forged count can neither
/// allocate more than the blob carries nor wrap `count * sizeof(T)`.
template <typename T>
bool ReadVector(ByteReader* r, uint64_t count, std::vector<T>* out) {
  if (count > r->remaining() / sizeof(T)) return false;
  out->resize(count);
  return r->ReadInto(out->data(), count * sizeof(T));
}

/// Everything both versions share: magic, version, header, layer table, fp32
/// weight blob.
void WriteCommonBody(ByteWriter* w, const ModelGraph& graph, uint32_t version) {
  w->WriteBytes(ByteSpan(reinterpret_cast<const uint8_t*>(kMagic), 4));
  w->WriteUint32(version);
  w->WriteLengthPrefixedString(graph.model_id);
  w->WriteLengthPrefixedString(graph.architecture);
  WriteShape(w, graph.input_shape);

  w->WriteUint32(static_cast<uint32_t>(graph.layers.size()));
  for (const Layer& layer : graph.layers) {
    w->WriteUint8(static_cast<uint8_t>(layer.kind));
    w->WriteLengthPrefixedString(layer.name);
    w->WriteUint32(static_cast<uint32_t>(layer.inputs.size()));
    for (int32_t in : layer.inputs) w->WriteUint32(static_cast<uint32_t>(in));
    w->WriteUint32(static_cast<uint32_t>(layer.kernel));
    w->WriteUint32(static_cast<uint32_t>(layer.stride));
    w->WriteUint32(static_cast<uint32_t>(layer.out_channels));
    w->WriteUint32(static_cast<uint32_t>(layer.units));
    w->WriteUint64(layer.weight_offset);
    w->WriteUint64(layer.weight_count);
    WriteShape(w, layer.output_shape);
  }

  w->WriteUint64(graph.weights.size());
  // Weights are stored little-endian IEEE-754, i.e. memcpy on the platforms
  // we target; a portability shim would go here for big-endian hosts.
  const uint8_t* raw = reinterpret_cast<const uint8_t*>(graph.weights.data());
  w->WriteBytes(ByteSpan(raw, graph.weights.size() * sizeof(float)));
}

/// Magic + version. On success `*r` is positioned after the version field.
Status OpenBody(ByteReader* r, uint32_t* version) {
  char magic[sizeof(kMagic)];
  if (!r->ReadInto(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad model magic");
  }
  if (!r->ReadUint32(version)) return Status::Corruption("truncated model header");
  return Status::OK();
}

/// Header + layer table + weight blob (the part shared by both versions).
/// Does not validate the graph; version-2 callers parse the quant section
/// first.
Status ParseCommonBody(ByteReader* r, bool expect_more, ModelGraph* graph) {
  if (!r->ReadLengthPrefixedString(&graph->model_id) ||
      !r->ReadLengthPrefixedString(&graph->architecture) ||
      !ReadShape(r, &graph->input_shape)) {
    return Status::Corruption("truncated model header");
  }

  uint32_t layer_count = 0;
  if (!r->ReadUint32(&layer_count)) return Status::Corruption("truncated layer table");
  if (layer_count > r->remaining() / kMinLayerEntryBytes) {
    return Status::Corruption("layer count exceeds the blob");
  }
  graph->layers.reserve(layer_count);
  for (uint32_t i = 0; i < layer_count; ++i) {
    Layer layer;
    uint8_t kind = 0;
    uint32_t input_count = 0;
    if (!r->ReadUint8(&kind) || kind > static_cast<uint8_t>(LayerKind::kSoftmax) ||
        !r->ReadLengthPrefixedString(&layer.name) || !r->ReadUint32(&input_count) ||
        input_count > 16) {
      return Status::Corruption("truncated layer entry");
    }
    layer.kind = static_cast<LayerKind>(kind);
    layer.inputs.resize(input_count);
    for (uint32_t j = 0; j < input_count; ++j) {
      uint32_t in = 0;
      if (!r->ReadUint32(&in)) return Status::Corruption("truncated layer inputs");
      layer.inputs[j] = static_cast<int32_t>(in);
    }
    uint32_t kernel, stride, out_channels, units;
    if (!r->ReadUint32(&kernel) || !r->ReadUint32(&stride) ||
        !r->ReadUint32(&out_channels) || !r->ReadUint32(&units) ||
        !r->ReadUint64(&layer.weight_offset) || !r->ReadUint64(&layer.weight_count) ||
        !ReadShape(r, &layer.output_shape)) {
      return Status::Corruption("truncated layer entry");
    }
    layer.kernel = static_cast<int32_t>(kernel);
    layer.stride = static_cast<int32_t>(stride);
    layer.out_channels = static_cast<int32_t>(out_channels);
    layer.units = static_cast<int32_t>(units);
    graph->layers.push_back(std::move(layer));
  }

  uint64_t weight_count = 0;
  if (!r->ReadUint64(&weight_count)) return Status::Corruption("truncated weights");
  // Weights are little-endian IEEE-754, copied once from the blob.
  if (!ReadVector(r, weight_count, &graph->weights) ||
      (!expect_more && r->remaining() != 0)) {
    return Status::Corruption("weight blob size mismatch");
  }
  return Status::OK();
}

Status ParseQuantSection(ByteReader* r, const ModelGraph& graph,
                         ModelQuant* quant) {
  uint32_t count = 0;
  if (!r->ReadUint32(&count)) return Status::Corruption("truncated quant section");
  if (count > graph.layers.size()) {
    return Status::Corruption("quant section names more layers than the model has");
  }
  quant->layers.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    LayerQuant lq;
    uint32_t layer = 0, k = 0, n = 0;
    if (!r->ReadUint32(&layer) || !r->ReadUint32(&k) || !r->ReadUint32(&n)) {
      return Status::Corruption("truncated quant entry");
    }
    if (layer >= graph.layers.size() || !LayerQuantizable(graph.layers[layer])) {
      return Status::Corruption("quant entry names a non-quantizable layer");
    }
    if (k == 0 || n == 0 || static_cast<uint64_t>(k) * n > (1ull << 28)) {
      return Status::Corruption("absurd quant matrix dims");
    }
    lq.layer = static_cast<int32_t>(layer);
    lq.k = static_cast<int32_t>(k);
    lq.n = static_cast<int32_t>(n);

    if (!ReadVector(r, n, &lq.scales) ||
        !ReadVector(r, static_cast<uint64_t>(k) * n, &lq.weights)) {
      return Status::Corruption("truncated quant entry");
    }
    quant->layers.push_back(std::move(lq));
  }
  if (r->remaining() != 0) return Status::Corruption("trailing bytes after quant section");
  return Status::OK();
}

}  // namespace

Bytes SerializeModel(const ModelGraph& graph) {
  ByteWriter w;
  w.Reserve(CommonBodyBytes(graph));
  WriteCommonBody(&w, graph, kModelFormatVersion);
  return std::move(w).Take();
}

Bytes SerializeQuantizedModel(const ModelGraph& graph, const ModelQuant& quant) {
  size_t quant_bytes = sizeof(uint32_t);
  for (const LayerQuant& lq : quant.layers) {
    quant_bytes += 3 * sizeof(uint32_t) + lq.scales.size() * sizeof(float) +
                   lq.weights.size();
  }
  ByteWriter w;
  w.Reserve(CommonBodyBytes(graph) + quant_bytes);
  WriteCommonBody(&w, graph, kModelFormatVersionInt8);
  w.WriteUint32(static_cast<uint32_t>(quant.layers.size()));
  for (const LayerQuant& lq : quant.layers) {
    w.WriteUint32(static_cast<uint32_t>(lq.layer));
    w.WriteUint32(static_cast<uint32_t>(lq.k));
    w.WriteUint32(static_cast<uint32_t>(lq.n));
    w.WriteBytes(ByteSpan(reinterpret_cast<const uint8_t*>(lq.scales.data()),
                          lq.scales.size() * sizeof(float)));
    w.WriteBytes(ByteSpan(reinterpret_cast<const uint8_t*>(lq.weights.data()),
                          lq.weights.size()));
  }
  return std::move(w).Take();
}

Result<ModelGraph> ParseModel(ByteSpan wire) {
  ByteReader r(wire);
  uint32_t version = 0;
  SESEMI_RETURN_IF_ERROR(OpenBody(&r, &version));
  if (version == kModelFormatVersionInt8) {
    return Status::InvalidArgument(
        "model is int8-quantized (format version 2); use ParseQuantizedModel");
  }
  if (version != kModelFormatVersion) {
    return Status::InvalidArgument("unsupported model format version " +
                                   std::to_string(version));
  }
  ModelGraph graph;
  SESEMI_RETURN_IF_ERROR(ParseCommonBody(&r, /*expect_more=*/false, &graph));
  SESEMI_RETURN_IF_ERROR(graph.Validate());
  return graph;
}

Result<QuantizedModelFile> ParseQuantizedModel(ByteSpan wire) {
  ByteReader r(wire);
  uint32_t version = 0;
  SESEMI_RETURN_IF_ERROR(OpenBody(&r, &version));
  if (version != kModelFormatVersion && version != kModelFormatVersionInt8) {
    return Status::InvalidArgument("unsupported model format version " +
                                   std::to_string(version));
  }
  QuantizedModelFile file;
  const bool quantized = version == kModelFormatVersionInt8;
  SESEMI_RETURN_IF_ERROR(ParseCommonBody(&r, /*expect_more=*/quantized, &file.graph));
  if (quantized) {
    SESEMI_RETURN_IF_ERROR(ParseQuantSection(&r, file.graph, &file.quant));
  } else if (r.remaining() != 0) {
    return Status::Corruption("weight blob size mismatch");
  }
  SESEMI_RETURN_IF_ERROR(file.graph.Validate());
  return file;
}

Result<Bytes> EncryptModel(const ModelGraph& graph, ByteSpan model_key) {
  Bytes plain = SerializeModel(graph);
  return crypto::GcmSeal(model_key, ToBytes(graph.model_id), plain);
}

Result<ModelGraph> DecryptModel(ByteSpan sealed, ByteSpan model_key,
                                const std::string& model_id) {
  SESEMI_ASSIGN_OR_RETURN(Bytes plain,
                          crypto::GcmOpen(model_key, ToBytes(model_id), sealed));
  SESEMI_ASSIGN_OR_RETURN(ModelGraph graph, ParseModel(plain));
  if (graph.model_id != model_id) {
    return Status::Corruption("decrypted model id does not match requested id");
  }
  return graph;
}

}  // namespace sesemi::model
