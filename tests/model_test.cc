#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>

#include "common/rng.h"
#include "crypto/gcm.h"
#include "crypto/key.h"
#include "model/format.h"
#include "model/graph.h"
#include "model/quantize.h"
#include "model/zoo.h"

// Largest single heap request made on this thread while t_track_allocations
// is set: the hostile-bytes tests assert that a parse never sizes a buffer
// from a forged count. Every replaceable non-aligned form is defined so
// allocation and release always pair (sanitizers check the pairing).
namespace {
thread_local bool t_track_allocations = false;
thread_local size_t t_largest_allocation = 0;

void* TrackedAlloc(size_t n) {
  if (t_track_allocations && n > t_largest_allocation) t_largest_allocation = n;
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

void* operator new(size_t n) {
  if (void* p = TrackedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t n) { return operator new(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept { return TrackedAlloc(n); }
void* operator new[](size_t n, const std::nothrow_t&) noexcept { return TrackedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace sesemi::model {
namespace {

ZooSpec SmallSpec(Architecture arch, const std::string& id = "m0") {
  ZooSpec spec;
  spec.model_id = id;
  spec.arch = arch;
  spec.scale = 0.002;  // tens of kilobytes: fast tests
  spec.input_hw = 16;
  return spec;
}

// ---------------------------------------------------------------- Zoo

class ZooArchTest : public ::testing::TestWithParam<Architecture> {};

TEST_P(ZooArchTest, BuildsValidGraph) {
  auto graph = BuildModel(SmallSpec(GetParam()));
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_TRUE(graph->Validate().ok());
  EXPECT_EQ(graph->architecture, ToString(GetParam()));
  EXPECT_EQ(graph->OutputClasses(), 10);
  EXPECT_EQ(graph->layers.back().kind, LayerKind::kSoftmax);
}

TEST_P(ZooArchTest, SerializedSizeHitsTarget) {
  ZooSpec spec = SmallSpec(GetParam());
  spec.scale = 0.01;
  auto graph = BuildModel(spec);
  ASSERT_TRUE(graph.ok());
  uint64_t target = static_cast<uint64_t>(spec.scale * PaperModelBytes(spec.arch));
  uint64_t actual = SerializeModel(*graph).size();
  EXPECT_NEAR(static_cast<double>(actual), static_cast<double>(target),
              0.05 * static_cast<double>(target))
      << "arch " << ToString(spec.arch);
}

TEST_P(ZooArchTest, DeterministicForSameSeed) {
  auto a = BuildModel(SmallSpec(GetParam()));
  auto b = BuildModel(SmallSpec(GetParam()));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(SerializeModel(*a), SerializeModel(*b));
}

TEST_P(ZooArchTest, DifferentSeedsGiveDifferentWeights) {
  ZooSpec s1 = SmallSpec(GetParam());
  ZooSpec s2 = SmallSpec(GetParam());
  s2.seed = s1.seed + 1;
  auto a = BuildModel(s1);
  auto b = BuildModel(s2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->weights, b->weights);
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, ZooArchTest,
                         ::testing::Values(Architecture::kMbNet,
                                           Architecture::kRsNet,
                                           Architecture::kDsNet));

TEST(ZooTest, ArchitectureCharacteristicsPresent) {
  auto count_kind = [](const ModelGraph& g, LayerKind k) {
    int n = 0;
    for (const auto& layer : g.layers) n += (layer.kind == k);
    return n;
  };
  auto mbnet = BuildModel(SmallSpec(Architecture::kMbNet));
  auto rsnet = BuildModel(SmallSpec(Architecture::kRsNet));
  auto dsnet = BuildModel(SmallSpec(Architecture::kDsNet));
  ASSERT_TRUE(mbnet.ok() && rsnet.ok() && dsnet.ok());
  EXPECT_GT(count_kind(*mbnet, LayerKind::kDepthwiseConv2d), 0);
  EXPECT_EQ(count_kind(*mbnet, LayerKind::kAdd), 0);
  EXPECT_GT(count_kind(*rsnet, LayerKind::kAdd), 0);       // residual blocks
  EXPECT_GT(count_kind(*dsnet, LayerKind::kConcat), 0);    // dense blocks
  // ResNet101 analogue is the deepest.
  EXPECT_GT(rsnet->layers.size(), mbnet->layers.size());
}

TEST(ZooTest, PaperSizesMatchTableOne) {
  EXPECT_EQ(PaperModelBytes(Architecture::kMbNet), 17ull << 20);
  EXPECT_EQ(PaperModelBytes(Architecture::kRsNet), 170ull << 20);
  EXPECT_EQ(PaperModelBytes(Architecture::kDsNet), 44ull << 20);
}

TEST(ZooTest, HybNetIsDeepMixedConvDense) {
  // The scenario model (not from the paper): residual conv stages plus a
  // dense trunk, with channel counts off the 16-wide panel grid so packed
  // GEMM edge paths get graph-level coverage. Its backbone is bigger than
  // the paper reproductions', so it needs a larger minimum scale.
  auto count_kind = [](const ModelGraph& g, LayerKind k) {
    int n = 0;
    for (const auto& layer : g.layers) n += (layer.kind == k);
    return n;
  };
  ZooSpec spec = SmallSpec(Architecture::kHybNet);
  spec.scale = 0.02;
  auto hybnet = BuildModel(spec);
  ASSERT_TRUE(hybnet.ok()) << hybnet.status().ToString();
  EXPECT_TRUE(hybnet->Validate().ok());
  EXPECT_EQ(hybnet->architecture, "hybnet");
  EXPECT_GE(count_kind(*hybnet, LayerKind::kConv2d), 9);
  EXPECT_GE(count_kind(*hybnet, LayerKind::kDense), 3);  // trunk + sized head
  EXPECT_GT(count_kind(*hybnet, LayerKind::kAdd), 0);    // residual stages
  auto mbnet = BuildModel(SmallSpec(Architecture::kMbNet));
  ASSERT_TRUE(mbnet.ok());
  EXPECT_GT(hybnet->layers.size(), mbnet->layers.size());
  bool off_grid_conv = false;
  for (const auto& layer : hybnet->layers) {
    if (layer.kind == LayerKind::kConv2d && layer.out_channels % 16 != 0) {
      off_grid_conv = true;
    }
  }
  EXPECT_TRUE(off_grid_conv) << "hybnet must exercise ragged panel edges";
}

TEST(ZooTest, RejectsImpossiblySmallTarget) {
  ZooSpec spec = SmallSpec(Architecture::kRsNet);
  spec.scale = 1e-6;
  auto r = BuildModel(spec);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ZooTest, RejectsBadSpecs) {
  ZooSpec spec = SmallSpec(Architecture::kMbNet);
  spec.scale = 0;
  EXPECT_FALSE(BuildModel(spec).ok());
  spec = SmallSpec(Architecture::kMbNet);
  spec.input_hw = 4;
  EXPECT_FALSE(BuildModel(spec).ok());
  spec = SmallSpec(Architecture::kMbNet);
  spec.classes = 1;
  EXPECT_FALSE(BuildModel(spec).ok());
}

TEST(ZooTest, RandomInputMatchesShape) {
  auto graph = BuildModel(SmallSpec(Architecture::kMbNet));
  ASSERT_TRUE(graph.ok());
  Bytes input = GenerateRandomInput(*graph, 1);
  EXPECT_EQ(input.size(), graph->input_shape.elements() * sizeof(float));
  EXPECT_EQ(GenerateRandomInput(*graph, 1), input);       // deterministic
  EXPECT_NE(GenerateRandomInput(*graph, 2), input);       // seed-sensitive
}

// ---------------------------------------------------------------- Graph validation

TEST(GraphValidationTest, DetectsStructuralErrors) {
  auto graph = BuildModel(SmallSpec(Architecture::kRsNet));
  ASSERT_TRUE(graph.ok());

  ModelGraph broken = *graph;
  broken.layers[2].inputs = {99999};
  EXPECT_FALSE(broken.Validate().ok());

  broken = *graph;
  broken.layers[1].weight_count = broken.weights.size() + 100;
  EXPECT_FALSE(broken.Validate().ok());

  broken = *graph;
  broken.layers.erase(broken.layers.begin());
  EXPECT_FALSE(broken.Validate().ok());
}

TEST(GraphValidationTest, AddShapeMismatchCaught) {
  auto graph = BuildModel(SmallSpec(Architecture::kRsNet));
  ASSERT_TRUE(graph.ok());
  for (auto& layer : graph->layers) {
    if (layer.kind == LayerKind::kAdd) {
      layer.inputs[1] = 0;  // input layer has a different shape
      break;
    }
  }
  EXPECT_FALSE(graph->Validate().ok());
}

// ---------------------------------------------------------------- Format

TEST(FormatTest, SerializeParseRoundTrip) {
  auto graph = BuildModel(SmallSpec(Architecture::kDsNet, "dsnet-0"));
  ASSERT_TRUE(graph.ok());
  Bytes wire = SerializeModel(*graph);
  EXPECT_EQ(wire.capacity(), wire.size());  // sized once, written once
  auto parsed = ParseModel(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->model_id, "dsnet-0");
  EXPECT_EQ(parsed->architecture, "dsnet");
  EXPECT_EQ(parsed->weights, graph->weights);
  EXPECT_EQ(parsed->layers.size(), graph->layers.size());
  for (size_t i = 0; i < parsed->layers.size(); ++i) {
    EXPECT_EQ(parsed->layers[i].kind, graph->layers[i].kind);
    EXPECT_EQ(parsed->layers[i].output_shape, graph->layers[i].output_shape);
  }
}

TEST(FormatTest, CorruptionDetected) {
  auto graph = BuildModel(SmallSpec(Architecture::kMbNet));
  ASSERT_TRUE(graph.ok());
  Bytes wire = SerializeModel(*graph);

  // Integrity comes from the GCM tag: a byte flipped anywhere in a sealed
  // model (every nonce and tag byte, a stride through the ciphertext body)
  // fails authentication.
  Bytes key = crypto::GenerateSymmetricKey();
  auto sealed = EncryptModel(*graph, key);
  ASSERT_TRUE(sealed.ok());
  const size_t tag_at = sealed->size() - crypto::kGcmTagSize;
  std::vector<size_t> flips;
  for (size_t at = 0; at < crypto::kGcmNonceSize; ++at) flips.push_back(at);
  for (size_t at = crypto::kGcmNonceSize; at < tag_at; at += 61) flips.push_back(at);
  for (size_t at = tag_at; at < sealed->size(); ++at) flips.push_back(at);
  int accepted = 0;
  for (size_t at : flips) {
    Bytes flipped = *sealed;
    flipped[at] ^= 0xff;
    const Status s = DecryptModel(flipped, key, graph->model_id).status();
    if (!s.IsUnauthenticated() && accepted++ == 0) {
      ADD_FAILURE() << "flipped byte " << at << ": " << s.ToString();
    }
  }
  EXPECT_EQ(accepted, 0) << "of " << flips.size() << " flipped bytes";

  Bytes truncated(wire.begin(), wire.begin() + wire.size() / 2);
  EXPECT_FALSE(ParseModel(truncated).ok());

  Bytes bad_magic = wire;
  bad_magic[0] = 'X';
  EXPECT_FALSE(ParseModel(bad_magic).ok());

  EXPECT_FALSE(ParseModel(Bytes{}).ok());
}

TEST(FormatTest, EncryptDecryptRoundTrip) {
  auto graph = BuildModel(SmallSpec(Architecture::kMbNet, "model-7"));
  ASSERT_TRUE(graph.ok());
  Bytes key = crypto::GenerateSymmetricKey();
  auto sealed = EncryptModel(*graph, key);
  ASSERT_TRUE(sealed.ok());
  auto back = DecryptModel(*sealed, key, "model-7");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->weights, graph->weights);
}

TEST(FormatTest, DecryptWithWrongKeyFails) {
  auto graph = BuildModel(SmallSpec(Architecture::kMbNet, "m"));
  ASSERT_TRUE(graph.ok());
  auto sealed = EncryptModel(*graph, crypto::GenerateSymmetricKey());
  ASSERT_TRUE(sealed.ok());
  auto r = DecryptModel(*sealed, crypto::GenerateSymmetricKey(), "m");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnauthenticated());
}

TEST(FormatTest, ModelIdBoundAsAad) {
  // A ciphertext for model A cannot be served as model B, even with the key.
  auto graph = BuildModel(SmallSpec(Architecture::kMbNet, "model-a"));
  ASSERT_TRUE(graph.ok());
  Bytes key = crypto::GenerateSymmetricKey();
  auto sealed = EncryptModel(*graph, key);
  ASSERT_TRUE(sealed.ok());
  EXPECT_FALSE(DecryptModel(*sealed, key, "model-b").ok());
}

TEST(FormatTest, TamperedCiphertextRejected) {
  auto graph = BuildModel(SmallSpec(Architecture::kMbNet, "m"));
  ASSERT_TRUE(graph.ok());
  Bytes key = crypto::GenerateSymmetricKey();
  auto sealed = EncryptModel(*graph, key);
  ASSERT_TRUE(sealed.ok());
  Bytes tampered = *sealed;
  tampered[tampered.size() / 2] ^= 1;
  EXPECT_TRUE(DecryptModel(tampered, key, "m").status().IsUnauthenticated());
}

// ---------------------------------------------------------------- Hostile bytes
// The model parser must be total: any byte string yields OK or a typed error,
// never an exception, a crash, or an allocation sized by a forged field.

/// One fixed-width field of a serialized model.
struct WireField {
  size_t offset;
  size_t width;  // 1, 4 or 8 bytes
};

/// Walk a well-formed v1/v2 blob and list its count, length, shape, offset
/// and kind fields in order: the map the mutator writes boundary values into
/// and truncates at.
std::vector<WireField> MapFields(const Bytes& wire) {
  std::vector<WireField> fields;
  size_t pos = 4;  // magic
  auto u32 = [&]() -> uint64_t {
    fields.push_back({pos, 4});
    pos += 4;
    return GetUint32BE(wire.data() + pos - 4);
  };
  auto u64 = [&]() -> uint64_t {
    fields.push_back({pos, 8});
    pos += 8;
    return GetUint64BE(wire.data() + pos - 8);
  };
  const uint64_t version = u32();
  pos += u32();  // model id
  pos += u32();  // architecture
  for (int i = 0; i < 3; ++i) u32();  // input shape
  const uint64_t layers = u32();
  for (uint64_t l = 0; l < layers; ++l) {
    fields.push_back({pos++, 1});  // kind
    pos += u32();                  // name
    const uint64_t inputs = u32();
    for (uint64_t i = 0; i < inputs; ++i) u32();
    for (int i = 0; i < 4; ++i) u32();  // kernel, stride, out_channels, units
    u64();                              // weight offset
    u64();                              // weight count
    for (int i = 0; i < 3; ++i) u32();  // output shape
  }
  pos += u64() * sizeof(float);  // weight blob
  if (version == kModelFormatVersionInt8) {
    const uint64_t entries = u32();
    for (uint64_t e = 0; e < entries; ++e) {
      u32();  // layer
      const uint64_t k = u32();
      const uint64_t n = u32();
      pos += n * sizeof(float) + k * n;  // scales, int8 matrix
    }
  }
  EXPECT_EQ(pos, wire.size()) << "field map out of step with the format";
  return fields;
}

void WriteField(Bytes* wire, const WireField& f, uint64_t value) {
  for (size_t i = 0; i < f.width; ++i) {
    (*wire)[f.offset + i] = static_cast<uint8_t>(value >> (8 * (f.width - 1 - i)));
  }
}

constexpr uint64_t kBoundaryValues[] = {
    0, 1, (1ull << 31) - 1, (1ull << 32) - 1, 1ull << 62, ~0ull};

/// Parses `wire` both ways and reports the first broken invariant, or "".
std::string ParseTotal(const Bytes& wire) {
  // A parse of a blob this size may legitimately size buffers up to a small
  // multiple of it (weights, the layer table); a forged count may not.
  const size_t budget = 4 * wire.size() + 4096;
  t_largest_allocation = 0;
  t_track_allocations = true;
  std::string broken;
  try {
    const Status v1 = ParseModel(wire).status();
    const Status v2 = ParseQuantizedModel(wire).status();
    for (const Status& s : {v1, v2}) {
      if (!s.ok() && !s.IsCorruption() && !s.IsInvalidArgument()) {
        broken = "unexpected status " + s.ToString();
      }
    }
  } catch (const std::exception& e) {
    broken = std::string("threw ") + e.what();
  }
  t_track_allocations = false;
  if (broken.empty() && t_largest_allocation > budget) {
    broken = "allocated " + std::to_string(t_largest_allocation) +
             " bytes for a " + std::to_string(wire.size()) + "-byte blob";
  }
  return broken;
}

/// The seed blobs: v1 mbnet and dsnet, and a v2 (int8) mbnet.
std::vector<Bytes> SeedBlobs() {
  auto mbnet = BuildModel(SmallSpec(Architecture::kMbNet, "mbnet-0"));
  auto dsnet = BuildModel(SmallSpec(Architecture::kDsNet, "dsnet-0"));
  EXPECT_TRUE(mbnet.ok() && dsnet.ok());
  ModelGraph compacted = *mbnet;
  const ModelQuant quant = QuantizeModelWeights(compacted);
  EXPECT_TRUE(CompactQuantizedWeights(&compacted, quant).ok());
  return {SerializeModel(*mbnet), SerializeModel(*dsnet),
          SerializeQuantizedModel(compacted, quant)};
}

TEST(HostileModelBytesTest, BoundaryValuesInEveryField) {
  int mutants = 0, failures = 0;
  std::string first;
  for (const Bytes& wire : SeedBlobs()) {
    for (const WireField& f : MapFields(wire)) {
      for (uint64_t value : kBoundaryValues) {
        Bytes mutant = wire;
        WriteField(&mutant, f, value);
        const std::string broken = ParseTotal(mutant);
        ++mutants;
        if (!broken.empty() && failures++ == 0) {
          first = "field @" + std::to_string(f.offset) + " = " +
                  std::to_string(value) + ": " + broken;
        }
      }
    }
  }
  EXPECT_GT(mutants, 1000);
  EXPECT_EQ(failures, 0) << first;
}

TEST(HostileModelBytesTest, TruncationAtEveryFieldBoundary) {
  int failures = 0;
  std::string first;
  for (const Bytes& wire : SeedBlobs()) {
    for (const WireField& f : MapFields(wire)) {
      for (size_t cut : {f.offset, f.offset + f.width}) {
        const std::string broken = ParseTotal(Bytes(wire.begin(), wire.begin() + cut));
        if (!broken.empty() && failures++ == 0) {
          first = "cut @" + std::to_string(cut) + ": " + broken;
        }
      }
    }
  }
  EXPECT_EQ(failures, 0) << first;
}

TEST(HostileModelBytesTest, SeededStructureAwareMutants) {
  // Each mutant stacks one to three edits: a boundary value into a mapped
  // field, a random byte flip, or a cut at a field boundary.
  const std::vector<Bytes> blobs = SeedBlobs();
  std::vector<std::vector<WireField>> maps;
  for (const Bytes& wire : blobs) maps.push_back(MapFields(wire));
  Rng rng(0x5e5e);
  constexpr int kMutants = 10'000;
  int failures = 0;
  std::string first;
  for (int m = 0; m < kMutants; ++m) {
    const size_t which = m % blobs.size();
    const std::vector<WireField>& fields = maps[which];
    Bytes mutant = blobs[which];
    const int edits = static_cast<int>(rng.UniformInt(1, 3));
    for (int e = 0; e < edits && !mutant.empty(); ++e) {
      const WireField& f = fields[rng.UniformUint64(fields.size())];
      switch (rng.UniformUint64(3)) {
        case 0:
          if (f.offset + f.width <= mutant.size()) {
            WriteField(&mutant, f, kBoundaryValues[rng.UniformUint64(6)]);
          }
          break;
        case 1:
          mutant[rng.UniformUint64(mutant.size())] ^=
              static_cast<uint8_t>(rng.UniformInt(1, 255));
          break;
        default:
          if (f.offset < mutant.size()) mutant.resize(f.offset);
          break;
      }
    }
    const std::string broken = ParseTotal(mutant);
    if (!broken.empty() && failures++ == 0) {
      first = "mutant " + std::to_string(m) + ": " + broken;
    }
  }
  EXPECT_EQ(failures, 0) << first;
}

/// The weight-blob count: the last 8-byte field (the quant section has none).
WireField WeightCountField(const Bytes& wire) {
  const std::vector<WireField> fields = MapFields(wire);
  return *std::find_if(fields.rbegin(), fields.rend(),
                       [](const WireField& f) { return f.width == 8; });
}

TEST(HostileModelBytesTest, ForgedWeightCountIsCorruption) {
  // weight_count = 2^62 wraps weight_count * sizeof(float) to 0: the count
  // must be checked against the bytes left before anything multiplies it.
  auto graph = BuildModel(SmallSpec(Architecture::kMbNet));
  ASSERT_TRUE(graph.ok());
  // v1 cut right after the count, so no blob is left to mismatch against.
  const Bytes v1 = SerializeModel(*graph);
  const WireField v1_count = WeightCountField(v1);
  Bytes cut(v1.begin(), v1.begin() + v1_count.offset + v1_count.width);
  WriteField(&cut, v1_count, 1ull << 62);
  EXPECT_EQ(ParseTotal(cut), "");
  EXPECT_TRUE(ParseModel(cut).status().IsCorruption());

  // v2, where a quant section may follow the blob.
  ModelGraph compacted = *graph;
  const ModelQuant quant = QuantizeModelWeights(compacted);
  ASSERT_TRUE(CompactQuantizedWeights(&compacted, quant).ok());
  Bytes v2 = SerializeQuantizedModel(compacted, quant);
  WriteField(&v2, WeightCountField(v2), 1ull << 62);
  EXPECT_EQ(ParseTotal(v2), "");
  EXPECT_TRUE(ParseQuantizedModel(v2).status().IsCorruption());
}

TEST(HostileModelBytesTest, ForgedLayerCountIsCorruptionWithoutItsAllocation) {
  // layer_count = 999,999 in a blob of a few dozen bytes: the layer table
  // reserve is bounded by what the blob could hold, not by the count.
  auto graph = BuildModel(SmallSpec(Architecture::kMbNet));
  ASSERT_TRUE(graph.ok());
  const Bytes wire = SerializeModel(*graph);
  const WireField layer_count = MapFields(wire)[6];  // after version, id, arch, shape
  ASSERT_EQ(GetUint32BE(wire.data() + layer_count.offset), graph->layers.size());
  Bytes shorty(wire.begin(), wire.begin() + layer_count.offset + 4 + 8);
  WriteField(&shorty, layer_count, 999'999);
  EXPECT_EQ(ParseTotal(shorty), "");
  EXPECT_TRUE(ParseModel(shorty).status().IsCorruption());
}

}  // namespace
}  // namespace sesemi::model
