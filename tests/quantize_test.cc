// Int8 tier coverage: quantizer properties, packed int8 layout, exact-int32
// kernel parity across instruction tiers (portable / AVX2 / AVX-512 VNNI),
// saturation and rounding edges, the version-2 quantized wire format, and
// end-to-end int8-vs-fp32 accuracy on every zoo architecture.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "crypto/gcm.h"
#include "crypto/key.h"
#include "inference/compiled_model.h"
#include "inference/framework.h"
#include "inference/gemm.h"
#include "model/format.h"
#include "model/quantize.h"
#include "model/zoo.h"

namespace sesemi::inference {
namespace {

using gemm::ActQuant;
using gemm::GemmIsa;
using model::Architecture;
using model::ModelGraph;
using model::ModelQuant;
using model::ZooSpec;

std::vector<float> RandomVec(size_t n, uint32_t seed) {
  std::vector<float> v(n);
  uint32_t state = seed * 2654435761u + 1;
  for (size_t i = 0; i < n; ++i) {
    state = state * 1664525u + 1013904223u;
    v[i] = static_cast<float>(static_cast<int32_t>(state >> 8) % 2001 - 1000) / 500.0f;
  }
  return v;
}

std::vector<int8_t> RandomInt8(size_t n, uint32_t seed, int lo = -127,
                               int hi = 127) {
  std::vector<int8_t> v(n);
  uint32_t state = seed * 2654435761u + 1;
  for (size_t i = 0; i < n; ++i) {
    state = state * 1664525u + 1013904223u;
    v[i] = static_cast<int8_t>(lo + static_cast<int>((state >> 8) % (hi - lo + 1)));
  }
  return v;
}

std::vector<uint8_t> RandomU7(size_t n, uint32_t seed) {
  std::vector<uint8_t> v(n);
  uint32_t state = seed * 2654435761u + 1;
  for (size_t i = 0; i < n; ++i) {
    state = state * 1664525u + 1013904223u;
    v[i] = static_cast<uint8_t>((state >> 8) % 128);
  }
  return v;
}

// Reference int8 GEMM: naive integer accumulation plus the exact fma-based
// epilogue the kernels use. The kernels must match this BITWISE — int32
// accumulation is exact on every tier and the epilogue is shared.
void GemmInt8Ref(const uint8_t* a, int lda, const float* a_scales,
                 const int32_t* a_zps, const int8_t* b, const float* w_scales,
                 const int32_t* w_colsums, const float* bias, float* c, int m,
                 int n, int k) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      int32_t acc = 0;
      for (int kk = 0; kk < k; ++kk) {
        acc += static_cast<int32_t>(a[static_cast<size_t>(i) * lda + kk]) *
               static_cast<int32_t>(b[static_cast<size_t>(kk) * n + j]);
      }
      c[static_cast<size_t>(i) * n + j] =
          std::fma(static_cast<float>(acc - a_zps[i] * w_colsums[j]),
                   a_scales[i] * w_scales[j], bias != nullptr ? bias[j] : 0.0f);
    }
  }
}

struct Int8Case {
  int m, n, k;
};

class Int8GemmParityTest : public ::testing::TestWithParam<Int8Case> {};

// Every available tier must reproduce the reference bitwise, on shapes that
// exercise K-group padding (odd k), ragged panels (odd n), and every
// micro-tile height.
TEST_P(Int8GemmParityTest, AllTiersMatchReferenceBitwise) {
  const Int8Case p = GetParam();
  const int k4 = gemm::RoundUpK4(p.k);
  std::vector<uint8_t> a(static_cast<size_t>(p.m) * k4, 0);
  for (int i = 0; i < p.m; ++i) {
    auto row = RandomU7(p.k, 100 + i);
    std::memcpy(a.data() + static_cast<size_t>(i) * k4, row.data(), p.k);
    // Poison the pad bytes: packed-B zero-padding must make them irrelevant.
    for (int kk = p.k; kk < k4; ++kk) a[static_cast<size_t>(i) * k4 + kk] = 99;
  }
  std::vector<int8_t> b = RandomInt8(static_cast<size_t>(p.k) * p.n, 7);
  std::vector<float> bias = RandomVec(p.n, 8);
  std::vector<float> w_scales(p.n);
  for (int j = 0; j < p.n; ++j) w_scales[j] = 0.01f + 0.001f * j;
  std::vector<int32_t> colsums(p.n);
  gemm::Int8ColumnSums(b.data(), p.k, p.n, colsums.data());
  std::vector<float> a_scales(p.m);
  std::vector<int32_t> a_zps(p.m);
  for (int i = 0; i < p.m; ++i) {
    a_scales[i] = 0.02f + 0.003f * i;
    a_zps[i] = (i * 37) % 128;  // includes 0; hits high zero-points
  }

  std::vector<int8_t> packed(gemm::PackedBInt8Bytes(p.k, p.n), 0x55);
  gemm::PackBInt8(b.data(), p.k, p.n, packed.data());

  std::vector<float> want(static_cast<size_t>(p.m) * p.n);
  GemmInt8Ref(a.data(), k4, a_scales.data(), a_zps.data(), b.data(),
              w_scales.data(), colsums.data(), bias.data(), want.data(), p.m,
              p.n, p.k);

  for (GemmIsa isa : {GemmIsa::kPortable, GemmIsa::kAvx2, GemmIsa::kAvx512Vnni}) {
    if (!gemm::GemmIsaAvailable(isa)) continue;
    std::vector<float> got(want.size(), -1.0f);
    gemm::GemmInt8Prepacked(a.data(), k4, a_scales.data(), a_zps.data(),
                            packed.data(), w_scales.data(), colsums.data(),
                            bias.data(), got.data(), p.m, p.n, p.k, isa);
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                             want.size() * sizeof(float)))
        << gemm::ToString(isa) << " diverges on " << p.m << "x" << p.n << "x"
        << p.k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, Int8GemmParityTest,
    ::testing::Values(Int8Case{1, 1, 1}, Int8Case{1, 17, 5}, Int8Case{2, 16, 4},
                      Int8Case{3, 15, 7}, Int8Case{5, 16, 19}, Int8Case{6, 33, 9},
                      Int8Case{7, 100, 13}, Int8Case{13, 31, 257},
                      Int8Case{24, 64, 127}, Int8Case{8, 10, 515}));

// Saturation edge: the u7 x s8 pairing keeps vpmaddubsw pair sums at most
// 127*127*2 = 32258 < INT16_MAX. Drive the extreme operands (a = 127, b =
// +/-127 alternating so pairs reinforce) through every tier and require the
// exact integer result.
TEST(Int8GemmEdgeTest, ExtremeOperandsStayExact) {
  const int k = 128, n = 16, m = 2;
  std::vector<uint8_t> a(static_cast<size_t>(m) * k, 127);
  std::vector<int8_t> b(static_cast<size_t>(k) * n);
  for (int kk = 0; kk < k; ++kk) {
    for (int j = 0; j < n; ++j) {
      // Column parity decides the sign so some columns hit +127*127*k and
      // some -127*127*k; within a column all taps agree (worst pair sums).
      b[static_cast<size_t>(kk) * n + j] = (j % 2 == 0) ? 127 : -127;
    }
  }
  std::vector<int32_t> colsums(n);
  gemm::Int8ColumnSums(b.data(), k, n, colsums.data());
  std::vector<float> w_scales(n, 1.0f);
  std::vector<float> a_scales(m, 1.0f);
  std::vector<int32_t> a_zps(m, 0);
  std::vector<int8_t> packed(gemm::PackedBInt8Bytes(k, n));
  gemm::PackBInt8(b.data(), k, n, packed.data());

  for (GemmIsa isa : {GemmIsa::kPortable, GemmIsa::kAvx2, GemmIsa::kAvx512Vnni}) {
    if (!gemm::GemmIsaAvailable(isa)) continue;
    std::vector<float> got(static_cast<size_t>(m) * n);
    gemm::GemmInt8Prepacked(a.data(), k, a_scales.data(), a_zps.data(),
                            packed.data(), w_scales.data(), colsums.data(),
                            nullptr, got.data(), m, n, k, isa);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        const float want = (j % 2 == 0 ? 1.0f : -1.0f) * 127.0f * 127.0f * k;
        EXPECT_EQ(got[static_cast<size_t>(i) * n + j], want)
            << gemm::ToString(isa) << " at " << i << "," << j;
      }
    }
  }
}

TEST(Int8GemmEdgeTest, RequantSaturatesAndRounds) {
  // One row, k = 4: accumulators chosen to force the requant clamp at both
  // rails and exercise round-to-nearest-even at the midpoint.
  const int k = 4, n = 16, m = 1;
  std::vector<uint8_t> a(k, 1);
  std::vector<int8_t> b(static_cast<size_t>(k) * n, 0);
  for (int j = 0; j < n; ++j) b[j] = static_cast<int8_t>(j % 2 == 0 ? 100 : -100);
  std::vector<int32_t> colsums(n);
  gemm::Int8ColumnSums(b.data(), k, n, colsums.data());
  std::vector<float> w_scales(n, 1.0f);
  const float a_scale = 1.0f;
  const int32_t a_zp = 0;
  std::vector<int8_t> packed(gemm::PackedBInt8Bytes(k, n));
  gemm::PackBInt8(b.data(), k, n, packed.data());

  // acc = +/-100; out.scale = 0.5 -> q = +/-200 + zp, clamped to [-128, 127].
  ActQuant out_q;
  out_q.scale = 0.5f;
  out_q.zero_point = 10;
  std::vector<int8_t> got(n, 0);
  gemm::GemmInt8PrepackedRequant(a.data(), k, &a_scale, &a_zp, packed.data(),
                                 w_scales.data(), colsums.data(), nullptr,
                                 out_q, got.data(), m, n, k);
  for (int j = 0; j < n; ++j) {
    EXPECT_EQ(got[j], j % 2 == 0 ? 127 : -128) << "clamp rail at col " << j;
  }

  // Rounding: acc = 100, out.scale = 40 -> 100/40 = 2.5, lrintf rounds to
  // even -> 2, plus zero-point.
  out_q.scale = 40.0f;
  out_q.zero_point = 3;
  gemm::GemmInt8PrepackedRequant(a.data(), k, &a_scale, &a_zp, packed.data(),
                                 w_scales.data(), colsums.data(), nullptr,
                                 out_q, got.data(), m, n, k);
  EXPECT_EQ(got[0], 2 + 3);
}

TEST(PackBInt8Test, LayoutInterleavesKGroupsAndZeroPads) {
  // 2 panels (n = 17), k = 5 -> k4 = 8. Byte (g, j, ki) of a panel must be
  // B[4g + ki][panel*16 + j]; K pad rows and the ragged panel edge are zero.
  const int k = 5, n = 17;
  std::vector<int8_t> b(static_cast<size_t>(k) * n);
  for (int kk = 0; kk < k; ++kk) {
    for (int j = 0; j < n; ++j) {
      b[static_cast<size_t>(kk) * n + j] = static_cast<int8_t>(kk * 20 + j - 60);
    }
  }
  std::vector<int8_t> packed(gemm::PackedBInt8Bytes(k, n), 0x7f);
  gemm::PackBInt8(b.data(), k, n, packed.data());
  ASSERT_EQ(packed.size(), 2u * 8u * 16u);
  const int k4 = gemm::RoundUpK4(k);
  for (int panel = 0; panel < 2; ++panel) {
    const int8_t* pp = packed.data() + panel * k4 * 16;
    for (int g = 0; g < k4 / 4; ++g) {
      for (int j = 0; j < 16; ++j) {
        for (int ki = 0; ki < 4; ++ki) {
          const int kk = 4 * g + ki;
          const int col = panel * 16 + j;
          const int8_t want =
              (kk < k && col < n) ? b[static_cast<size_t>(kk) * n + col] : 0;
          EXPECT_EQ(pp[g * 64 + j * 4 + ki], want)
              << "panel " << panel << " g " << g << " j " << j << " ki " << ki;
        }
      }
    }
  }
}

TEST(QuantizeActivationsTest, ZeroQuantizesExactlyAndRangeCovers) {
  std::vector<float> x = {-1.5f, 0.0f, 0.75f, 3.0f, -0.25f};
  std::vector<uint8_t> q(x.size());
  const ActQuant aq = gemm::QuantizeActivations(x.data(), x.size(), q.data());
  EXPECT_GE(aq.zero_point, 0);
  EXPECT_LE(aq.zero_point, 127);
  // A true zero activation must land exactly on the zero-point (conv padding
  // correctness depends on it).
  EXPECT_EQ(q[1], aq.zero_point);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(q[i], 127);
    const float back = (static_cast<int>(q[i]) - aq.zero_point) * aq.scale;
    EXPECT_NEAR(back, x[i], aq.scale * 0.51f) << "element " << i;
  }
}

TEST(QuantizeActivationsTest, AllZeroInputIsStable) {
  std::vector<float> x(32, 0.0f);
  std::vector<uint8_t> q(x.size(), 255);
  const ActQuant aq = gemm::QuantizeActivations(x.data(), x.size(), q.data());
  EXPECT_EQ(aq.scale, 1.0f);
  for (uint8_t v : q) EXPECT_EQ(v, aq.zero_point);
}

TEST(GemmIsaTest, NamesAndAvailability) {
  EXPECT_STREQ(gemm::ToString(GemmIsa::kPortable), "portable");
  EXPECT_STREQ(gemm::ToString(GemmIsa::kAvx2), "avx2");
  EXPECT_STREQ(gemm::ToString(GemmIsa::kAvx512Vnni), "avx512-vnni");
  EXPECT_TRUE(gemm::GemmIsaAvailable(GemmIsa::kPortable));
  EXPECT_TRUE(gemm::GemmIsaAvailable(GemmIsa::kAuto));
  // The active tier must itself be available.
  EXPECT_TRUE(gemm::GemmIsaAvailable(gemm::ActiveGemmIsa()));
}

// ------------------------------------------------------------ weight quant

TEST(ModelQuantTest, PerChannelSymmetricRoundTrip) {
  ZooSpec spec;
  spec.arch = Architecture::kMbNet;
  spec.scale = 0.002;
  spec.input_hw = 16;
  auto graph = model::BuildModel(spec);
  ASSERT_TRUE(graph.ok());
  const ModelQuant quant = model::QuantizeModelWeights(*graph);
  ASSERT_FALSE(quant.empty());

  for (const model::LayerQuant& lq : quant.layers) {
    const model::Layer& layer = graph->layers[lq.layer];
    ASSERT_TRUE(model::LayerQuantizable(layer));
    ASSERT_EQ(layer.weight_count,
              static_cast<uint64_t>(lq.k) * lq.n + lq.n);
    const float* w = graph->weights.data() + layer.weight_offset;
    std::vector<float> back(static_cast<size_t>(lq.k) * lq.n);
    model::DequantizeLayer(lq, back.data());
    for (size_t i = 0; i < back.size(); ++i) {
      const float scale = lq.scales[i % lq.n];
      EXPECT_NEAR(back[i], w[i], scale * 0.51f);  // within half a quant step
      EXPECT_GE(lq.weights[i], -127);  // symmetric: -128 never used
    }
  }
}

TEST(ModelQuantTest, CompactDropsMatricesKeepsBiases) {
  ZooSpec spec;
  spec.arch = Architecture::kHybNet;
  spec.scale = 0.02;
  spec.input_hw = 16;
  auto graph = model::BuildModel(spec);
  ASSERT_TRUE(graph.ok());
  ModelGraph compacted = *graph;
  const ModelQuant quant = model::QuantizeModelWeights(compacted);
  ASSERT_FALSE(quant.empty());
  ASSERT_TRUE(model::CompactQuantizedWeights(&compacted, quant).ok());
  ASSERT_TRUE(compacted.Validate().ok());
  EXPECT_LT(compacted.weights.size(), graph->weights.size() / 2);

  // Every quantized layer's slice is now its bias, value-identical to the
  // original bias; every other slice is untouched.
  std::vector<const model::LayerQuant*> by_layer(graph->layers.size(), nullptr);
  for (const auto& lq : quant.layers) by_layer[lq.layer] = &lq;
  for (size_t i = 0; i < graph->layers.size(); ++i) {
    const model::Layer& before = graph->layers[i];
    const model::Layer& after = compacted.layers[i];
    if (before.weight_count == 0) continue;
    if (const model::LayerQuant* lq = by_layer[i]; lq != nullptr) {
      ASSERT_EQ(after.weight_count, static_cast<uint64_t>(lq->n));
      const float* want = graph->weights.data() + before.weight_offset +
                          static_cast<uint64_t>(lq->k) * lq->n;
      const float* got = compacted.weights.data() + after.weight_offset;
      EXPECT_EQ(0, std::memcmp(want, got, lq->n * sizeof(float)));
    } else {
      ASSERT_EQ(after.weight_count, before.weight_count);
      EXPECT_EQ(0, std::memcmp(
                       graph->weights.data() + before.weight_offset,
                       compacted.weights.data() + after.weight_offset,
                       before.weight_count * sizeof(float)));
    }
  }
}

// ------------------------------------------------------------- wire format

TEST(QuantizedFormatTest, Version2RoundTripsBitwise) {
  ZooSpec spec;
  spec.arch = Architecture::kDsNet;
  spec.scale = 0.002;
  spec.input_hw = 16;
  auto graph = model::BuildModel(spec);
  ASSERT_TRUE(graph.ok());
  ModelGraph compacted = *graph;
  const ModelQuant quant = model::QuantizeModelWeights(compacted);
  ASSERT_TRUE(model::CompactQuantizedWeights(&compacted, quant).ok());

  const Bytes wire = model::SerializeQuantizedModel(compacted, quant);
  const Bytes fp32_wire = model::SerializeModel(*graph);
  EXPECT_EQ(wire.capacity(), wire.size());  // sized once, written once
  // The quantized file carries the matrices once, as int8: much smaller.
  EXPECT_LT(wire.size(), fp32_wire.size() / 2);

  auto parsed = model::ParseQuantizedModel(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->graph.model_id, compacted.model_id);
  EXPECT_EQ(parsed->graph.weights, compacted.weights);
  ASSERT_EQ(parsed->quant.layers.size(), quant.layers.size());
  for (size_t i = 0; i < quant.layers.size(); ++i) {
    EXPECT_EQ(parsed->quant.layers[i].layer, quant.layers[i].layer);
    EXPECT_EQ(parsed->quant.layers[i].k, quant.layers[i].k);
    EXPECT_EQ(parsed->quant.layers[i].n, quant.layers[i].n);
    EXPECT_EQ(parsed->quant.layers[i].scales, quant.layers[i].scales);
    EXPECT_EQ(parsed->quant.layers[i].weights, quant.layers[i].weights);
  }

  // ParseModel must refuse the quantized container (its fp32 blob is
  // compacted), and ParseQuantizedModel must accept version-1 files.
  EXPECT_FALSE(model::ParseModel(wire).ok());
  auto v1 = model::ParseQuantizedModel(fp32_wire);
  ASSERT_TRUE(v1.ok());
  EXPECT_TRUE(v1->quant.empty());
  EXPECT_EQ(v1->graph.weights, graph->weights);

  // Sealed under the model id, a flipped byte fails the GCM tag.
  const Bytes key = crypto::GenerateSymmetricKey();
  const Bytes aad = ToBytes(compacted.model_id);
  auto sealed = crypto::GcmSeal(key, aad, wire);
  ASSERT_TRUE(sealed.ok());
  auto opened = crypto::GcmOpen(key, aad, *sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, wire);
  Bytes tampered = *sealed;
  tampered[tampered.size() / 2] ^= 0x01;
  EXPECT_TRUE(crypto::GcmOpen(key, aad, tampered).status().IsUnauthenticated());
}

// --------------------------------------------------------------- end to end

double TopScore(const std::vector<float>& scores, int* arg) {
  int best = 0;
  for (size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > scores[best]) best = static_cast<int>(i);
  }
  *arg = best;
  return scores[best];
}

class ZooQuantParityTest : public ::testing::TestWithParam<Architecture> {};

// The accuracy claim: on every zoo architecture the int8 pipeline stays close
// to fp32 — bounded max abs error on the softmax scores and top-1 agreement
// (allowing a swap only when fp32 itself was nearly tied).
TEST_P(ZooQuantParityTest, Int8TracksFp32OnZooModels) {
  ZooSpec spec;
  spec.arch = GetParam();
  spec.scale = GetParam() == Architecture::kHybNet ? 0.02 : 0.002;
  spec.input_hw = 16;
  auto graph = model::BuildModel(spec);
  ASSERT_TRUE(graph.ok());

  auto fp32 = CompiledModel::Compile(*graph);
  ASSERT_TRUE(fp32.ok());
  CompiledModel::Options qopts;
  qopts.quantize = true;
  auto int8 = CompiledModel::Compile(*graph, qopts);
  ASSERT_TRUE(int8.ok()) << int8.status().ToString();
  EXPECT_TRUE(int8->quantized());

  std::vector<float> arena_a(fp32->arena_elements());
  std::vector<float> arena_b(int8->arena_elements());
  int agreements = 0, samples = 0;
  float worst = 0.0f;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Bytes input = model::GenerateRandomInput(*graph, seed);
    auto out_a = fp32->Execute(input, arena_a.data());
    auto out_b = int8->Execute(input, arena_b.data());
    ASSERT_TRUE(out_a.ok() && out_b.ok());
    auto sa = model::ParseOutput(*out_a);
    auto sb = model::ParseOutput(*out_b);
    ASSERT_TRUE(sa.ok() && sb.ok());
    ASSERT_EQ(sa->size(), sb->size());
    for (size_t i = 0; i < sa->size(); ++i) {
      worst = std::max(worst, std::fabs((*sa)[i] - (*sb)[i]));
    }
    int top_a = 0, top_b = 0;
    TopScore(*sa, &top_a);
    TopScore(*sb, &top_b);
    ++samples;
    // Count as agreement when the classes match, or when fp32 scored the two
    // contenders within a near-tie band (quantization may legally flip those).
    if (top_a == top_b || std::fabs((*sa)[top_a] - (*sa)[top_b]) < 0.05f) {
      ++agreements;
    }
  }
  EXPECT_EQ(agreements, samples) << model::ToString(GetParam());
  EXPECT_LE(worst, 0.08f) << model::ToString(GetParam())
                          << ": int8 drifted too far from fp32 softmax scores";
}

// Batched quantized execution must agree with per-sample quantized execution
// on the shared-activation topologies too.
TEST_P(ZooQuantParityTest, BatchedInt8MatchesUnbatched) {
  ZooSpec spec;
  spec.arch = GetParam();
  spec.scale = GetParam() == Architecture::kHybNet ? 0.02 : 0.002;
  spec.input_hw = 16;
  auto graph = model::BuildModel(spec);
  ASSERT_TRUE(graph.ok());
  CompiledModel::Options qopts;
  qopts.quantize = true;
  auto compiled = CompiledModel::Compile(std::move(*graph), qopts);
  ASSERT_TRUE(compiled.ok());

  constexpr int kBatch = 4;
  std::vector<Bytes> inputs;
  std::vector<Bytes> want;
  std::vector<float> arena(compiled->arena_elements());
  for (int b = 0; b < kBatch; ++b) {
    inputs.push_back(model::GenerateRandomInput(compiled->graph(), 90 + b));
    auto out = compiled->Execute(inputs.back(), arena.data());
    ASSERT_TRUE(out.ok());
    want.push_back(std::move(*out));
  }
  std::vector<ByteSpan> spans(inputs.begin(), inputs.end());
  std::vector<float> batch_arena(compiled->batch_arena_elements(kBatch));
  std::vector<Bytes> outputs;
  ASSERT_TRUE(compiled->ExecuteBatch(spans, batch_arena.data(), &outputs).ok());
  ASSERT_EQ(outputs.size(), static_cast<size_t>(kBatch));
  for (int b = 0; b < kBatch; ++b) {
    EXPECT_EQ(outputs[b], want[b]) << model::ToString(GetParam()) << " sample "
                                   << b;
  }
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, ZooQuantParityTest,
                         ::testing::Values(Architecture::kMbNet,
                                           Architecture::kRsNet,
                                           Architecture::kDsNet,
                                           Architecture::kHybNet),
                         [](const auto& info) {
                           return std::string(model::ToString(info.param));
                         });

TEST(QuantizedCompileTest, PrecomputedQuantMatchesInternalQuantizer) {
  // Compiling from a parsed version-2 file must produce bit-identical outputs
  // to compiling the fp32 graph with Options::quantize (same quantizer, same
  // kernels).
  ZooSpec spec;
  spec.arch = Architecture::kRsNet;
  spec.scale = 0.002;
  spec.input_hw = 16;
  auto graph = model::BuildModel(spec);
  ASSERT_TRUE(graph.ok());

  CompiledModel::Options qopts;
  qopts.quantize = true;
  auto internal = CompiledModel::Compile(*graph, qopts);
  ASSERT_TRUE(internal.ok());

  ModelGraph compacted = *graph;
  ModelQuant quant = model::QuantizeModelWeights(compacted);
  ASSERT_TRUE(model::CompactQuantizedWeights(&compacted, quant).ok());
  const Bytes wire = model::SerializeQuantizedModel(compacted, quant);
  auto file = model::ParseQuantizedModel(wire);
  ASSERT_TRUE(file.ok());
  auto external = CompiledModel::Compile(std::move(file->graph),
                                         std::move(file->quant),
                                         CompiledModel::Options());
  ASSERT_TRUE(external.ok()) << external.status().ToString();

  const Bytes input = model::GenerateRandomInput(*graph, 5);
  std::vector<float> arena_a(internal->arena_elements());
  std::vector<float> arena_b(external->arena_elements());
  auto out_a = internal->Execute(input, arena_a.data());
  auto out_b = external->Execute(input, arena_b.data());
  ASSERT_TRUE(out_a.ok() && out_b.ok());
  EXPECT_EQ(*out_a, *out_b);
}

TEST(QuantizedCompileTest, QuantizedArtifactIsAtLeastThreeTimesSmaller) {
  // The memory acceptance: int8 panels replace both the fp32 matrices and the
  // fp32 packed panels, so the loaded-model footprint shrinks >= 3x.
  ZooSpec spec;
  spec.arch = Architecture::kMbNet;
  spec.scale = 0.01;
  spec.input_hw = 16;
  auto graph = model::BuildModel(spec);
  ASSERT_TRUE(graph.ok());

  auto fp32_fw = CreateFramework(FrameworkKind::kTvm);
  FrameworkOptions fopts;
  fopts.quantize = true;
  auto int8_fw = CreateFramework(FrameworkKind::kTvm, fopts);
  auto lm_fp32 = fp32_fw->WrapModel(*graph);
  auto lm_int8 = int8_fw->WrapModel(*graph);
  ASSERT_TRUE(lm_fp32.ok() && lm_int8.ok());
  EXPECT_GE((*lm_fp32)->memory_bytes(),
            3 * (*lm_int8)->memory_bytes())
      << "fp32 " << (*lm_fp32)->memory_bytes() << " vs int8 "
      << (*lm_int8)->memory_bytes();
}

TEST(QuantizedCompileTest, FrameworksLoadVersion2Files) {
  ZooSpec spec;
  spec.arch = Architecture::kMbNet;
  spec.scale = 0.002;
  spec.input_hw = 16;
  auto graph = model::BuildModel(spec);
  ASSERT_TRUE(graph.ok());
  ModelGraph compacted = *graph;
  ModelQuant quant = model::QuantizeModelWeights(compacted);
  ASSERT_TRUE(model::CompactQuantizedWeights(&compacted, quant).ok());
  const Bytes wire = model::SerializeQuantizedModel(compacted, quant);

  for (FrameworkKind kind : {FrameworkKind::kTvm, FrameworkKind::kTflm}) {
    auto fw = CreateFramework(kind);
    auto loaded = fw->LoadModel(wire);
    ASSERT_TRUE(loaded.ok()) << ToString(kind) << ": "
                             << loaded.status().ToString();
    auto runtime = fw->CreateRuntime(*loaded);
    ASSERT_TRUE(runtime.ok());
    const Bytes input = model::GenerateRandomInput((*loaded)->graph(), 11);
    auto out = (*runtime)->Execute(input);
    ASSERT_TRUE(out.ok());
    auto scores = model::ParseOutput(*out);
    ASSERT_TRUE(scores.ok());
    EXPECT_EQ(scores->size(), static_cast<size_t>(spec.classes));
  }
}

}  // namespace
}  // namespace sesemi::inference
