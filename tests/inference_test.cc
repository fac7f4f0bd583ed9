#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "inference/compiled_model.h"
#include "inference/framework.h"
#include "inference/ops.h"
#include "model/format.h"
#include "model/zoo.h"

namespace sesemi::inference {
namespace {

using model::Architecture;
using model::ModelGraph;
using model::TensorShape;
using model::ZooSpec;

ZooSpec SmallSpec(Architecture arch) {
  ZooSpec spec;
  spec.arch = arch;
  spec.scale = 0.002;
  spec.input_hw = 16;
  return spec;
}

// ---------------------------------------------------------------- ops

TEST(OpsTest, Conv2dIdentityKernel) {
  // 1x1 kernel with identity weights and zero bias copies channels.
  TensorShape in_shape{2, 2, 2};
  std::vector<float> in = {1, 2, 3, 4, 5, 6, 7, 8};
  // w[0][0][ic][oc]: identity 2x2, bias 0,0.
  std::vector<float> w = {1, 0, 0, 1, 0, 0};
  std::vector<float> out(8);
  ops::Conv2d(in.data(), in_shape, w.data(), 1, 1, 2, out.data());
  EXPECT_EQ(out, in);
}

TEST(OpsTest, Conv2dBiasOnly) {
  TensorShape in_shape{2, 2, 1};
  std::vector<float> in = {0, 0, 0, 0};
  std::vector<float> w = {0, 5.0f};  // zero weight, bias 5
  std::vector<float> out(4);
  ops::Conv2d(in.data(), in_shape, w.data(), 1, 1, 1, out.data());
  for (float v : out) EXPECT_FLOAT_EQ(v, 5.0f);
}

TEST(OpsTest, Conv2dSamePaddingSum) {
  // 3x3 all-ones kernel over a single-channel all-ones image computes the
  // number of valid neighbours at each position.
  TensorShape in_shape{3, 3, 1};
  std::vector<float> in(9, 1.0f);
  std::vector<float> w(10, 1.0f);
  w[9] = 0.0f;  // bias
  std::vector<float> out(9);
  ops::Conv2d(in.data(), in_shape, w.data(), 3, 1, 1, out.data());
  EXPECT_FLOAT_EQ(out[4], 9.0f);  // center sees all 9
  EXPECT_FLOAT_EQ(out[0], 4.0f);  // corner sees 4
  EXPECT_FLOAT_EQ(out[1], 6.0f);  // edge sees 6
}

TEST(OpsTest, Conv2dStrideTwoHalvesOutput) {
  TensorShape in_shape{4, 4, 1};
  std::vector<float> in(16, 1.0f);
  std::vector<float> w = {1, 0};  // 1x1 identity
  std::vector<float> out(4);
  ops::Conv2d(in.data(), in_shape, w.data(), 1, 2, 1, out.data());
  for (float v : out) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(OpsTest, DepthwiseKeepsChannelsSeparate) {
  TensorShape in_shape{1, 1, 2};
  std::vector<float> in = {3, 5};
  // 1x1 depthwise: w[c] = {2, 10}, bias = {1, -1}.
  std::vector<float> w = {2, 10, 1, -1};
  std::vector<float> out(2);
  ops::DepthwiseConv2d(in.data(), in_shape, w.data(), 1, 1, out.data());
  EXPECT_FLOAT_EQ(out[0], 7.0f);
  EXPECT_FLOAT_EQ(out[1], 49.0f);
}

TEST(OpsTest, DenseMatchesManualComputation) {
  std::vector<float> in = {1, 2};
  // w[in][unit]: [[1,3],[2,4]], bias [10, 20].
  std::vector<float> w = {1, 3, 2, 4, 10, 20};
  std::vector<float> out(2);
  ops::Dense(in.data(), 2, w.data(), 2, out.data());
  EXPECT_FLOAT_EQ(out[0], 1 * 1 + 2 * 2 + 10);
  EXPECT_FLOAT_EQ(out[1], 1 * 3 + 2 * 4 + 20);
}

TEST(OpsTest, ReluClampsNegatives) {
  std::vector<float> in = {-1, 0, 2.5f};
  std::vector<float> out(3);
  ops::Relu(in.data(), 3, out.data());
  EXPECT_FLOAT_EQ(out[0], 0);
  EXPECT_FLOAT_EQ(out[1], 0);
  EXPECT_FLOAT_EQ(out[2], 2.5f);
}

TEST(OpsTest, MaxPoolPicksMaxAndHandlesOddEdges) {
  TensorShape in_shape{3, 3, 1};
  std::vector<float> in = {1, 2, 3, 4, 9, 6, 7, 8, 5};
  std::vector<float> out(4);
  ops::MaxPool2x2(in.data(), in_shape, out.data());
  EXPECT_FLOAT_EQ(out[0], 9);  // max(1,2,4,9)
  EXPECT_FLOAT_EQ(out[1], 6);  // max(3,6) — odd edge
  EXPECT_FLOAT_EQ(out[2], 8);  // max(7,8)
  EXPECT_FLOAT_EQ(out[3], 5);  // single corner
}

TEST(OpsTest, GlobalAvgPool) {
  TensorShape in_shape{2, 2, 2};
  std::vector<float> in = {1, 10, 2, 20, 3, 30, 4, 40};
  std::vector<float> out(2);
  ops::GlobalAvgPool(in.data(), in_shape, out.data());
  EXPECT_FLOAT_EQ(out[0], 2.5f);
  EXPECT_FLOAT_EQ(out[1], 25.0f);
}

TEST(OpsTest, AddAndConcat) {
  std::vector<float> a = {1, 2}, b = {10, 20};
  std::vector<float> sum(2);
  ops::Add(a.data(), b.data(), 2, sum.data());
  EXPECT_FLOAT_EQ(sum[0], 11);
  EXPECT_FLOAT_EQ(sum[1], 22);

  TensorShape sa{1, 1, 2}, sb{1, 1, 2};
  std::vector<float> cat(4);
  ops::ConcatChannels(a.data(), sa, b.data(), sb, cat.data());
  EXPECT_EQ(cat, (std::vector<float>{1, 2, 10, 20}));
}

TEST(OpsTest, SoftmaxSumsToOneAndOrdersCorrectly) {
  std::vector<float> in = {1, 3, 2};
  std::vector<float> out(3);
  ops::Softmax(in.data(), 3, out.data());
  EXPECT_NEAR(out[0] + out[1] + out[2], 1.0f, 1e-6);
  EXPECT_GT(out[1], out[2]);
  EXPECT_GT(out[2], out[0]);
}

TEST(OpsTest, SoftmaxStableForLargeLogits) {
  std::vector<float> in = {1000, 1001, 999};
  std::vector<float> out(3);
  ops::Softmax(in.data(), 3, out.data());
  EXPECT_FALSE(std::isnan(out[0]));
  EXPECT_NEAR(out[0] + out[1] + out[2], 1.0f, 1e-6);
}

// ------------------------------------------------- GEMM fast-path parity
// The im2col + blocked-GEMM kernels must reproduce the naive reference
// loops. Shapes sweep strides, kernel sizes, channel counts around the
// 16-wide/6-tall micro-tile edges, and non-multiples of both.

// Worst elementwise error, scaled: |a-b| / (1 + |a|), i.e. absolute for
// small magnitudes and relative for large ones (FMA in the GEMM kernels
// rounds differently from the naive mul+add chain).
float MaxScaledDiff(const std::vector<float>& a, const std::vector<float>& b) {
  float worst = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]) / (1.0f + std::abs(a[i])));
  }
  return worst;
}

std::vector<float> RandomVec(size_t n, uint32_t seed) {
  std::vector<float> v(n);
  uint32_t state = seed * 2654435761u + 1;
  for (size_t i = 0; i < n; ++i) {
    state = state * 1664525u + 1013904223u;
    v[i] = static_cast<float>(static_cast<int32_t>(state >> 8) % 2001 - 1000) / 500.0f;
  }
  return v;
}

struct ConvCase {
  int h, w, c, kernel, stride, out_c;
};

class ConvParityTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParityTest, GemmMatchesNaive) {
  const ConvCase p = GetParam();
  TensorShape shape{p.h, p.w, p.c};
  const size_t w_count =
      static_cast<size_t>(p.kernel) * p.kernel * p.c * p.out_c + p.out_c;
  std::vector<float> in = RandomVec(shape.elements(), 11);
  std::vector<float> weights = RandomVec(w_count, 22);
  const int out_h = (p.h + p.stride - 1) / p.stride;
  const int out_w = (p.w + p.stride - 1) / p.stride;
  const size_t out_n = static_cast<size_t>(out_h) * out_w * p.out_c;

  std::vector<float> expect(out_n), got(out_n);
  ops::Conv2dNaive(in.data(), shape, weights.data(), p.kernel, p.stride, p.out_c,
                   expect.data());
  ops::Conv2d(in.data(), shape, weights.data(), p.kernel, p.stride, p.out_c,
              got.data());
  EXPECT_LE(MaxScaledDiff(expect, got), 1e-5f)
      << p.h << "x" << p.w << "x" << p.c << " k" << p.kernel << " s" << p.stride
      << " oc" << p.out_c;

  // The scratch-supplied overload (executor path) must agree too.
  std::vector<float> scratch(
      ops::Conv2dScratchElements(shape, p.kernel, p.stride));
  std::vector<float> got2(out_n);
  ops::Conv2d(in.data(), shape, weights.data(), p.kernel, p.stride, p.out_c,
              got2.data(), scratch.data());
  EXPECT_EQ(got, got2);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvParityTest,
    ::testing::Values(ConvCase{8, 8, 3, 3, 1, 8}, ConvCase{16, 16, 16, 3, 1, 32},
                      ConvCase{16, 16, 8, 3, 2, 16}, ConvCase{7, 9, 5, 3, 1, 17},
                      ConvCase{12, 12, 32, 1, 1, 16}, ConvCase{13, 13, 6, 1, 2, 7},
                      ConvCase{5, 5, 2, 5, 1, 3}, ConvCase{32, 32, 4, 3, 1, 6},
                      ConvCase{1, 1, 16, 3, 1, 16}, ConvCase{16, 16, 3, 3, 1, 1}));

TEST(GemmParityTest, DepthwiseMatchesNaiveAcrossShapes) {
  const struct {
    int h, w, c, kernel, stride;
  } cases[] = {{8, 8, 8, 3, 1},   {16, 16, 32, 3, 1}, {16, 16, 13, 3, 2},
               {7, 9, 5, 3, 1},   {12, 12, 64, 3, 2}, {5, 5, 3, 5, 1},
               {1, 1, 16, 3, 1},  {32, 32, 24, 3, 1}, {4, 4, 1, 1, 1},
               {30, 30, 96, 3, 1},
               {64, 64, 64, 3, 1}};  // above the fan-out floor: pooled rows
  for (const auto& p : cases) {
    TensorShape shape{p.h, p.w, p.c};
    const size_t w_count = static_cast<size_t>(p.kernel) * p.kernel * p.c + p.c;
    std::vector<float> in = RandomVec(shape.elements(), 31);
    std::vector<float> weights = RandomVec(w_count, 32);
    const int out_h = (p.h + p.stride - 1) / p.stride;
    const int out_w = (p.w + p.stride - 1) / p.stride;
    const size_t out_n = static_cast<size_t>(out_h) * out_w * p.c;

    std::vector<float> expect(out_n), got(out_n);
    ops::DepthwiseConv2dNaive(in.data(), shape, weights.data(), p.kernel,
                              p.stride, expect.data());
    ops::DepthwiseConv2d(in.data(), shape, weights.data(), p.kernel, p.stride,
                         got.data());
    EXPECT_LE(MaxScaledDiff(expect, got), 1e-5f)
        << p.h << "x" << p.w << "x" << p.c << " k" << p.kernel << " s"
        << p.stride;
  }
}

TEST(GemmParityTest, DenseMatchesNaiveAcrossSizes) {
  const struct {
    size_t in_features;
    int units;
  } cases[] = {{1, 1},   {7, 5},    {16, 16},  {100, 10},
               {256, 64}, {300, 33}, {513, 17}, {64, 1000}};
  for (const auto& c : cases) {
    std::vector<float> in = RandomVec(c.in_features, 5);
    std::vector<float> weights =
        RandomVec(c.in_features * static_cast<size_t>(c.units) + c.units, 6);
    // Sprinkle zeros so the naive kernel's skip-zero shortcut is exercised.
    for (size_t i = 0; i < in.size(); i += 3) in[i] = 0.0f;
    std::vector<float> expect(c.units), got(c.units);
    ops::DenseNaive(in.data(), c.in_features, weights.data(), c.units,
                    expect.data());
    ops::Dense(in.data(), c.in_features, weights.data(), c.units, got.data());
    EXPECT_LE(MaxScaledDiff(expect, got), 1e-5f)
        << c.in_features << " -> " << c.units;
  }
}

TEST(GemmParityTest, CompiledArenaIncludesScratch) {
  // The compiled arena must be at least activations + the largest conv
  // scratch; a model with a 3x3 conv therefore reports a nonzero region.
  auto graph = model::BuildModel(SmallSpec(Architecture::kRsNet));
  ASSERT_TRUE(graph.ok());
  auto compiled = CompiledModel::Compile(*graph);
  ASSERT_TRUE(compiled.ok());
  EXPECT_GT(compiled->scratch_elements(), 0u);
  EXPECT_GE(compiled->arena_elements(), compiled->scratch_elements());
}

// ---------------------------------------------------------------- frameworks

class FrameworkTest
    : public ::testing::TestWithParam<std::tuple<FrameworkKind, Architecture>> {};

TEST_P(FrameworkTest, EndToEndInference) {
  auto [kind, arch] = GetParam();
  auto framework = CreateFramework(kind);
  auto graph = model::BuildModel(SmallSpec(arch));
  ASSERT_TRUE(graph.ok());
  Bytes wire = model::SerializeModel(*graph);

  auto loaded = framework->LoadModel(wire);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto runtime = framework->CreateRuntime(*loaded);
  ASSERT_TRUE(runtime.ok());

  Bytes input = model::GenerateRandomInput(*graph, 42);
  auto output = (*runtime)->Execute(input);
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  auto scores = model::ParseOutput(*output);
  ASSERT_TRUE(scores.ok());
  ASSERT_EQ(scores->size(), 10u);
  float sum = std::accumulate(scores->begin(), scores->end(), 0.0f);
  EXPECT_NEAR(sum, 1.0f, 1e-4);  // softmax output
  for (float s : *scores) {
    EXPECT_GE(s, 0.0f);
    EXPECT_FALSE(std::isnan(s));
  }
}

TEST_P(FrameworkTest, BatchedExecutionMatchesPerSample) {
  // The scheduler's same-model batches run through ExecuteBatch (batch-major
  // arena, Dense layers as one M=batch GEMM); every sample's output must
  // match the unbatched path.
  auto [kind, arch] = GetParam();
  auto framework = CreateFramework(kind);
  auto graph = model::BuildModel(SmallSpec(arch));
  ASSERT_TRUE(graph.ok());
  auto loaded = framework->WrapModel(*graph);
  ASSERT_TRUE(loaded.ok());
  auto runtime = framework->CreateRuntime(*loaded);
  ASSERT_TRUE(runtime.ok());

  constexpr int kBatch = 5;
  std::vector<Bytes> inputs;
  for (int b = 0; b < kBatch; ++b) {
    inputs.push_back(model::GenerateRandomInput(*graph, 100 + b));
  }
  std::vector<ByteSpan> spans(inputs.begin(), inputs.end());
  auto batched = (*runtime)->ExecuteBatch(spans);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched->size(), static_cast<size_t>(kBatch));

  for (int b = 0; b < kBatch; ++b) {
    auto single = (*runtime)->Execute(inputs[b]);
    ASSERT_TRUE(single.ok());
    auto want = model::ParseOutput(*single);
    auto got = model::ParseOutput((*batched)[b]);
    ASSERT_TRUE(want.ok() && got.ok());
    ASSERT_EQ(want->size(), got->size());
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_NEAR((*want)[i], (*got)[i], 1e-5f) << "sample " << b << " idx " << i;
    }
  }
}

TEST_P(FrameworkTest, ExecutionIsDeterministic) {
  auto [kind, arch] = GetParam();
  auto framework = CreateFramework(kind);
  auto graph = model::BuildModel(SmallSpec(arch));
  ASSERT_TRUE(graph.ok());
  auto loaded = framework->WrapModel(*graph);
  ASSERT_TRUE(loaded.ok());
  auto rt1 = framework->CreateRuntime(*loaded);
  auto rt2 = framework->CreateRuntime(*loaded);
  ASSERT_TRUE(rt1.ok() && rt2.ok());
  Bytes input = model::GenerateRandomInput(*graph, 7);
  auto o1 = (*rt1)->Execute(input);
  auto o2 = (*rt2)->Execute(input);
  ASSERT_TRUE(o1.ok() && o2.ok());
  EXPECT_EQ(*o1, *o2);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, FrameworkTest,
    ::testing::Combine(::testing::Values(FrameworkKind::kTflm, FrameworkKind::kTvm),
                       ::testing::Values(Architecture::kMbNet, Architecture::kRsNet,
                                         Architecture::kDsNet)));

TEST(FrameworkContrastTest, BothFrameworksAgreeOnOutput) {
  // Same graph, same input — the two execution strategies must agree. TFLM
  // reads row-major weights in place, TVM the pre-packed panels; the ragged
  // panel edges round differently (same FMA-level tolerance as the naive
  // parity suite), so agreement is numeric, not bitwise.
  auto graph = model::BuildModel(SmallSpec(Architecture::kRsNet));
  ASSERT_TRUE(graph.ok());
  Bytes input = model::GenerateRandomInput(*graph, 3);

  auto tflm = CreateFramework(FrameworkKind::kTflm);
  auto tvm = CreateFramework(FrameworkKind::kTvm);
  auto lm1 = tflm->WrapModel(*graph);
  auto lm2 = tvm->WrapModel(*graph);
  ASSERT_TRUE(lm1.ok() && lm2.ok());
  auto r1 = tflm->CreateRuntime(*lm1);
  auto r2 = tvm->CreateRuntime(*lm2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  auto o1 = (*r1)->Execute(input);
  auto o2 = (*r2)->Execute(input);
  ASSERT_TRUE(o1.ok() && o2.ok());
  auto s1 = model::ParseOutput(*o1);
  auto s2 = model::ParseOutput(*o2);
  ASSERT_TRUE(s1.ok() && s2.ok());
  ASSERT_EQ(s1->size(), s2->size());
  EXPECT_LE(MaxScaledDiff(*s1, *s2), 1e-5f);
}

TEST(FrameworkContrastTest, TvmPackedModelExceedsTflmModel) {
  // Table I, post-compile: TVM's MODEL_LOAD builds the packed artifact next
  // to the weights (λ_model > 1), TFLM reads weights in place (λ_model ≈ 1).
  // Runtimes on both sides hold only the activation arena — the packed copy
  // is shared, not duplicated per TCS slot.
  for (Architecture arch : {Architecture::kMbNet, Architecture::kRsNet,
                            Architecture::kDsNet}) {
    // Large enough that weights dominate activations, as with the real models.
    ZooSpec spec = SmallSpec(arch);
    spec.scale = 0.05;
    auto graph = model::BuildModel(spec);
    ASSERT_TRUE(graph.ok());
    auto tflm = CreateFramework(FrameworkKind::kTflm);
    auto tvm = CreateFramework(FrameworkKind::kTvm);
    auto lm_tflm = tflm->WrapModel(*graph);
    auto lm_tvm = tvm->WrapModel(*graph);
    ASSERT_TRUE(lm_tflm.ok() && lm_tvm.ok());
    auto rt_tflm = tflm->CreateRuntime(*lm_tflm);
    auto rt_tvm = tvm->CreateRuntime(*lm_tvm);
    ASSERT_TRUE(rt_tflm.ok() && rt_tvm.ok());

    uint64_t model_bytes = graph->WeightBytes();
    EXPECT_GT((*lm_tvm)->memory_bytes(), model_bytes)
        << ToString(arch) << ": TVM loaded model must carry the packed panels";
    EXPECT_GT((*lm_tvm)->memory_bytes(), (*lm_tflm)->memory_bytes())
        << ToString(arch) << ": packing must cost resident bytes vs in-place";
    EXPECT_LT((*rt_tflm)->buffer_bytes(), model_bytes)
        << ToString(arch) << ": TFLM arena must be smaller than the model";
    EXPECT_LT((*rt_tvm)->buffer_bytes(), model_bytes)
        << ToString(arch)
        << ": TVM per-runtime state is the arena only (packed copy is shared)";
  }
}

TEST(FrameworkTest, RejectsCrossFrameworkRuntime) {
  auto graph = model::BuildModel(SmallSpec(Architecture::kMbNet));
  ASSERT_TRUE(graph.ok());
  auto tflm = CreateFramework(FrameworkKind::kTflm);
  auto tvm = CreateFramework(FrameworkKind::kTvm);
  auto loaded = tflm->WrapModel(*graph);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(tvm->CreateRuntime(*loaded).ok());
}

TEST(FrameworkTest, RejectsWrongInputSize)  {
  auto graph = model::BuildModel(SmallSpec(Architecture::kMbNet));
  ASSERT_TRUE(graph.ok());
  auto framework = CreateFramework(FrameworkKind::kTflm);
  auto loaded = framework->WrapModel(*graph);
  ASSERT_TRUE(loaded.ok());
  auto runtime = framework->CreateRuntime(*loaded);
  ASSERT_TRUE(runtime.ok());
  EXPECT_FALSE((*runtime)->Execute(Bytes(13, 0)).ok());
  EXPECT_FALSE((*runtime)->Execute(Bytes{}).ok());
}

TEST(FrameworkTest, RejectsCorruptModelBytes) {
  auto framework = CreateFramework(FrameworkKind::kTvm);
  EXPECT_FALSE(framework->LoadModel(Bytes(100, 7)).ok());
}

TEST(FrameworkTest, NamesRoundTrip) {
  EXPECT_STREQ(ToString(FrameworkKind::kTflm), "tflm");
  EXPECT_STREQ(ToString(FrameworkKind::kTvm), "tvm");
  EXPECT_TRUE(FrameworkFromString("tflm").ok());
  EXPECT_TRUE(FrameworkFromString("tvm").ok());
  EXPECT_FALSE(FrameworkFromString("onnx").ok());
}

}  // namespace
}  // namespace sesemi::inference
