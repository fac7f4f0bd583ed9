// Google-benchmark microbenchmarks for the substrates: crypto primitives,
// RA-TLS handshakes, model (de)serialization, and the end-to-end SeMIRT hot
// path. These are the building blocks behind every figure; regressions here
// shift the calibrated curves.
//
// Machine-readable output for the BENCH_*.json trajectory:
//   bench_micro --benchmark_format=json --benchmark_out=bench_micro.json
// Throughput appears as bytes_per_second (GCM/SHA, i.e. GB/s after scaling)
// and the FLOPS counter (Conv2d/Dense, GFLOP/s after scaling). The *Naive
// variants run the seed scalar kernels for an in-binary speedup baseline.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <string>
#include <thread>

#include "bench/bench_common.h"
#include "common/executor.h"
#include "common/parallel_for.h"
#include "crypto/gcm.h"
#include "crypto/key.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"
#include "inference/compiled_model.h"
#include "inference/gemm.h"
#include "inference/ops.h"
#include "model/format.h"
#include "ratls/handshake.h"

namespace sesemi::bench {
namespace {

// SHA-256 rides the same hw-vs-portable dispatch as GCM: the default series
// is labelled with the resolved backend (SHA-NI where the CPU has it), and
// the *Portable twin pins the FIPS 180-4 scalar rounds.
void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(crypto::Sha256().hardware() ? "hw" : "portable");
}
BENCHMARK(BM_Sha256)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_Sha256Portable(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    crypto::Sha256 h(crypto::CryptoBackend::kPortable);
    h.Update(data);
    benchmark::DoNotOptimize(h.Finish());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256Portable)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

// The hw-vs-portable series: the default benchmarks ride the process-wide
// backend (AES-NI + PCLMUL where the CPU has them, labelled), and the
// *Portable twins pin the T-table/Shoup fallback, so one run shows the
// hardware dispatch speedup in-binary — the same pattern as the *Naive
// inference kernels below.
void BM_AesGcmEncrypt(benchmark::State& state) {
  Bytes key(16, 1), nonce(12, 2);
  Bytes data(static_cast<size_t>(state.range(0)), 0xcd);
  auto gcm = crypto::AesGcm::Create(key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm->Encrypt(nonce, {}, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(gcm->hardware() ? "hw" : "portable");
}
BENCHMARK(BM_AesGcmEncrypt)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_AesGcmEncryptPortable(benchmark::State& state) {
  Bytes key(16, 1), nonce(12, 2);
  Bytes data(static_cast<size_t>(state.range(0)), 0xcd);
  auto gcm = crypto::AesGcm::Create(key, crypto::CryptoBackend::kPortable);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm->Encrypt(nonce, {}, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesGcmEncryptPortable)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_AesGcmDecrypt(benchmark::State& state) {
  Bytes key(16, 1), nonce(12, 2);
  Bytes data(static_cast<size_t>(state.range(0)), 0xcd);
  auto gcm = crypto::AesGcm::Create(key);
  Bytes sealed = std::move(*gcm->Encrypt(nonce, {}, data));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm->Decrypt(nonce, {}, sealed));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(gcm->hardware() ? "hw" : "portable");
}
BENCHMARK(BM_AesGcmDecrypt)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_AesGcmDecryptPortable(benchmark::State& state) {
  Bytes key(16, 1), nonce(12, 2);
  Bytes data(static_cast<size_t>(state.range(0)), 0xcd);
  auto gcm = crypto::AesGcm::Create(key, crypto::CryptoBackend::kPortable);
  Bytes sealed = std::move(*gcm->Encrypt(nonce, {}, data));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm->Decrypt(nonce, {}, sealed));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesGcmDecryptPortable)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

// GcmSeal/GcmOpen are the exact calls on the SeMIRT request path (key
// schedule + GHASH table build per call included), reported as end-to-end
// payload throughput.
void BM_GcmSeal(benchmark::State& state) {
  Bytes key(16, 7);
  Bytes aad = ToBytes("sesemi-request:mbnet");
  Bytes data(static_cast<size_t>(state.range(0)), 0x5c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::GcmSeal(key, aad, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GcmSeal)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

// Portable twin of BM_GcmSeal (per-message cipher setup included, like the
// keyed helper): the request-path end-to-end cost of the fallback.
void BM_GcmSealPortable(benchmark::State& state) {
  Bytes key(16, 7);
  Bytes aad = ToBytes("sesemi-request:mbnet");
  Bytes data(static_cast<size_t>(state.range(0)), 0x5c);
  for (auto _ : state) {
    auto gcm = crypto::AesGcm::Create(key, crypto::CryptoBackend::kPortable);
    benchmark::DoNotOptimize(crypto::GcmSealPartsWith(*gcm, aad, {}, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GcmSealPortable)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

// VAES twin of BM_GcmSeal: pins the AVX-512 4×128-lane keystream +
// VPCLMULQDQ 8-block GHASH tier (per-message cipher setup included, like the
// other twins), so one run shows what the wide tier buys over single-block
// AES-NI. Skips with a note where the CPU lacks VAES/AVX-512.
void BM_GcmSealVaes(benchmark::State& state) {
  if (!crypto::VaesCryptoAvailable()) {
    // This libbenchmark predates SkipWithMessage; an empty run with a label
    // keeps the series present (CI asserts on the name) without faking a
    // throughput number.
    for (auto _ : state) {
    }
    state.SetLabel("skipped: VAES/AVX-512 unavailable");
    return;
  }
  Bytes key(16, 7);
  Bytes aad = ToBytes("sesemi-request:mbnet");
  Bytes data(static_cast<size_t>(state.range(0)), 0x5c);
  for (auto _ : state) {
    auto gcm = crypto::AesGcm::Create(key, crypto::CryptoBackend::kHardwareVaes);
    benchmark::DoNotOptimize(crypto::GcmSealPartsWith(*gcm, aad, {}, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GcmSealVaes)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_GcmOpen(benchmark::State& state) {
  Bytes key(16, 7);
  Bytes aad = ToBytes("sesemi-request:mbnet");
  Bytes data(static_cast<size_t>(state.range(0)), 0x5c);
  Bytes sealed = std::move(*crypto::GcmSeal(key, aad, data));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::GcmOpen(key, aad, sealed));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GcmOpen)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_GcmOpenPortable(benchmark::State& state) {
  Bytes key(16, 7);
  Bytes aad = ToBytes("sesemi-request:mbnet");
  Bytes data(static_cast<size_t>(state.range(0)), 0x5c);
  Bytes sealed = std::move(*crypto::GcmSeal(key, aad, data));
  for (auto _ : state) {
    auto gcm = crypto::AesGcm::Create(key, crypto::CryptoBackend::kPortable);
    benchmark::DoNotOptimize(crypto::GcmOpenPartsWith(*gcm, aad, {}, sealed));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GcmOpenPortable)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

// ------------------------------------------------ inference kernels
// FLOPS counter = multiply-adds * 2 per second; naive twins measure the
// seed scalar kernels so the GEMM speedup is visible in one run.

std::vector<float> BenchVec(size_t n) {
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>((i * 2654435761u % 1024) / 512.0) - 1.0f;
  }
  return v;
}

struct ConvSetup {
  model::TensorShape shape;
  int kernel = 3, stride = 1, out_c;
  std::vector<float> in, weights, out;
  double flops;

  explicit ConvSetup(int hw, int c, int oc) : shape{hw, hw, c}, out_c(oc) {
    in = BenchVec(shape.elements());
    weights = BenchVec(static_cast<size_t>(kernel) * kernel * c * oc + oc);
    out.resize(static_cast<size_t>(hw) * hw * oc);
    flops = 2.0 * hw * hw * oc * kernel * kernel * c;
  }
};

void BM_Conv2d(benchmark::State& state) {
  ConvSetup s(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)),
              static_cast<int>(state.range(2)));
  std::vector<float> scratch(
      inference::ops::Conv2dScratchElements(s.shape, s.kernel, s.stride));
  for (auto _ : state) {
    inference::ops::Conv2d(s.in.data(), s.shape, s.weights.data(), s.kernel,
                           s.stride, s.out_c, s.out.data(), scratch.data());
    benchmark::DoNotOptimize(s.out.data());
  }
  state.counters["FLOPS"] = benchmark::Counter(
      s.flops * static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
// {32, 8, 8}, {16, 12, 12} and {32, 32, 8} are cold_churn's rsnet/dsnet
// layers: fewer than 16 output channels, so every column is ragged edge.
BENCHMARK(BM_Conv2d)
    ->Args({32, 64, 64})->Args({16, 32, 64})->Args({64, 16, 16})
    ->Args({32, 8, 8})->Args({16, 12, 12})->Args({32, 32, 8});

void BM_Conv2dNaive(benchmark::State& state) {
  ConvSetup s(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)),
              static_cast<int>(state.range(2)));
  for (auto _ : state) {
    inference::ops::Conv2dNaive(s.in.data(), s.shape, s.weights.data(), s.kernel,
                                s.stride, s.out_c, s.out.data());
    benchmark::DoNotOptimize(s.out.data());
  }
  state.counters["FLOPS"] = benchmark::Counter(
      s.flops * static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Conv2dNaive)->Args({32, 64, 64})->Args({16, 32, 64})->Args({64, 16, 16});

// Prepacked twin of BM_Conv2d: the B panels are laid out once (MODEL_LOAD
// semantics, outside the timed loop), so the delta against BM_Conv2d is
// exactly what compile-once weight packing buys the hot path.
void BM_Conv2dPrepacked(benchmark::State& state) {
  ConvSetup s(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)),
              static_cast<int>(state.range(2)));
  const int k = s.kernel * s.kernel * s.shape.c;
  std::vector<float> packed(inference::gemm::PackedBElements(k, s.out_c));
  inference::gemm::PackB(s.weights.data(), k, s.out_c, packed.data());
  const float* bias = s.weights.data() + static_cast<size_t>(k) * s.out_c;
  std::vector<float> scratch(
      inference::ops::Conv2dScratchElements(s.shape, s.kernel, s.stride));
  for (auto _ : state) {
    inference::gemm::Conv2dGemmPrepacked(s.in.data(), s.shape, packed.data(),
                                         bias, s.kernel, s.stride, s.out_c,
                                         s.out.data(), scratch.data());
    benchmark::DoNotOptimize(s.out.data());
  }
  state.counters["FLOPS"] = benchmark::Counter(
      s.flops * static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Conv2dPrepacked)
    ->Args({32, 64, 64})->Args({16, 32, 64})->Args({64, 16, 16})
    ->Args({32, 8, 8})->Args({16, 12, 12})->Args({32, 32, 8});

// Pooled-vs-inline twins behind the GEMM fan-out floor
// (kParallelFlopThreshold in inference/gemm.cc): the same 24-row panels of an
// rsnet-shaped prepacked GEMM (K = 72, N = 8, M = range(0)), spread over the
// pool (range(1) = 1) or run on the calling thread (0: an RT-tier thread,
// whose ParallelFor never fans out). With range(2) = 200 each iteration
// follows 200 us of idle pool, as a request does between arrivals, so the
// pooled twin pays the workers' wake-up; with 0 the workers are still warm
// from the previous iteration. The floor belongs where pooled starts to win.
void BM_GemmFanOut(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const bool pooled = state.range(1) != 0;
  const auto idle = std::chrono::microseconds(state.range(2));
  constexpr int k = 72, n = 8;
  std::vector<float> a = BenchVec(static_cast<size_t>(m) * k);
  std::vector<float> b = BenchVec(static_cast<size_t>(k) * n);
  std::vector<float> bias = BenchVec(n);
  std::vector<float> c(static_cast<size_t>(m) * n);
  std::vector<float> packed(inference::gemm::PackedBElements(k, n));
  inference::gemm::PackB(b.data(), k, n, packed.data());
  ScopedExecTier tier(pooled ? ExecTier::kBulk : ExecTier::kRealtime);
  for (auto _ : state) {
    if (idle.count() > 0) {
      state.PauseTiming();
      std::this_thread::sleep_for(idle);
      state.ResumeTiming();
    }
    ParallelFor(0, m, 24, [&](int64_t r0, int64_t r1) {
      inference::gemm::GemmPrepacked(
          a.data() + r0 * k, packed.data(), bias.data(), c.data() + r0 * n,
          static_cast<int>(r1 - r0), n, k);
    });
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["MACs"] = static_cast<double>(m) * k * n;
  state.SetLabel(pooled ? "pooled" : "inline");
}
BENCHMARK(BM_GemmFanOut)
    ->ArgsProduct({{256, 1024, 2048, 4096, 16384}, {0, 1}, {0, 200}})
    ->UseRealTime();

struct DepthwiseSetup {
  model::TensorShape shape;
  static constexpr int kernel = 3;
  static constexpr int stride = 1;
  std::vector<float> in, weights, out;
  double flops = 0;

  explicit DepthwiseSetup(int hw, int c) : shape{hw, hw, c} {
    in = BenchVec(shape.elements());
    weights = BenchVec(static_cast<size_t>(kernel) * kernel * c + c);
    out.resize(shape.elements());
    flops = 2.0 * hw * hw * kernel * kernel * c;
  }
};

void BM_DepthwiseConv2d(benchmark::State& state) {
  DepthwiseSetup s(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    inference::ops::DepthwiseConv2d(s.in.data(), s.shape, s.weights.data(),
                                    s.kernel, s.stride, s.out.data());
    benchmark::DoNotOptimize(s.out.data());
  }
  state.counters["FLOPS"] = benchmark::Counter(
      s.flops * static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DepthwiseConv2d)->Args({64, 64})->Args({32, 256});

void BM_DepthwiseConv2dNaive(benchmark::State& state) {
  DepthwiseSetup s(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    inference::ops::DepthwiseConv2dNaive(s.in.data(), s.shape, s.weights.data(),
                                         s.kernel, s.stride, s.out.data());
    benchmark::DoNotOptimize(s.out.data());
  }
  state.counters["FLOPS"] = benchmark::Counter(
      s.flops * static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DepthwiseConv2dNaive)->Args({64, 64})->Args({32, 256});

void BM_Dense(benchmark::State& state) {
  const size_t in_features = static_cast<size_t>(state.range(0));
  const int units = static_cast<int>(state.range(1));
  std::vector<float> in = BenchVec(in_features);
  std::vector<float> weights = BenchVec(in_features * units + units);
  std::vector<float> out(units);
  for (auto _ : state) {
    inference::ops::Dense(in.data(), in_features, weights.data(), units, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["FLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(in_features) * units * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Dense)->Args({1024, 1024})->Args({4096, 256});

void BM_DenseNaive(benchmark::State& state) {
  const size_t in_features = static_cast<size_t>(state.range(0));
  const int units = static_cast<int>(state.range(1));
  std::vector<float> in = BenchVec(in_features);
  std::vector<float> weights = BenchVec(in_features * units + units);
  std::vector<float> out(units);
  for (auto _ : state) {
    inference::ops::DenseNaive(in.data(), in_features, weights.data(), units,
                               out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["FLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(in_features) * units * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DenseNaive)->Args({1024, 1024})->Args({4096, 256});

// Prepacked twin of BM_Dense: the M==1 GEMV over panel-major B (one
// contiguous forward stream per panel, accumulators live in registers).
void BM_DensePrepacked(benchmark::State& state) {
  const size_t in_features = static_cast<size_t>(state.range(0));
  const int units = static_cast<int>(state.range(1));
  std::vector<float> in = BenchVec(in_features);
  std::vector<float> weights = BenchVec(in_features * units + units);
  std::vector<float> packed(
      inference::gemm::PackedBElements(static_cast<int>(in_features), units));
  inference::gemm::PackB(weights.data(), static_cast<int>(in_features), units,
                         packed.data());
  const float* bias = weights.data() + in_features * static_cast<size_t>(units);
  std::vector<float> out(units);
  for (auto _ : state) {
    inference::gemm::GemmPrepacked(in.data(), packed.data(), bias, out.data(), 1,
                                   units, static_cast<int>(in_features));
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["FLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(in_features) * units * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DensePrepacked)->Args({1024, 1024})->Args({4096, 256});

// Int8 twin of BM_DensePrepacked: weights quantized and packed once
// (MODEL_LOAD semantics), the timed loop is the per-request hot path —
// dynamic activation quantization + the u7×s8 GEMV with the fp32 dequant
// epilogue. The FLOPS counter uses the same multiply-add count as the fp32
// twins, so the series divide directly into a speedup. arg2 pins the
// instruction tier (0 = auto, 1 = portable, 2 = AVX2, 3 = AVX-512 VNNI);
// pinned tiers the CPU lacks emit an empty labelled run, like BM_GcmSealVaes.
void BM_DenseInt8(benchmark::State& state) {
  const int in_features = static_cast<int>(state.range(0));
  const int units = static_cast<int>(state.range(1));
  const auto isa = static_cast<inference::gemm::GemmIsa>(state.range(2));
  if (!inference::gemm::GemmIsaAvailable(isa)) {
    for (auto _ : state) {
    }
    state.SetLabel(std::string("skipped: ") + inference::gemm::ToString(isa) +
                   " unavailable");
    return;
  }
  std::vector<float> in = BenchVec(static_cast<size_t>(in_features));
  std::vector<float> weights =
      BenchVec(static_cast<size_t>(in_features) * units + units);
  const float* bias =
      weights.data() + static_cast<size_t>(in_features) * units;

  // MODEL_LOAD: per-column symmetric int8 quantization + panel packing.
  std::vector<int8_t> wq(static_cast<size_t>(in_features) * units);
  std::vector<float> w_scales(units);
  for (int j = 0; j < units; ++j) {
    float absmax = 0.0f;
    for (int kk = 0; kk < in_features; ++kk) {
      absmax = std::max(absmax,
                        std::abs(weights[static_cast<size_t>(kk) * units + j]));
    }
    w_scales[j] = absmax > 0.0f ? absmax / 127.0f : 1.0f;
    for (int kk = 0; kk < in_features; ++kk) {
      const size_t at = static_cast<size_t>(kk) * units + j;
      wq[at] = static_cast<int8_t>(
          std::lrintf(weights[at] / w_scales[j]));
    }
  }
  std::vector<int8_t> packed(
      inference::gemm::PackedBInt8Bytes(in_features, units));
  inference::gemm::PackBInt8(wq.data(), in_features, units, packed.data());
  std::vector<int32_t> colsums(units);
  inference::gemm::Int8ColumnSums(wq.data(), in_features, units, colsums.data());

  const int k4 = inference::gemm::RoundUpK4(in_features);
  std::vector<uint8_t> in_q(static_cast<size_t>(k4), 0);
  std::vector<float> out(units);
  for (auto _ : state) {
    const inference::gemm::ActQuant aq = inference::gemm::QuantizeActivations(
        in.data(), static_cast<size_t>(in_features), in_q.data());
    const float a_scale = aq.scale;
    const int32_t a_zp = aq.zero_point;
    inference::gemm::GemmInt8Prepacked(in_q.data(), k4, &a_scale, &a_zp,
                                       packed.data(), w_scales.data(),
                                       colsums.data(), bias, out.data(), 1,
                                       units, in_features, isa);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(inference::gemm::ToString(
      isa == inference::gemm::GemmIsa::kAuto ? inference::gemm::ActiveGemmIsa()
                                             : isa));
  state.counters["FLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(in_features) * units * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DenseInt8)
    ->Args({1024, 1024, 0})
    ->Args({4096, 256, 0})
    ->Args({1024, 1024, 2})
    ->Args({4096, 256, 2})
    ->Args({1024, 1024, 3})
    ->Args({4096, 256, 3});

// Int8 twin of BM_Conv2dPrepacked: per-output-channel quantized weights in
// int8 panels, dynamic input quantization + u8 im2col + int8 GEMM per
// iteration — exactly the compiled quantized conv path.
void BM_Conv2dInt8(benchmark::State& state) {
  ConvSetup s(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)),
              static_cast<int>(state.range(2)));
  const int k = s.kernel * s.kernel * s.shape.c;
  std::vector<int8_t> wq(static_cast<size_t>(k) * s.out_c);
  std::vector<float> w_scales(s.out_c);
  for (int j = 0; j < s.out_c; ++j) {
    float absmax = 0.0f;
    for (int kk = 0; kk < k; ++kk) {
      absmax = std::max(
          absmax, std::abs(s.weights[static_cast<size_t>(kk) * s.out_c + j]));
    }
    w_scales[j] = absmax > 0.0f ? absmax / 127.0f : 1.0f;
    for (int kk = 0; kk < k; ++kk) {
      const size_t at = static_cast<size_t>(kk) * s.out_c + j;
      wq[at] = static_cast<int8_t>(std::lrintf(s.weights[at] / w_scales[j]));
    }
  }
  std::vector<int8_t> packed(inference::gemm::PackedBInt8Bytes(k, s.out_c));
  inference::gemm::PackBInt8(wq.data(), k, s.out_c, packed.data());
  std::vector<int32_t> colsums(s.out_c);
  inference::gemm::Int8ColumnSums(wq.data(), k, s.out_c, colsums.data());
  const float* bias = s.weights.data() + static_cast<size_t>(k) * s.out_c;

  const size_t in_elems = s.shape.elements();
  std::vector<uint8_t> in_q((in_elems + 3) & ~size_t{3}, 0);
  std::vector<uint8_t> scratch(
      inference::gemm::Conv2dScratchBytesInt8(s.shape, s.kernel, s.stride));
  for (auto _ : state) {
    const inference::gemm::ActQuant aq = inference::gemm::QuantizeActivations(
        s.in.data(), in_elems, in_q.data());
    inference::gemm::Conv2dGemmInt8Prepacked(
        in_q.data(), aq, s.shape, packed.data(), w_scales.data(),
        colsums.data(), bias, s.kernel, s.stride, s.out_c, s.out.data(),
        scratch.empty() ? nullptr : scratch.data());
    benchmark::DoNotOptimize(s.out.data());
  }
  state.SetLabel(inference::gemm::ToString(inference::gemm::ActiveGemmIsa()));
  state.counters["FLOPS"] = benchmark::Counter(
      s.flops * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Conv2dInt8)->Args({32, 64, 64})->Args({16, 32, 64})->Args({64, 16, 16});

void BM_X25519SharedSecret(benchmark::State& state) {
  auto a = crypto::GenerateX25519KeyPair();
  auto b = crypto::GenerateX25519KeyPair();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::X25519SharedSecret(a.private_key, b.public_key));
  }
}
BENCHMARK(BM_X25519SharedSecret);

void BM_RatlsMutualHandshake(benchmark::State& state) {
  sgx::AttestationAuthority authority;
  sgx::SgxPlatform platform(sgx::SgxGeneration::kSgx2, &authority);
  sgx::EnclaveImage server_image("s", {{"c", ToBytes("ks")}}, {});
  sgx::EnclaveImage client_image("c", {{"c", ToBytes("rt")}}, {});
  auto server = std::move(*platform.CreateEnclave(server_image));
  auto client = std::move(*platform.CreateEnclave(client_image));
  for (auto _ : state) {
    ratls::RatlsInitiator initiator(&authority, client.get());
    auto hello = initiator.Start();
    ratls::RatlsAcceptor acceptor(server.get());
    auto accepted = acceptor.Accept(*hello, true);
    benchmark::DoNotOptimize(initiator.Finish(accepted->hello, server->mrenclave()));
  }
}
BENCHMARK(BM_RatlsMutualHandshake);

// MODEL_LOAD's decrypt: one AES-GCM open plus the parse that copies the
// plaintext into the weight vectors, on cold_churn's largest model (rsnet at
// the e2e benchmark's scale 0.01 and input 32). The compile that follows is
// BM_ModelCompile.
void BM_ModelDecrypt(benchmark::State& state) {
  model::ZooSpec spec;
  spec.model_id = "rsnet";
  spec.arch = model::Architecture::kRsNet;
  spec.scale = 0.01;
  spec.input_hw = 32;
  auto graph = model::BuildModel(spec);
  const Bytes key = crypto::GenerateSymmetricKey();
  auto sealed = model::EncryptModel(*graph, key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::DecryptModel(*sealed, key, spec.model_id));
  }
  state.SetBytesProcessed(state.iterations() * sealed->size());
  state.SetLabel(crypto::ToString(crypto::ActiveCryptoBackend()));
  state.counters["sealed_MB"] = static_cast<double>(sealed->size()) / 1e6;
}
BENCHMARK(BM_ModelDecrypt)->Unit(benchmark::kMillisecond);

// MODEL_LOAD-time compile latency: what the compile-once split moved off the
// request path. arg0 selects packing (1 = µTVM packed panels, 0 = µTFLM
// plan-only); the packed_MB counter is the resident cost of the artifact.
void BM_ModelCompile(benchmark::State& state) {
  model::ZooSpec spec;
  spec.arch = model::Architecture::kHybNet;
  spec.scale = 0.02;
  spec.input_hw = 16;
  auto graph = model::BuildModel(spec);
  inference::CompiledModel::Options options;
  options.pack_weights = state.range(0) != 0;
  uint64_t packed_bytes = 0;
  for (auto _ : state) {
    // The graph copy stands in for MODEL_LOAD's ownership handoff but is a
    // megabyte-scale memcpy — keep it (and the artifact teardown) out of the
    // timed region so the series measures Compile itself.
    state.PauseTiming();
    model::ModelGraph copy = *graph;
    state.ResumeTiming();
    auto compiled = inference::CompiledModel::Compile(std::move(copy), options);
    benchmark::DoNotOptimize(compiled);
    state.PauseTiming();
    packed_bytes = compiled->packed_weight_bytes();
    { auto dropped = std::move(compiled); }  // teardown outside the timer
    state.ResumeTiming();
  }
  state.SetLabel(options.pack_weights ? "packed" : "plan-only");
  state.counters["packed_MB"] =
      static_cast<double>(packed_bytes) / (1024.0 * 1024.0);
}
BENCHMARK(BM_ModelCompile)->Arg(0)->Arg(1);

// Batched execution over the compiled pipeline: Dense rides one M=batch
// GEMM, conv/pool layers fan the batch over the pool. items/s is samples/s.
void BM_CompiledExecuteBatch(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  model::ZooSpec spec;
  spec.arch = model::Architecture::kHybNet;
  spec.scale = 0.02;
  spec.input_hw = 16;
  auto graph = model::BuildModel(spec);
  auto compiled = inference::CompiledModel::Compile(*graph);
  std::vector<Bytes> inputs;
  for (int b = 0; b < batch; ++b) {
    inputs.push_back(model::GenerateRandomInput(*graph, 100 + b));
  }
  std::vector<ByteSpan> spans(inputs.begin(), inputs.end());
  std::vector<float> arena(compiled->batch_arena_elements(batch));
  std::vector<Bytes> outputs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compiled->ExecuteBatch(spans, arena.data(), &outputs));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_CompiledExecuteBatch)->Arg(1)->Arg(4)->Arg(8);

// MODEL_EXEC on one runtime: mbnet-16 is warm_zoo's median mode; rsnet-32
// and dsnet-32 are cold_churn's, where nearly every conv is ragged edge.
void BM_InferenceExecute(benchmark::State& state) {
  const auto arch = static_cast<model::Architecture>(state.range(0));
  const auto kind = state.range(1) == 0 ? inference::FrameworkKind::kTflm
                                        : inference::FrameworkKind::kTvm;
  model::ZooSpec spec;
  spec.arch = arch;
  spec.scale = 0.01;
  spec.input_hw = arch == model::Architecture::kMbNet ? 16 : 32;
  auto graph = model::BuildModel(spec);
  auto framework = inference::CreateFramework(kind);
  auto loaded = framework->WrapModel(*graph);
  auto runtime = std::move(*framework->CreateRuntime(*loaded));
  Bytes input = model::GenerateRandomInput(*graph, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime->Execute(input));
  }
  state.SetLabel(std::string(inference::ToString(kind)) + " " +
                 model::ToString(arch) + "-" + std::to_string(spec.input_hw));
}
BENCHMARK(BM_InferenceExecute)
    ->ArgsProduct({{static_cast<int>(model::Architecture::kMbNet),
                    static_cast<int>(model::Architecture::kRsNet),
                    static_cast<int>(model::Architecture::kDsNet)},
                   {0, 1}});

void BM_SemirtHotPath(benchmark::State& state) {
  LiveRig rig(0.01);
  rig.DeployModel(model::Architecture::kMbNet);
  semirt::SemirtOptions options;
  rig.Authorize(model::Architecture::kMbNet, options);
  auto instance = rig.MakeInstance(options);
  // Warm to hot.
  (void)rig.TimedRequest(instance.get(), model::Architecture::kMbNet, options);
  uint64_t seed = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rig.TimedRequest(instance.get(), model::Architecture::kMbNet, options, seed++));
  }
}
BENCHMARK(BM_SemirtHotPath);

}  // namespace
}  // namespace sesemi::bench

BENCHMARK_MAIN();
