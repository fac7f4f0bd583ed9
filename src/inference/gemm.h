#ifndef SESEMI_INFERENCE_GEMM_H_
#define SESEMI_INFERENCE_GEMM_H_

#include <cstddef>
#include <cstdint>

#include "model/graph.h"

namespace sesemi::inference::gemm {

using model::TensorShape;

/// C (M x N) = A (M x K, row-major) * B (K x N, row-major), with C[m][n]
/// seeded from bias[n] (bias == nullptr seeds zero). Register-blocked
/// micro-kernels with an AVX2+FMA variant selected at runtime; the k loop
/// runs strictly ascending per output element. Full 16-column panels fuse
/// each multiply-add, so they match the naive triple loop up to FMA
/// rounding. The ragged right edge (the last n % 16 columns) runs on an
/// AVX2 register tile that multiplies and then adds, so for M > 1 its
/// columns equal the naive loop's bit for bit on every tier (M == 1 takes a
/// fused GEMV instead). Row panels spread over the process thread pool only
/// from 2^21 multiply-adds (the fan-out floor); below it, which covers every
/// layer of the zoo models, the calling thread runs the whole problem.
void Gemm(const float* a, const float* b, const float* bias, float* c, int m,
          int n, int k);

/// Write the im2col patch rows for output pixels [m0, m1) of a same-padding
/// convolution: row m holds the kernel*kernel*in_c input window of output
/// pixel m (out-of-bounds taps zero-filled), matching the w[ky][kx][ic][oc]
/// weight layout so convolution becomes patch-matrix x weight-matrix.
void Im2ColRows(const float* in, const TensorShape& in_shape, int kernel,
                int stride, int out_w, int m0, int m1, float* patch);

/// Elements of scratch Conv2dGemm wants for one im2col row tile of this
/// layer (bounded by a fixed L2-friendly budget, never smaller than one row).
size_t Conv2dScratchElements(const TensorShape& in_shape, int kernel, int stride);

/// Same-padding convolution via im2col + blocked GEMM. `scratch` must hold at
/// least Conv2dScratchElements(in_shape, kernel) floats.
void Conv2dGemm(const float* in, const TensorShape& in_shape,
                const float* weights, int kernel, int stride, int out_c,
                float* out, float* scratch);

// --------------------------------------------------------------- pre-packing
// MODEL_LOAD-time weight layout (the compile-once half of the pipeline): B is
// repacked once into column panels of 16 — panel p holds the K rows of
// columns [16p, 16p+16) back-to-back, zero-padded on the ragged right edge —
// so the micro-kernel's per-k loads become a single contiguous forward stream
// instead of stride-N row hops. The kernels below consume that layout; per-
// element accumulation order (ascending k) is unchanged, so results match the
// unpacked Gemm bit-for-bit for M > 1 and the naive loops to FMA rounding
// (bit for bit on the ragged edge).

/// Width of a packed column panel (the micro-kernel's N blocking).
inline constexpr int kPackPanelWidth = 16;

/// Floats PackB writes for a K x N matrix: ceil(n/16) panels of k*16.
size_t PackedBElements(int k, int n);

/// Repack row-major B (K x N) into the panel layout. `packed` must hold
/// PackedBElements(k, n) floats.
void PackB(const float* b, int k, int n, float* packed);

/// C (M x N) = A (M x K) * packed-B, bias-seeded like Gemm. `packed_b` is the
/// PackB layout. M == 1 rides a panel-streaming GEMV over the same layout;
/// M > 1 runs the register-blocked micro-kernels. At every M the zero-padded
/// edge panel loads whole into Gemm's multiply-then-add edge tile, so the
/// last n % 16 columns equal the naive loop's bit for bit. Row panels fan
/// out over the process pool above the same 2^21 multiply-add floor as Gemm.
void GemmPrepacked(const float* a, const float* packed_b, const float* bias,
                   float* c, int m, int n, int k);

/// Same-padding convolution over a pre-packed weight matrix: im2col row tiles
/// (identical tiling to Conv2dGemm) multiplied against the PackB layout of
/// the w[ky][kx][ic][oc] matrix. `bias` points at the out_c conv biases
/// (packed separately from the panels). `scratch` as for Conv2dGemm.
void Conv2dGemmPrepacked(const float* in, const TensorShape& in_shape,
                         const float* packed_weights, const float* bias,
                         int kernel, int stride, int out_c, float* out,
                         float* scratch);

// ----------------------------------------------------------------- int8 tier
// Quantized GEMM: unsigned 7-bit activations ([0, 127] with a per-tensor
// zero-point) against signed 8-bit weights ([-127, 127], symmetric per-output-
// channel scales). The u7 x s8 pairing keeps every AVX2 `vpmaddubsw` pair sum
// below INT16_MAX (127*127*2 = 32258), so int32 accumulation is EXACT on all
// tiers — portable, AVX2 maddubs/madd, and AVX-512 VNNI vpdpbusd produce
// bit-identical accumulators, and the shared fma-based epilogue makes the
// fp32 outputs bit-identical across tiers too. The activation zero-point is
// folded out with precomputed per-column weight sums:
//   real ~= a_scale * w_scale[n] * (acc[m][n] - a_zp * colsum[n]) + bias[n].

/// Instruction tier for the int8 kernels. kAuto follows ActiveGemmIsa();
/// tests and benches pin a tier to compare them in one process. Pinning a
/// tier the CPU lacks silently runs portable (the reference all tiers match).
enum class GemmIsa {
  kAuto = 0,    ///< resolve at startup: widest available tier
  kPortable,    ///< scalar reference kernel (exact, like the SIMD tiers)
  kAvx2,        ///< vpmaddubsw + vpmaddwd pair-sum kernel
  kAvx512Vnni,  ///< vpdpbusd 4-way dot-product kernel
};

const char* ToString(GemmIsa isa);

/// True when this build and CPU can run `isa` (kAuto/kPortable always can).
bool GemmIsaAvailable(GemmIsa isa);

/// The tier kAuto resolves to, decided once per process: portable when
/// SESEMI_FORCE_PORTABLE is set non-empty (and not "0"), else the widest
/// tier the CPU supports.
GemmIsa ActiveGemmIsa();

/// K-group of the int8 packed layout: vpdpbusd consumes 4 consecutive k bytes
/// per lane, so panels interleave K in groups of 4 (zero-padded).
inline constexpr int kInt8KGroup = 4;

/// K rounded up to the packed k-group. Quantized A rows must be laid out with
/// a stride of at least this many bytes (the pad bytes multiply packed-B
/// zeros, so their value never reaches the result).
inline constexpr int RoundUpK4(int k) {
  return (k + kInt8KGroup - 1) / kInt8KGroup * kInt8KGroup;
}

/// Per-tensor activation quantization parameters: x ~= (q - zero_point) * scale
/// with q in [0, 127].
struct ActQuant {
  float scale = 1.0f;
  int32_t zero_point = 0;
};

/// Bytes PackBInt8 writes for a K x N int8 matrix: ceil(n/16) panels of
/// RoundUpK4(k) rows x 16 columns.
size_t PackedBInt8Bytes(int k, int n);

/// Repack row-major int8 B (K x N) into K-grouped panels: panel p holds
/// columns [16p, 16p+16); within a panel, each 64-byte group interleaves 4
/// consecutive k rows column-major (byte n*4+ki = B[4g+ki][16p+n]), which is
/// exactly one vpdpbusd operand. Ragged K and N edges are zero-padded.
void PackBInt8(const int8_t* b, int k, int n, int8_t* packed);

/// Per-column sums of B over the real K rows (the zero-point correction term).
void Int8ColumnSums(const int8_t* b, int k, int n, int32_t* colsums);

/// Dynamically quantize `count` activations to u7: scale = max(|x|, eps)/127
/// mapped so the tensor range [lo, hi] covers [0, 127] with an integer
/// zero-point. Writes the quantized bytes and returns the parameters.
ActQuant QuantizeActivations(const float* x, size_t count, uint8_t* out);

/// C (M x N, fp32) = dequant(Aq (M x lda) x packed int8 B), with per-row
/// activation params (a_scales[i], a_zero_points[i] for row i), per-column
/// weight scales and column sums, bias seeding (nullptr seeds zero). `lda`
/// must be >= RoundUpK4(k) and rows padded to it with initialized bytes.
/// Accumulation is exact int32; the epilogue uses fma so all tiers produce
/// bit-identical fp32 outputs.
void GemmInt8Prepacked(const uint8_t* a, int lda, const float* a_scales,
                       const int32_t* a_zero_points, const int8_t* packed_b,
                       const float* w_scales, const int32_t* w_colsums,
                       const float* bias, float* c, int m, int n, int k,
                       GemmIsa isa = GemmIsa::kAuto);

/// As GemmInt8Prepacked, but the epilogue saturating-requantizes to int8:
/// q = clamp(round(v / out.scale) + out.zero_point, -128, 127).
void GemmInt8PrepackedRequant(const uint8_t* a, int lda, const float* a_scales,
                              const int32_t* a_zero_points,
                              const int8_t* packed_b, const float* w_scales,
                              const int32_t* w_colsums, const float* bias,
                              const ActQuant& out, int8_t* c, int m, int n,
                              int k, GemmIsa isa = GemmIsa::kAuto);

/// Bytes of u8 im2col scratch Conv2dGemmInt8Prepacked wants (same row-tile
/// policy as the fp32 path, rows padded to RoundUpK4).
size_t Conv2dScratchBytesInt8(const TensorShape& in_shape, int kernel, int stride);

/// Im2col over a quantized u8 input: identical geometry to Im2ColRows, but
/// out-of-bounds taps fill with `pad_value` (the activation zero-point, which
/// the colsum correction cancels exactly — a quantized zero). Rows are laid
/// out with stride RoundUpK4(kernel*kernel*c), pad bytes set to `pad_value`.
void Im2ColRowsU8(const uint8_t* in, const TensorShape& in_shape, int kernel,
                  int stride, int out_w, int m0, int m1, uint8_t pad_value,
                  uint8_t* patch);

/// Same-padding convolution over pre-packed int8 weights: the input arrives
/// already quantized (one ActQuant for the whole tensor), im2col tiles feed
/// the int8 GEMM, output dequantizes to fp32. `w_scales`/`w_colsums` have
/// out_c entries (per output channel); `scratch` must hold
/// Conv2dScratchBytesInt8 bytes.
void Conv2dGemmInt8Prepacked(const uint8_t* in_q, const ActQuant& in_quant,
                             const TensorShape& in_shape,
                             const int8_t* packed_w, const float* w_scales,
                             const int32_t* w_colsums, const float* bias,
                             int kernel, int stride, int out_c, float* out,
                             uint8_t* scratch, GemmIsa isa = GemmIsa::kAuto);

/// Same-padding depthwise convolution (channel multiplier 1) on the fast
/// path: each output row is a panel of per-channel GEMV strips — the channel
/// dimension is contiguous in HWC, so every (ky,kx) tap is one fused
/// multiply-add sweep over the channel vector (AVX2+FMA when available,
/// auto-vectorizable scalar otherwise) — and from Gemm's 2^21 multiply-add
/// floor up, rows fan out over the process fork-join pool in chunks of at
/// least 2^16 multiply-adds. Tap accumulation
/// order matches the naive kernel, so results agree up to FMA rounding.
/// Weight layout: w[ky][kx][c], followed by c biases.
void DepthwiseConv2d(const float* in, const TensorShape& in_shape,
                     const float* weights, int kernel, int stride, float* out);

}  // namespace sesemi::inference::gemm

#endif  // SESEMI_INFERENCE_GEMM_H_
