#include "inference/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/cpuid.h"
#include "common/parallel_for.h"

// The SIMD micro-kernels are x86-only (AVX2+FMA, selected at runtime); other
// architectures build the portable register-blocked kernels alone.
#if defined(__x86_64__) || defined(__i386__)
#define SESEMI_GEMM_X86 1
#include <immintrin.h>
#endif

namespace sesemi::inference::gemm {

namespace {

// Register-blocked micro-tile: MR rows of A against a 16-wide panel of B.
// 16 columns = two SIMD accumulator registers per row on AVX2; MR = 6 keeps
// 12 accumulators + 2 B registers + 1 broadcast inside the 16 ymm registers.
constexpr int kMaxMr = 6;
constexpr int kNr = 16;

// Scratch budget for one im2col row tile: 64K floats = 256 KiB, sized to sit
// in L2 next to the weight panel it multiplies against.
constexpr size_t kScratchBudgetFloats = 64 * 1024;

// Row-panel grain for the thread pool: multiples of the micro-tile height so
// chunk edges never split a micro-tile.
constexpr int64_t kPanelRows = 24;

// The fan-out floor: problems smaller than this many multiply-adds run on the
// calling thread. Measured with bench_micro's BM_GemmFanOut twins, three runs
// on a 4-vCPU Xeon VM, each call after 200 us of idle pool: an empty 8-chunk
// ParallelFor costs 6-7 us (p50), and pooled against inline took 17-46 vs
// 10-11 us at 0.15M multiply-adds, 30-103 vs 33-43 us at 0.59M (pooled won
// one run of three), 70-164 vs 127-162 us at 2.4M (won two) and 264-564 vs
// 462-692 us at 9.4M. How soon pooling pays depends on where the VM places
// the woken workers. Every layer of the zoo models is below 0.6M and stays
// on the request's own thread.
constexpr int64_t kParallelFlopThreshold = 1 << 21;

// Depthwise row chunks above the floor carry at least this many
// multiply-adds, so a layer just above it still spreads over every worker.
constexpr int64_t kDepthwiseChunkFlops = 1 << 16;

// K-blocking for M > 1 prepacked GEMM: a slab of kKBlockRows panel rows
// (256 * 16 floats = 16 KiB) stays in L1 across every row tile before the
// walk advances to the next slab, so B streams from DRAM once per GEMM
// instead of once per row tile. Engaged only when B is big enough to spill
// L2 (the DRAM-bound Dense shapes); accumulation order per element is
// unchanged (k ascending, C carries the partial), so results are bitwise
// identical to the single-pass walk.
constexpr int kKBlockRows = 256;
constexpr size_t kKBlockEngageBytes = size_t{1} << 20;

bool ShouldKBlockPacked(int m, int n, int k) {
  return m > 1 && k > 2 * kKBlockRows &&
         static_cast<size_t>(k) * n * sizeof(float) > kKBlockEngageBytes;
}

#ifdef SESEMI_GEMM_X86
template <int MR>
__attribute__((target("avx2,fma"))) void MicroKernelAvx2(
    const float* a, int lda, const float* b, int n, const float* bias, float* c,
    int k, int n0) {
  __m256 acc_lo[MR], acc_hi[MR];
  const __m256 seed_lo = bias != nullptr ? _mm256_loadu_ps(bias + n0) : _mm256_setzero_ps();
  const __m256 seed_hi = bias != nullptr ? _mm256_loadu_ps(bias + n0 + 8) : _mm256_setzero_ps();
  for (int r = 0; r < MR; ++r) {
    acc_lo[r] = seed_lo;
    acc_hi[r] = seed_hi;
  }
  const float* brow = b + n0;
  for (int kk = 0; kk < k; ++kk, brow += n) {
    const __m256 b_lo = _mm256_loadu_ps(brow);
    const __m256 b_hi = _mm256_loadu_ps(brow + 8);
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_set1_ps(a[static_cast<size_t>(r) * lda + kk]);
      acc_lo[r] = _mm256_fmadd_ps(av, b_lo, acc_lo[r]);
      acc_hi[r] = _mm256_fmadd_ps(av, b_hi, acc_hi[r]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    _mm256_storeu_ps(c + static_cast<size_t>(r) * n + n0, acc_lo[r]);
    _mm256_storeu_ps(c + static_cast<size_t>(r) * n + n0 + 8, acc_hi[r]);
  }
}
#endif  // SESEMI_GEMM_X86

template <int MR>
void MicroKernelPortable(const float* a, int lda, const float* b, int n,
                         const float* bias, float* c, int k, int n0) {
  float acc[MR][kNr];
  for (int r = 0; r < MR; ++r) {
    for (int j = 0; j < kNr; ++j) acc[r][j] = bias != nullptr ? bias[n0 + j] : 0.0f;
  }
  const float* brow = b + n0;
  for (int kk = 0; kk < k; ++kk, brow += n) {
    for (int r = 0; r < MR; ++r) {
      const float av = a[static_cast<size_t>(r) * lda + kk];
      for (int j = 0; j < kNr; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (int r = 0; r < MR; ++r) {
    std::memcpy(c + static_cast<size_t>(r) * n + n0, acc[r], kNr * sizeof(float));
  }
}

bool HasAvx2Fma() {
#ifdef SESEMI_GEMM_X86
  return GetCpuFeatures().Avx2Fma();
#else
  return false;
#endif
}

bool HasAvx512Vnni() {
#ifdef SESEMI_GEMM_X86
  return GetCpuFeatures().Avx512Vnni();
#else
  return false;
#endif
}

static_assert(kNr == kPackPanelWidth,
              "packed panels and the micro-kernel N blocking must agree");

// Stride between consecutive column panels in the PackB layout.
inline size_t PanelStride(int k) { return static_cast<size_t>(k) * kNr; }

// ----------------------------------------------------- ragged right edge
// The last nr (< 16) columns of mr rows of C. `b` points at the edge's first
// column with ldb floats between k rows: n for row-major B, kNr for a packed
// panel. Row r starts from seed + r * ldseed: the bias with ldseed 0, C itself
// with ldseed ldc (the K-blocked slabs after the first), or zeros for nullptr.
// Every output multiplies and then adds, one k at a time.

// Scalar strips: the non-AVX2 fallback, in the role the portable full tiles
// play for the panels.
void EdgeStrips(const float* a, int lda, const float* b, int ldb,
                const float* seed, int ldseed, float* c, int ldc, int k, int mr,
                int nr) {
  for (int r = 0; r < mr; ++r) {
    float acc[kNr];
    for (int j = 0; j < nr; ++j) {
      acc[j] = seed != nullptr ? seed[static_cast<size_t>(r) * ldseed + j] : 0.0f;
    }
    const float* arow = a + static_cast<size_t>(r) * lda;
    const float* brow = b;
    for (int kk = 0; kk < k; ++kk, brow += ldb) {
      const float av = arow[kk];
      for (int j = 0; j < nr; ++j) acc[j] += av * brow[j];
    }
    std::memcpy(c + static_cast<size_t>(r) * ldc, acc, nr * sizeof(float));
  }
}

#ifdef SESEMI_GEMM_X86
// The first `lanes` of 8 set (none when lanes <= 0).
__attribute__((target("avx2"))) inline __m256i LaneMask(int lanes) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// The edge on the AVX2 register tile. Like EdgeStrips it rounds the product
// and then the sum: built for avx2 without fma, and with fp-contract pinned
// off so that no build (-march=native included) fuses the two.
// kWide = false (nr <= 8) keeps only the low 8 lanes. Packed panels are
// zero-padded to 16 and load whole; row-major B, the seeds and C load and
// store under the lane mask, so nothing past column n is touched.
template <int MR, bool kWide, bool kPacked>
__attribute__((target("avx2"), optimize("fp-contract=off"))) void EdgeTileAvx2(
    const float* a, int lda, const float* b, int ldb, const float* seed,
    int ldseed, float* c, int ldc, int k, int nr) {
  const __m256i mask_lo = LaneMask(nr);
  const __m256i mask_hi = LaneMask(nr - 8);
  __m256 acc_lo[MR], acc_hi[MR];
  for (int r = 0; r < MR; ++r) {
    acc_lo[r] = acc_hi[r] = _mm256_setzero_ps();
    if (seed == nullptr) continue;
    const float* s = seed + static_cast<size_t>(r) * ldseed;
    acc_lo[r] = _mm256_maskload_ps(s, mask_lo);
    if constexpr (kWide) acc_hi[r] = _mm256_maskload_ps(s + 8, mask_hi);
  }
  for (int kk = 0; kk < k; ++kk, b += ldb) {
    __m256 b_lo, b_hi = _mm256_setzero_ps();
    if constexpr (kPacked) {
      b_lo = _mm256_loadu_ps(b);
      if constexpr (kWide) b_hi = _mm256_loadu_ps(b + 8);
    } else {
      b_lo = _mm256_maskload_ps(b, mask_lo);
      if constexpr (kWide) b_hi = _mm256_maskload_ps(b + 8, mask_hi);
    }
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_set1_ps(a[static_cast<size_t>(r) * lda + kk]);
      acc_lo[r] = _mm256_add_ps(acc_lo[r], _mm256_mul_ps(av, b_lo));
      if constexpr (kWide) {
        acc_hi[r] = _mm256_add_ps(acc_hi[r], _mm256_mul_ps(av, b_hi));
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    float* crow = c + static_cast<size_t>(r) * ldc;
    _mm256_maskstore_ps(crow, mask_lo, acc_lo[r]);
    if constexpr (kWide) _mm256_maskstore_ps(crow + 8, mask_hi, acc_hi[r]);
  }
}

using EdgeTileFn = void (*)(const float*, int, const float*, int, const float*,
                            int, float*, int, int, int);

template <bool kPacked>
EdgeTileFn EdgeTile(int mr, int nr) {
  static const EdgeTileFn narrow[kMaxMr] = {
      EdgeTileAvx2<1, false, kPacked>, EdgeTileAvx2<2, false, kPacked>,
      EdgeTileAvx2<3, false, kPacked>, EdgeTileAvx2<4, false, kPacked>,
      EdgeTileAvx2<5, false, kPacked>, EdgeTileAvx2<6, false, kPacked>};
  static const EdgeTileFn wide[kMaxMr] = {
      EdgeTileAvx2<1, true, kPacked>, EdgeTileAvx2<2, true, kPacked>,
      EdgeTileAvx2<3, true, kPacked>, EdgeTileAvx2<4, true, kPacked>,
      EdgeTileAvx2<5, true, kPacked>, EdgeTileAvx2<6, true, kPacked>};
  return nr > 8 ? wide[mr - 1] : narrow[mr - 1];
}
#endif  // SESEMI_GEMM_X86

template <bool kPacked>
void RaggedEdge(const float* a, int lda, const float* b, int ldb,
                const float* seed, int ldseed, float* c, int ldc, int k, int mr,
                int nr) {
#ifdef SESEMI_GEMM_X86
  if (HasAvx2Fma()) {
    EdgeTile<kPacked>(mr, nr)(a, lda, b, ldb, seed, ldseed, c, ldc, k, nr);
    return;
  }
#endif
  EdgeStrips(a, lda, b, ldb, seed, ldseed, c, ldc, k, mr, nr);
}

inline const float* BiasFrom(const float* bias, int n0) {
  return bias != nullptr ? bias + n0 : nullptr;
}

#ifdef SESEMI_GEMM_X86
// Packed-B micro-tile: same accumulator shape as MicroKernelAvx2, but the
// panel's k rows are contiguous (brow += 16), so B streams forward through
// one cache line per step instead of striding N floats between rows.
template <int MR>
__attribute__((target("avx2,fma"))) void MicroKernelPackedAvx2(
    const float* a, int lda, const float* bp, int n, const float* bias,
    float* c, int k, int n0) {
  __m256 acc_lo[MR], acc_hi[MR];
  const __m256 seed_lo = bias != nullptr ? _mm256_loadu_ps(bias + n0) : _mm256_setzero_ps();
  const __m256 seed_hi = bias != nullptr ? _mm256_loadu_ps(bias + n0 + 8) : _mm256_setzero_ps();
  for (int r = 0; r < MR; ++r) {
    acc_lo[r] = seed_lo;
    acc_hi[r] = seed_hi;
  }
  for (int kk = 0; kk < k; ++kk, bp += kNr) {
    const __m256 b_lo = _mm256_loadu_ps(bp);
    const __m256 b_hi = _mm256_loadu_ps(bp + 8);
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_set1_ps(a[static_cast<size_t>(r) * lda + kk]);
      acc_lo[r] = _mm256_fmadd_ps(av, b_lo, acc_lo[r]);
      acc_hi[r] = _mm256_fmadd_ps(av, b_hi, acc_hi[r]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    _mm256_storeu_ps(c + static_cast<size_t>(r) * n + n0, acc_lo[r]);
    _mm256_storeu_ps(c + static_cast<size_t>(r) * n + n0 + 8, acc_hi[r]);
  }
}
#endif  // SESEMI_GEMM_X86

template <int MR>
void MicroKernelPackedPortable(const float* a, int lda, const float* bp, int n,
                               const float* bias, float* c, int k, int n0) {
  float acc[MR][kNr];
  for (int r = 0; r < MR; ++r) {
    for (int j = 0; j < kNr; ++j) acc[r][j] = bias != nullptr ? bias[n0 + j] : 0.0f;
  }
  for (int kk = 0; kk < k; ++kk, bp += kNr) {
    for (int r = 0; r < MR; ++r) {
      const float av = a[static_cast<size_t>(r) * lda + kk];
      for (int j = 0; j < kNr; ++j) acc[r][j] += av * bp[j];
    }
  }
  for (int r = 0; r < MR; ++r) {
    std::memcpy(c + static_cast<size_t>(r) * n + n0, acc[r], kNr * sizeof(float));
  }
}

#ifdef SESEMI_GEMM_X86
// Accumulate variant for the K-blocked walk: seeds the accumulators from C
// (which carries the partial sum of earlier k slabs) instead of the bias.
// The bias parameter exists only to share KernelFn's signature.
template <int MR>
__attribute__((target("avx2,fma"))) void MicroKernelPackedAccAvx2(
    const float* a, int lda, const float* bp, int n, const float* /*bias*/,
    float* c, int k, int n0) {
  __m256 acc_lo[MR], acc_hi[MR];
  for (int r = 0; r < MR; ++r) {
    acc_lo[r] = _mm256_loadu_ps(c + static_cast<size_t>(r) * n + n0);
    acc_hi[r] = _mm256_loadu_ps(c + static_cast<size_t>(r) * n + n0 + 8);
  }
  for (int kk = 0; kk < k; ++kk, bp += kNr) {
    const __m256 b_lo = _mm256_loadu_ps(bp);
    const __m256 b_hi = _mm256_loadu_ps(bp + 8);
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_set1_ps(a[static_cast<size_t>(r) * lda + kk]);
      acc_lo[r] = _mm256_fmadd_ps(av, b_lo, acc_lo[r]);
      acc_hi[r] = _mm256_fmadd_ps(av, b_hi, acc_hi[r]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    _mm256_storeu_ps(c + static_cast<size_t>(r) * n + n0, acc_lo[r]);
    _mm256_storeu_ps(c + static_cast<size_t>(r) * n + n0 + 8, acc_hi[r]);
  }
}
#endif  // SESEMI_GEMM_X86

template <int MR>
void MicroKernelPackedAccPortable(const float* a, int lda, const float* bp,
                                  int n, const float* /*bias*/, float* c, int k,
                                  int n0) {
  float acc[MR][kNr];
  for (int r = 0; r < MR; ++r) {
    std::memcpy(acc[r], c + static_cast<size_t>(r) * n + n0, kNr * sizeof(float));
  }
  for (int kk = 0; kk < k; ++kk, bp += kNr) {
    for (int r = 0; r < MR; ++r) {
      const float av = a[static_cast<size_t>(r) * lda + kk];
      for (int j = 0; j < kNr; ++j) acc[r][j] += av * bp[j];
    }
  }
  for (int r = 0; r < MR; ++r) {
    std::memcpy(c + static_cast<size_t>(r) * n + n0, acc[r], kNr * sizeof(float));
  }
}

#ifdef SESEMI_GEMM_X86
// M == 1 over packed B: per panel, two accumulator registers live across the
// whole k loop while the panel streams forward — every weight is touched
// exactly once, contiguously, with no store traffic until the panel is done
// (the unpacked GEMV re-reads and re-writes C once per k step).
__attribute__((target("avx2,fma"))) void GemvPackedAvx2(
    const float* a, const float* packed, const float* bias, float* c, int n,
    int k) {
  const int n_full = n - n % kNr;
  for (int n0 = 0; n0 < n_full; n0 += kNr) {
    const float* bp = packed + (n0 / kNr) * PanelStride(k);
    __m256 acc_lo = bias != nullptr ? _mm256_loadu_ps(bias + n0) : _mm256_setzero_ps();
    __m256 acc_hi = bias != nullptr ? _mm256_loadu_ps(bias + n0 + 8) : _mm256_setzero_ps();
    for (int kk = 0; kk < k; ++kk, bp += kNr) {
      const __m256 av = _mm256_set1_ps(a[kk]);
      acc_lo = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp), acc_lo);
      acc_hi = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp + 8), acc_hi);
    }
    _mm256_storeu_ps(c + n0, acc_lo);
    _mm256_storeu_ps(c + n0 + 8, acc_hi);
  }
  if (n_full < n) {
    RaggedEdge<true>(a, k, packed + (n_full / kNr) * PanelStride(k), kNr,
                     BiasFrom(bias, n_full), 0, c + n_full, n, k, 1, n - n_full);
  }
}
#endif  // SESEMI_GEMM_X86

void GemvPackedPortable(const float* a, const float* packed, const float* bias,
                        float* c, int n, int k) {
  const int n_full = n - n % kNr;
  for (int n0 = 0; n0 < n_full; n0 += kNr) {
    const float* bp = packed + (n0 / kNr) * PanelStride(k);
    float acc[kNr];
    for (int j = 0; j < kNr; ++j) acc[j] = bias != nullptr ? bias[n0 + j] : 0.0f;
    for (int kk = 0; kk < k; ++kk, bp += kNr) {
      const float av = a[kk];
      for (int j = 0; j < kNr; ++j) acc[j] += av * bp[j];
    }
    std::memcpy(c + n0, acc, kNr * sizeof(float));
  }
  if (n_full < n) {
    RaggedEdge<true>(a, k, packed + (n_full / kNr) * PanelStride(k), kNr,
                     BiasFrom(bias, n_full), 0, c + n_full, n, k, 1, n - n_full);
  }
}

#ifdef SESEMI_GEMM_X86
// M == 1 (Dense): the micro-tile column panels would stride through B once
// per 16 columns; a row-streaming GEMV touches every weight exactly once in
// prefetcher-friendly order instead.
__attribute__((target("avx2,fma"))) void GemvAvx2(const float* a, const float* b,
                                                  const float* bias, float* c,
                                                  int n, int k) {
  if (bias != nullptr) {
    std::memcpy(c, bias, static_cast<size_t>(n) * sizeof(float));
  } else {
    std::memset(c, 0, static_cast<size_t>(n) * sizeof(float));
  }
  const int n8 = n - n % 8;
  const float* brow = b;
  for (int kk = 0; kk < k; ++kk, brow += n) {
    const __m256 av = _mm256_set1_ps(a[kk]);
    for (int j = 0; j < n8; j += 8) {
      _mm256_storeu_ps(c + j, _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + j),
                                              _mm256_loadu_ps(c + j)));
    }
    for (int j = n8; j < n; ++j) c[j] += a[kk] * brow[j];
  }
}
#endif  // SESEMI_GEMM_X86

void GemvPortable(const float* a, const float* b, const float* bias, float* c,
                  int n, int k) {
  for (int j = 0; j < n; ++j) c[j] = bias != nullptr ? bias[j] : 0.0f;
  const float* brow = b;
  for (int kk = 0; kk < k; ++kk, brow += n) {
    const float av = a[kk];
    for (int j = 0; j < n; ++j) c[j] += av * brow[j];
  }
}

using KernelFn = void (*)(const float*, int, const float*, int, const float*,
                          float*, int, int);

KernelFn FullTileKernel(int mr) {
  static const KernelFn portable[kMaxMr] = {
      MicroKernelPortable<1>, MicroKernelPortable<2>, MicroKernelPortable<3>,
      MicroKernelPortable<4>, MicroKernelPortable<5>, MicroKernelPortable<6>};
#ifdef SESEMI_GEMM_X86
  static const KernelFn avx2[kMaxMr] = {
      MicroKernelAvx2<1>, MicroKernelAvx2<2>, MicroKernelAvx2<3>,
      MicroKernelAvx2<4>, MicroKernelAvx2<5>, MicroKernelAvx2<6>};
  if (HasAvx2Fma()) return avx2[mr - 1];
#endif
  return portable[mr - 1];
}

KernelFn FullTilePackedKernel(int mr) {
  static const KernelFn portable[kMaxMr] = {
      MicroKernelPackedPortable<1>, MicroKernelPackedPortable<2>,
      MicroKernelPackedPortable<3>, MicroKernelPackedPortable<4>,
      MicroKernelPackedPortable<5>, MicroKernelPackedPortable<6>};
#ifdef SESEMI_GEMM_X86
  static const KernelFn avx2[kMaxMr] = {
      MicroKernelPackedAvx2<1>, MicroKernelPackedAvx2<2>,
      MicroKernelPackedAvx2<3>, MicroKernelPackedAvx2<4>,
      MicroKernelPackedAvx2<5>, MicroKernelPackedAvx2<6>};
  if (HasAvx2Fma()) return avx2[mr - 1];
#endif
  return portable[mr - 1];
}

KernelFn FullTilePackedAccKernel(int mr) {
  static const KernelFn portable[kMaxMr] = {
      MicroKernelPackedAccPortable<1>, MicroKernelPackedAccPortable<2>,
      MicroKernelPackedAccPortable<3>, MicroKernelPackedAccPortable<4>,
      MicroKernelPackedAccPortable<5>, MicroKernelPackedAccPortable<6>};
#ifdef SESEMI_GEMM_X86
  static const KernelFn avx2[kMaxMr] = {
      MicroKernelPackedAccAvx2<1>, MicroKernelPackedAccAvx2<2>,
      MicroKernelPackedAccAvx2<3>, MicroKernelPackedAccAvx2<4>,
      MicroKernelPackedAccAvx2<5>, MicroKernelPackedAccAvx2<6>};
  if (HasAvx2Fma()) return avx2[mr - 1];
#endif
  return portable[mr - 1];
}

// All rows [m0, m1) of C against the packed panels.
void GemmPrepackedRows(const float* a, const float* packed, const float* bias,
                       float* c, int m0, int m1, int n, int k) {
  const int n_full = n - n % kNr;
  for (int m = m0; m < m1; m += kMaxMr) {
    const int mr = std::min(kMaxMr, m1 - m);
    const float* arow = a + static_cast<size_t>(m) * k;
    float* crow = c + static_cast<size_t>(m) * n;
    KernelFn kernel = FullTilePackedKernel(mr);
    for (int n0 = 0; n0 < n_full; n0 += kNr) {
      kernel(arow, k, packed + (n0 / kNr) * PanelStride(k), n, bias, crow, k, n0);
    }
    if (n_full < n) {
      RaggedEdge<true>(arow, k, packed + (n_full / kNr) * PanelStride(k), kNr,
                       BiasFrom(bias, n_full), 0, crow + n_full, n, k, mr,
                       n - n_full);
    }
  }
}

// K-blocked variant of GemmPrepackedRows: panel-outer, k-slab middle, row
// tiles inner — the 16 KiB slab stays in L1 while every row tile consumes it.
// The first slab seeds from the bias, later slabs accumulate into C; per
// element the k walk is still strictly ascending, so the result is bitwise
// identical to the single-pass walk.
void GemmPrepackedRowsKBlocked(const float* a, const float* packed,
                               const float* bias, float* c, int m0, int m1,
                               int n, int k) {
  const int n_full = n - n % kNr;
  for (int n0 = 0; n0 < n; n0 += kNr) {
    const bool edge = n0 >= n_full;
    const float* panel = packed + (n0 / kNr) * PanelStride(k);
    for (int k0 = 0; k0 < k; k0 += kKBlockRows) {
      const int kc = std::min(kKBlockRows, k - k0);
      const float* bslab = panel + static_cast<size_t>(k0) * kNr;
      for (int m = m0; m < m1; m += kMaxMr) {
        const int mr = std::min(kMaxMr, m1 - m);
        const float* arow = a + static_cast<size_t>(m) * k + k0;
        float* crow = c + static_cast<size_t>(m) * n;
        if (!edge) {
          KernelFn kernel =
              k0 == 0 ? FullTilePackedKernel(mr) : FullTilePackedAccKernel(mr);
          kernel(arow, k, bslab, n, bias, crow, kc, n0);
        } else if (k0 == 0) {
          RaggedEdge<true>(arow, k, bslab, kNr, BiasFrom(bias, n0), 0,
                           crow + n0, n, kc, mr, n - n_full);
        } else {
          RaggedEdge<true>(arow, k, bslab, kNr, crow + n0, n, crow + n0, n, kc,
                           mr, n - n_full);
        }
      }
    }
  }
}

// All rows [m0, m1) of C for every column panel.
void GemmRows(const float* a, const float* b, const float* bias, float* c, int m0,
              int m1, int n, int k) {
  const int n_full = n - n % kNr;
  for (int m = m0; m < m1; m += kMaxMr) {
    const int mr = std::min(kMaxMr, m1 - m);
    const float* arow = a + static_cast<size_t>(m) * k;
    float* crow = c + static_cast<size_t>(m) * n;
    KernelFn kernel = FullTileKernel(mr);
    for (int n0 = 0; n0 < n_full; n0 += kNr) {
      kernel(arow, k, b, n, bias, crow, k, n0);
    }
    if (n_full < n) {
      RaggedEdge<false>(arow, k, b + n_full, n, BiasFrom(bias, n_full), 0,
                        crow + n_full, n, k, mr, n - n_full);
    }
  }
}

#ifdef SESEMI_GEMM_X86
// Depthwise row panel, AVX2: per output pixel, channel strips of 8 keep the
// accumulator in a register across every (ky,kx) tap — each tap is then a
// single fused multiply-add over the contiguous HWC channel run.
__attribute__((target("avx2,fma"))) void DepthwiseRowsAvx2(
    const float* in, const TensorShape& in_shape, const float* w,
    const float* bias, int kernel, int stride, int out_w, int oy0, int oy1,
    float* out) {
  const int pad = (kernel - 1) / 2;
  const int c = in_shape.c;
  const int c8 = c - c % 8;
  for (int oy = oy0; oy < oy1; ++oy) {
    for (int ox = 0; ox < out_w; ++ox) {
      float* out_px = out + (static_cast<size_t>(oy) * out_w + ox) * c;
      const int iy0 = oy * stride - pad;
      const int ix0 = ox * stride - pad;
      int ch = 0;
      for (; ch < c8; ch += 8) {
        __m256 acc = _mm256_loadu_ps(bias + ch);
        for (int ky = 0; ky < kernel; ++ky) {
          const int iy = iy0 + ky;
          if (iy < 0 || iy >= in_shape.h) continue;
          for (int kx = 0; kx < kernel; ++kx) {
            const int ix = ix0 + kx;
            if (ix < 0 || ix >= in_shape.w) continue;
            const float* in_px =
                in + (static_cast<size_t>(iy) * in_shape.w + ix) * c + ch;
            const float* w_px =
                w + (static_cast<size_t>(ky) * kernel + kx) * c + ch;
            acc = _mm256_fmadd_ps(_mm256_loadu_ps(in_px), _mm256_loadu_ps(w_px),
                                  acc);
          }
        }
        _mm256_storeu_ps(out_px + ch, acc);
      }
      for (; ch < c; ++ch) {
        float acc = bias[ch];
        for (int ky = 0; ky < kernel; ++ky) {
          const int iy = iy0 + ky;
          if (iy < 0 || iy >= in_shape.h) continue;
          for (int kx = 0; kx < kernel; ++kx) {
            const int ix = ix0 + kx;
            if (ix < 0 || ix >= in_shape.w) continue;
            acc += in[(static_cast<size_t>(iy) * in_shape.w + ix) * c + ch] *
                   w[(static_cast<size_t>(ky) * kernel + kx) * c + ch];
          }
        }
        out_px[ch] = acc;
      }
    }
  }
}
#endif  // SESEMI_GEMM_X86

// Portable depthwise row panel: same tap order, plain channel loop the
// compiler auto-vectorizes at -O3.
void DepthwiseRowsPortable(const float* in, const TensorShape& in_shape,
                           const float* w, const float* bias, int kernel,
                           int stride, int out_w, int oy0, int oy1, float* out) {
  const int pad = (kernel - 1) / 2;
  const int c = in_shape.c;
  for (int oy = oy0; oy < oy1; ++oy) {
    for (int ox = 0; ox < out_w; ++ox) {
      float* out_px = out + (static_cast<size_t>(oy) * out_w + ox) * c;
      for (int ch = 0; ch < c; ++ch) out_px[ch] = bias[ch];
      for (int ky = 0; ky < kernel; ++ky) {
        const int iy = oy * stride + ky - pad;
        if (iy < 0 || iy >= in_shape.h) continue;
        for (int kx = 0; kx < kernel; ++kx) {
          const int ix = ox * stride + kx - pad;
          if (ix < 0 || ix >= in_shape.w) continue;
          const float* in_px =
              in + (static_cast<size_t>(iy) * in_shape.w + ix) * c;
          const float* w_px = w + (static_cast<size_t>(ky) * kernel + kx) * c;
          for (int ch = 0; ch < c; ++ch) out_px[ch] += in_px[ch] * w_px[ch];
        }
      }
    }
  }
}

}  // namespace

void DepthwiseConv2d(const float* in, const TensorShape& in_shape,
                     const float* weights, int kernel, int stride, float* out) {
  const int out_h = (in_shape.h + stride - 1) / stride;
  const int out_w = (in_shape.w + stride - 1) / stride;
  const int c = in_shape.c;
  const float* bias = weights + static_cast<size_t>(kernel) * kernel * c;

  auto rows = [&](int64_t y0, int64_t y1) {
#ifdef SESEMI_GEMM_X86
    if (HasAvx2Fma()) {
      DepthwiseRowsAvx2(in, in_shape, weights, bias, kernel, stride, out_w,
                        static_cast<int>(y0), static_cast<int>(y1), out);
      return;
    }
#endif
    DepthwiseRowsPortable(in, in_shape, weights, bias, kernel, stride, out_w,
                          static_cast<int>(y0), static_cast<int>(y1), out);
  };

  const int64_t flops_per_row =
      static_cast<int64_t>(out_w) * kernel * kernel * c;
  if (static_cast<int64_t>(out_h) * flops_per_row < kParallelFlopThreshold) {
    rows(0, out_h);
    return;
  }
  const int64_t grain =
      std::max<int64_t>(1, kDepthwiseChunkFlops / std::max<int64_t>(1, flops_per_row));
  ParallelFor(0, out_h, grain, rows);
}

void Gemm(const float* a, const float* b, const float* bias, float* c, int m,
          int n, int k) {
  if (m <= 0 || n <= 0) return;
  if (m == 1) {
#ifdef SESEMI_GEMM_X86
    if (HasAvx2Fma()) {
      GemvAvx2(a, b, bias, c, n, k);
      return;
    }
#endif
    GemvPortable(a, b, bias, c, n, k);
    return;
  }
  const int64_t flops = static_cast<int64_t>(m) * n * k;
  if (flops < kParallelFlopThreshold) {
    GemmRows(a, b, bias, c, 0, m, n, k);
    return;
  }
  ParallelFor(0, m, kPanelRows, [&](int64_t r0, int64_t r1) {
    GemmRows(a, b, bias, c, static_cast<int>(r0), static_cast<int>(r1), n, k);
  });
}

size_t PackedBElements(int k, int n) {
  const size_t panels = (static_cast<size_t>(n) + kNr - 1) / kNr;
  return panels * PanelStride(k);
}

void PackB(const float* b, int k, int n, float* packed) {
  for (int n0 = 0; n0 < n; n0 += kNr) {
    const int nr = std::min(kNr, n - n0);
    float* dst = packed + (n0 / kNr) * PanelStride(k);
    const float* src = b + n0;
    for (int kk = 0; kk < k; ++kk, dst += kNr, src += n) {
      std::memcpy(dst, src, static_cast<size_t>(nr) * sizeof(float));
      if (nr < kNr) {
        std::memset(dst + nr, 0, static_cast<size_t>(kNr - nr) * sizeof(float));
      }
    }
  }
}

void GemmPrepacked(const float* a, const float* packed_b, const float* bias,
                   float* c, int m, int n, int k) {
  if (m <= 0 || n <= 0) return;
  if (m == 1) {
#ifdef SESEMI_GEMM_X86
    if (HasAvx2Fma()) {
      GemvPackedAvx2(a, packed_b, bias, c, n, k);
      return;
    }
#endif
    GemvPackedPortable(a, packed_b, bias, c, n, k);
    return;
  }
  const bool kblock = ShouldKBlockPacked(m, n, k);
  const int64_t flops = static_cast<int64_t>(m) * n * k;
  if (flops < kParallelFlopThreshold) {
    if (kblock) {
      GemmPrepackedRowsKBlocked(a, packed_b, bias, c, 0, m, n, k);
    } else {
      GemmPrepackedRows(a, packed_b, bias, c, 0, m, n, k);
    }
    return;
  }
  ParallelFor(0, m, kPanelRows, [&](int64_t r0, int64_t r1) {
    if (kblock) {
      GemmPrepackedRowsKBlocked(a, packed_b, bias, c, static_cast<int>(r0),
                                static_cast<int>(r1), n, k);
    } else {
      GemmPrepackedRows(a, packed_b, bias, c, static_cast<int>(r0),
                        static_cast<int>(r1), n, k);
    }
  });
}

void Im2ColRows(const float* in, const TensorShape& in_shape, int kernel,
                int stride, int out_w, int m0, int m1, float* patch) {
  const int pad = (kernel - 1) / 2;
  const int in_c = in_shape.c;
  const size_t row_floats = static_cast<size_t>(kernel) * in_c;
  for (int m = m0; m < m1; ++m) {
    const int oy = m / out_w;
    const int ox = m % out_w;
    const int iy0 = oy * stride - pad;
    const int ix0 = ox * stride - pad;
    float* dst = patch + static_cast<size_t>(m - m0) * kernel * row_floats;
    for (int ky = 0; ky < kernel; ++ky, dst += row_floats) {
      const int iy = iy0 + ky;
      if (iy < 0 || iy >= in_shape.h) {
        std::memset(dst, 0, row_floats * sizeof(float));
        continue;
      }
      if (ix0 >= 0 && ix0 + kernel <= in_shape.w) {
        // Interior: the whole kx window is one contiguous HWC run.
        std::memcpy(dst,
                    in + (static_cast<size_t>(iy) * in_shape.w + ix0) * in_c,
                    row_floats * sizeof(float));
        continue;
      }
      for (int kx = 0; kx < kernel; ++kx) {
        const int ix = ix0 + kx;
        float* cell = dst + static_cast<size_t>(kx) * in_c;
        if (ix < 0 || ix >= in_shape.w) {
          std::memset(cell, 0, in_c * sizeof(float));
        } else {
          std::memcpy(cell,
                      in + (static_cast<size_t>(iy) * in_shape.w + ix) * in_c,
                      in_c * sizeof(float));
        }
      }
    }
  }
}

size_t Conv2dScratchElements(const TensorShape& in_shape, int kernel, int stride) {
  if (kernel == 1 && stride == 1) {
    return 0;  // 1x1 stride-1 convolutions multiply the input in place
  }
  const size_t k = static_cast<size_t>(kernel) * kernel * in_shape.c;
  const size_t out_pixels = static_cast<size_t>(in_shape.h) * in_shape.w;
  const size_t tile_rows = std::max<size_t>(1, std::min(out_pixels, kScratchBudgetFloats / k));
  return tile_rows * k;
}

namespace {

// Shared conv driver: 1x1 stride-1 fast path plus the im2col row-tile loop,
// with the GEMM step (unpacked or prepacked B) supplied by the caller as
// gemm_step(a, c, m, n, k) — one copy of the tiling/scratch policy to keep
// in sync with Conv2dScratchElements.
template <typename GemmStep>
void Conv2dGemmTiled(const float* in, const TensorShape& in_shape, int kernel,
                     int stride, int out_c, float* out, float* scratch,
                     GemmStep&& gemm_step) {
  const int out_h = (in_shape.h + stride - 1) / stride;
  const int out_w = (in_shape.w + stride - 1) / stride;
  const int m = out_h * out_w;
  const int k = kernel * kernel * in_shape.c;

  if (kernel == 1 && stride == 1) {
    // A 1x1 stride-1 convolution is exactly C = in (M x c) * W (c x out_c).
    gemm_step(in, out, m, out_c, in_shape.c);
    return;
  }

  const int tile_rows =
      static_cast<int>(Conv2dScratchElements(in_shape, kernel, stride) /
                       static_cast<size_t>(k));
  for (int m0 = 0; m0 < m; m0 += tile_rows) {
    const int m1 = std::min(m, m0 + tile_rows);
    Im2ColRows(in, in_shape, kernel, stride, out_w, m0, m1, scratch);
    gemm_step(scratch, out + static_cast<size_t>(m0) * out_c, m1 - m0, out_c, k);
  }
}

}  // namespace

void Conv2dGemm(const float* in, const TensorShape& in_shape,
                const float* weights, int kernel, int stride, int out_c,
                float* out, float* scratch) {
  const float* bias =
      weights + static_cast<size_t>(kernel) * kernel * in_shape.c * out_c;
  Conv2dGemmTiled(in, in_shape, kernel, stride, out_c, out, scratch,
                  [&](const float* a, float* c, int m, int n, int k) {
                    Gemm(a, weights, bias, c, m, n, k);
                  });
}

void Conv2dGemmPrepacked(const float* in, const TensorShape& in_shape,
                         const float* packed_weights, const float* bias,
                         int kernel, int stride, int out_c, float* out,
                         float* scratch) {
  Conv2dGemmTiled(in, in_shape, kernel, stride, out_c, out, scratch,
                  [&](const float* a, float* c, int m, int n, int k) {
                    GemmPrepacked(a, packed_weights, bias, c, m, n, k);
                  });
}

// ===================================================================== int8

namespace {

// Bytes between consecutive 16-column panels of the int8 packed layout.
inline size_t Int8PanelStride(int k4) {
  return static_cast<size_t>(k4) * kNr;
}

// One micro-tile of exact int32 accumulators: MR rows x 16 columns over the
// K-grouped panel `bp` (k4 rows, zero-padded). Every tier computes the same
// integer, so tiers differ only in speed.
template <int MR>
void Int8MicroKernelPortable(const uint8_t* a, int lda, const int8_t* bp,
                             int k4, int32_t acc[][kNr]) {
  for (int r = 0; r < MR; ++r) {
    for (int j = 0; j < kNr; ++j) acc[r][j] = 0;
  }
  for (int g = 0; g < k4 / kInt8KGroup; ++g, bp += kNr * kInt8KGroup) {
    for (int r = 0; r < MR; ++r) {
      const uint8_t* a4 = a + static_cast<size_t>(r) * lda + g * kInt8KGroup;
      for (int j = 0; j < kNr; ++j) {
        int32_t s = 0;
        for (int ki = 0; ki < kInt8KGroup; ++ki) {
          s += static_cast<int32_t>(a4[ki]) *
               static_cast<int32_t>(bp[j * kInt8KGroup + ki]);
        }
        acc[r][j] += s;
      }
    }
  }
}

#ifdef SESEMI_GEMM_X86
// AVX2: vpmaddubsw pairs u8 activations with s8 weights into 16-bit pair
// sums — safe from saturation because activations are u7 (127*127*2 < 2^15)
// — then vpmaddwd folds the pairs into exact 32-bit column dots.
template <int MR>
__attribute__((target("avx2"))) void Int8MicroKernelAvx2(
    const uint8_t* a, int lda, const int8_t* bp, int k4, int32_t acc[][kNr]) {
  __m256i vacc_lo[MR], vacc_hi[MR];
  for (int r = 0; r < MR; ++r) {
    vacc_lo[r] = _mm256_setzero_si256();
    vacc_hi[r] = _mm256_setzero_si256();
  }
  const __m256i ones = _mm256_set1_epi16(1);
  for (int g = 0; g < k4 / kInt8KGroup; ++g, bp += kNr * kInt8KGroup) {
    const __m256i b_lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));  // cols 0-7
    const __m256i b_hi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + 32));  // cols 8-15
    for (int r = 0; r < MR; ++r) {
      int32_t aword;
      std::memcpy(&aword, a + static_cast<size_t>(r) * lda + g * kInt8KGroup, 4);
      const __m256i av = _mm256_set1_epi32(aword);
      vacc_lo[r] = _mm256_add_epi32(
          vacc_lo[r], _mm256_madd_epi16(_mm256_maddubs_epi16(av, b_lo), ones));
      vacc_hi[r] = _mm256_add_epi32(
          vacc_hi[r], _mm256_madd_epi16(_mm256_maddubs_epi16(av, b_hi), ones));
    }
  }
  for (int r = 0; r < MR; ++r) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc[r]), vacc_lo[r]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc[r] + 8), vacc_hi[r]);
  }
}

// AVX-512 VNNI: vpdpbusd consumes one 64-byte k-group (4 k x 16 columns) per
// instruction — a full micro-tile row step in one uop.
template <int MR>
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) void
Int8MicroKernelVnni(const uint8_t* a, int lda, const int8_t* bp, int k4,
                    int32_t acc[][kNr]) {
  __m512i vacc[MR];
  for (int r = 0; r < MR; ++r) vacc[r] = _mm512_setzero_si512();
  for (int g = 0; g < k4 / kInt8KGroup; ++g, bp += kNr * kInt8KGroup) {
    const __m512i bv = _mm512_loadu_si512(reinterpret_cast<const void*>(bp));
    for (int r = 0; r < MR; ++r) {
      int32_t aword;
      std::memcpy(&aword, a + static_cast<size_t>(r) * lda + g * kInt8KGroup, 4);
      vacc[r] = _mm512_dpbusd_epi32(vacc[r], _mm512_set1_epi32(aword), bv);
    }
  }
  for (int r = 0; r < MR; ++r) {
    _mm512_storeu_si512(reinterpret_cast<void*>(acc[r]), vacc[r]);
  }
}
#endif  // SESEMI_GEMM_X86

using Int8KernelFn = void (*)(const uint8_t*, int, const int8_t*, int,
                              int32_t (*)[kNr]);

Int8KernelFn Int8Kernel(GemmIsa isa, int mr) {
  static const Int8KernelFn portable[kMaxMr] = {
      Int8MicroKernelPortable<1>, Int8MicroKernelPortable<2>,
      Int8MicroKernelPortable<3>, Int8MicroKernelPortable<4>,
      Int8MicroKernelPortable<5>, Int8MicroKernelPortable<6>};
#ifdef SESEMI_GEMM_X86
  static const Int8KernelFn avx2[kMaxMr] = {
      Int8MicroKernelAvx2<1>, Int8MicroKernelAvx2<2>, Int8MicroKernelAvx2<3>,
      Int8MicroKernelAvx2<4>, Int8MicroKernelAvx2<5>, Int8MicroKernelAvx2<6>};
  static const Int8KernelFn vnni[kMaxMr] = {
      Int8MicroKernelVnni<1>, Int8MicroKernelVnni<2>, Int8MicroKernelVnni<3>,
      Int8MicroKernelVnni<4>, Int8MicroKernelVnni<5>, Int8MicroKernelVnni<6>};
  if (isa == GemmIsa::kAvx512Vnni) return vnni[mr - 1];
  if (isa == GemmIsa::kAvx2) return avx2[mr - 1];
#endif
  (void)isa;
  return portable[mr - 1];
}

GemmIsa ResolveGemmIsa(GemmIsa isa) {
  if (isa == GemmIsa::kAuto) return ActiveGemmIsa();
  if (!GemmIsaAvailable(isa)) return GemmIsa::kPortable;
  return isa;
}

// Rows [m0, m1) against every panel: the tier kernel fills an exact int32
// micro-tile, then `write_tile(acc, m, n0, mr, nr)` runs the (shared,
// scalar, fma-based) epilogue — one epilogue for every tier keeps the fp32
// outputs bit-identical across tiers.
template <typename WriteTile>
void GemmInt8Rows(const uint8_t* a, int lda, const int8_t* packed_b, int m0,
                  int m1, int n, int k4, GemmIsa isa, WriteTile&& write_tile) {
  for (int m = m0; m < m1; m += kMaxMr) {
    const int mr = std::min(kMaxMr, m1 - m);
    Int8KernelFn kernel = Int8Kernel(isa, mr);
    const uint8_t* arow = a + static_cast<size_t>(m) * lda;
    for (int n0 = 0; n0 < n; n0 += kNr) {
      const int nr = std::min(kNr, n - n0);
      int32_t acc[kMaxMr][kNr];
      kernel(arow, lda, packed_b + (n0 / kNr) * Int8PanelStride(k4), k4, acc);
      write_tile(acc, m, n0, mr, nr);
    }
  }
}

// Shared int8 GEMM driver with per-row activation params at `a_stride` (1 =
// per-row arrays, 0 = one tensor-wide param broadcast to every row).
template <typename WriteTile>
void GemmInt8Driver(const uint8_t* a, int lda, int m, int n, int k,
                    const int8_t* packed_b, GemmIsa isa,
                    WriteTile&& write_tile) {
  if (m <= 0 || n <= 0) return;
  const GemmIsa tier = ResolveGemmIsa(isa);
  const int k4 = RoundUpK4(k);
  const int64_t flops = static_cast<int64_t>(m) * n * k;
  if (m == 1 || flops < kParallelFlopThreshold) {
    GemmInt8Rows(a, lda, packed_b, 0, m, n, k4, tier, write_tile);
    return;
  }
  ParallelFor(0, m, kPanelRows, [&](int64_t r0, int64_t r1) {
    GemmInt8Rows(a, lda, packed_b, static_cast<int>(r0), static_cast<int>(r1),
                 n, k4, tier, write_tile);
  });
}

}  // namespace

const char* ToString(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kAuto: return "auto";
    case GemmIsa::kPortable: return "portable";
    case GemmIsa::kAvx2: return "avx2";
    case GemmIsa::kAvx512Vnni: return "avx512-vnni";
  }
  return "unknown";
}

bool GemmIsaAvailable(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kAuto:
    case GemmIsa::kPortable:
      return true;
    case GemmIsa::kAvx2:
      return HasAvx2Fma();
    case GemmIsa::kAvx512Vnni:
      return HasAvx512Vnni();
  }
  return false;
}

GemmIsa ActiveGemmIsa() {
  static const GemmIsa active = [] {
    const char* force = std::getenv("SESEMI_FORCE_PORTABLE");
    const bool forced = force != nullptr && force[0] != '\0' &&
                        !(force[0] == '0' && force[1] == '\0');
    if (forced) return GemmIsa::kPortable;
    if (HasAvx512Vnni()) return GemmIsa::kAvx512Vnni;
    if (HasAvx2Fma()) return GemmIsa::kAvx2;
    return GemmIsa::kPortable;
  }();
  return active;
}

size_t PackedBInt8Bytes(int k, int n) {
  const size_t panels = (static_cast<size_t>(n) + kNr - 1) / kNr;
  return panels * Int8PanelStride(RoundUpK4(k));
}

void PackBInt8(const int8_t* b, int k, int n, int8_t* packed) {
  const int k4 = RoundUpK4(k);
  std::memset(packed, 0, PackedBInt8Bytes(k, n));
  for (int n0 = 0; n0 < n; n0 += kNr) {
    const int nr = std::min(kNr, n - n0);
    int8_t* panel = packed + (n0 / kNr) * Int8PanelStride(k4);
    for (int kk = 0; kk < k; ++kk) {
      int8_t* group =
          panel + static_cast<size_t>(kk / kInt8KGroup) * kNr * kInt8KGroup +
          kk % kInt8KGroup;
      const int8_t* src = b + static_cast<size_t>(kk) * n + n0;
      for (int j = 0; j < nr; ++j) group[j * kInt8KGroup] = src[j];
    }
  }
}

void Int8ColumnSums(const int8_t* b, int k, int n, int32_t* colsums) {
  for (int j = 0; j < n; ++j) colsums[j] = 0;
  for (int kk = 0; kk < k; ++kk) {
    const int8_t* row = b + static_cast<size_t>(kk) * n;
    for (int j = 0; j < n; ++j) colsums[j] += row[j];
  }
}

ActQuant QuantizeActivations(const float* x, size_t count, uint8_t* out) {
  float lo = 0.0f, hi = 0.0f;
  for (size_t i = 0; i < count; ++i) {
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
  // The range always includes zero so the zero-point lands in [0, 127] and
  // a true zero activation quantizes exactly (padding correctness depends on
  // it).
  const float range = hi - lo;
  ActQuant q;
  q.scale = range > 0.0f ? range / 127.0f : 1.0f;
  const float inv = range > 0.0f ? 127.0f / range : 0.0f;
  q.zero_point = std::min<int32_t>(
      127, std::max<int32_t>(0, static_cast<int32_t>(std::lrintf(-lo * inv))));
  for (size_t i = 0; i < count; ++i) {
    const long v = std::lrintf(x[i] * inv) + q.zero_point;
    out[i] = static_cast<uint8_t>(std::min<long>(127, std::max<long>(0, v)));
  }
  return q;
}

void GemmInt8Prepacked(const uint8_t* a, int lda, const float* a_scales,
                       const int32_t* a_zero_points, const int8_t* packed_b,
                       const float* w_scales, const int32_t* w_colsums,
                       const float* bias, float* c, int m, int n, int k,
                       GemmIsa isa) {
  GemmInt8Driver(
      a, lda, m, n, k, packed_b, isa,
      [&](int32_t acc[][kNr], int m_base, int n0, int mr, int nr) {
        for (int r = 0; r < mr; ++r) {
          const int row = m_base + r;
          const float a_s = a_scales[row];
          const int32_t a_zp = a_zero_points[row];
          float* crow = c + static_cast<size_t>(row) * n + n0;
          for (int j = 0; j < nr; ++j) {
            crow[j] = std::fma(
                static_cast<float>(acc[r][j] - a_zp * w_colsums[n0 + j]),
                a_s * w_scales[n0 + j], bias != nullptr ? bias[n0 + j] : 0.0f);
          }
        }
      });
}

void GemmInt8PrepackedRequant(const uint8_t* a, int lda, const float* a_scales,
                              const int32_t* a_zero_points,
                              const int8_t* packed_b, const float* w_scales,
                              const int32_t* w_colsums, const float* bias,
                              const ActQuant& out, int8_t* c, int m, int n,
                              int k, GemmIsa isa) {
  const float inv_out = 1.0f / out.scale;
  GemmInt8Driver(
      a, lda, m, n, k, packed_b, isa,
      [&](int32_t acc[][kNr], int m_base, int n0, int mr, int nr) {
        for (int r = 0; r < mr; ++r) {
          const int row = m_base + r;
          const float a_s = a_scales[row];
          const int32_t a_zp = a_zero_points[row];
          int8_t* crow = c + static_cast<size_t>(row) * n + n0;
          for (int j = 0; j < nr; ++j) {
            const float v = std::fma(
                static_cast<float>(acc[r][j] - a_zp * w_colsums[n0 + j]),
                a_s * w_scales[n0 + j], bias != nullptr ? bias[n0 + j] : 0.0f);
            const long q = std::lrintf(v * inv_out) + out.zero_point;
            crow[j] =
                static_cast<int8_t>(std::min<long>(127, std::max<long>(-128, q)));
          }
        }
      });
}

size_t Conv2dScratchBytesInt8(const TensorShape& in_shape, int kernel,
                              int stride) {
  const size_t k = static_cast<size_t>(kernel) * kernel * in_shape.c;
  if (kernel == 1 && stride == 1 && in_shape.c % kInt8KGroup == 0) {
    return 0;  // the quantized input is consumed in place
  }
  const size_t out_pixels = static_cast<size_t>(in_shape.h) * in_shape.w;
  // Same row-tile policy as the fp32 path (so the tiling stays in one place
  // mentally), but rows are padded to the k-group for the kernels.
  const size_t tile_rows =
      std::max<size_t>(1, std::min(out_pixels, kScratchBudgetFloats / k));
  return tile_rows * static_cast<size_t>(RoundUpK4(static_cast<int>(k)));
}

void Im2ColRowsU8(const uint8_t* in, const TensorShape& in_shape, int kernel,
                  int stride, int out_w, int m0, int m1, uint8_t pad_value,
                  uint8_t* patch) {
  const int pad = (kernel - 1) / 2;
  const int in_c = in_shape.c;
  const size_t row_bytes = static_cast<size_t>(kernel) * in_c;
  const int k = kernel * kernel * in_c;
  const int k4 = RoundUpK4(k);
  for (int m = m0; m < m1; ++m) {
    const int oy = m / out_w;
    const int ox = m % out_w;
    const int iy0 = oy * stride - pad;
    const int ix0 = ox * stride - pad;
    uint8_t* row = patch + static_cast<size_t>(m - m0) * k4;
    uint8_t* dst = row;
    for (int ky = 0; ky < kernel; ++ky, dst += row_bytes) {
      const int iy = iy0 + ky;
      if (iy < 0 || iy >= in_shape.h) {
        std::memset(dst, pad_value, row_bytes);
        continue;
      }
      if (ix0 >= 0 && ix0 + kernel <= in_shape.w) {
        std::memcpy(dst, in + (static_cast<size_t>(iy) * in_shape.w + ix0) * in_c,
                    row_bytes);
        continue;
      }
      for (int kx = 0; kx < kernel; ++kx) {
        const int ix = ix0 + kx;
        uint8_t* cell = dst + static_cast<size_t>(kx) * in_c;
        if (ix < 0 || ix >= in_shape.w) {
          std::memset(cell, pad_value, in_c);
        } else {
          std::memcpy(cell, in + (static_cast<size_t>(iy) * in_shape.w + ix) * in_c,
                      in_c);
        }
      }
    }
    if (k4 > k) std::memset(row + k, pad_value, k4 - k);
  }
}

void Conv2dGemmInt8Prepacked(const uint8_t* in_q, const ActQuant& in_quant,
                             const TensorShape& in_shape,
                             const int8_t* packed_w, const float* w_scales,
                             const int32_t* w_colsums, const float* bias,
                             int kernel, int stride, int out_c, float* out,
                             uint8_t* scratch, GemmIsa isa) {
  const int out_h = (in_shape.h + stride - 1) / stride;
  const int out_w = (in_shape.w + stride - 1) / stride;
  const int m = out_h * out_w;
  const int k = kernel * kernel * in_shape.c;
  // One ActQuant covers the whole tensor: broadcast it to every GEMM row.
  const float a_scale = in_quant.scale;
  const int32_t a_zp = in_quant.zero_point;
  auto gemm_step = [&](const uint8_t* a, int lda, float* c, int rows, int n) {
    GemmInt8Driver(
        a, lda, rows, n, k, packed_w, isa,
        [&](int32_t acc[][kNr], int m_base, int n0, int mr, int nr) {
          for (int r = 0; r < mr; ++r) {
            float* crow = c + static_cast<size_t>(m_base + r) * n + n0;
            for (int j = 0; j < nr; ++j) {
              crow[j] = std::fma(
                  static_cast<float>(acc[r][j] - a_zp * w_colsums[n0 + j]),
                  a_scale * w_scales[n0 + j],
                  bias != nullptr ? bias[n0 + j] : 0.0f);
            }
          }
        });
  };

  if (kernel == 1 && stride == 1 && in_shape.c % kInt8KGroup == 0) {
    // 1x1 stride-1 with k-group-aligned channels: the quantized input rows
    // already have the packed stride, no im2col copy needed.
    gemm_step(in_q, in_shape.c, out, m, out_c);
    return;
  }

  const int k4 = RoundUpK4(k);
  const size_t out_pixels = static_cast<size_t>(in_shape.h) * in_shape.w;
  const int tile_rows = static_cast<int>(std::max<size_t>(
      1, std::min(out_pixels, kScratchBudgetFloats / static_cast<size_t>(k))));
  for (int m0 = 0; m0 < m; m0 += tile_rows) {
    const int m1 = std::min(m, m0 + tile_rows);
    Im2ColRowsU8(in_q, in_shape, kernel, stride, out_w, m0, m1,
                 static_cast<uint8_t>(a_zp), scratch);
    gemm_step(scratch, k4, out + static_cast<size_t>(m0) * out_c, m1 - m0,
              out_c);
  }
}

}  // namespace sesemi::inference::gemm
