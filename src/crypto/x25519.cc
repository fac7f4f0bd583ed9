#include "crypto/x25519.h"

#include <cstring>

#include "crypto/random.h"

namespace sesemi::crypto {

// Field arithmetic over GF(2^255 - 19) on five 51-bit limbs with 128-bit
// products, in the curve25519-donna-c64 layout (public domain): element
// f = f[0] + f[1]·2^51 + f[2]·2^102 + f[3]·2^153 + f[4]·2^204.
//
// Limb bounds the ladder keeps: Mul, Square and Mul121665 return limbs below
// 2^52, and Add of two such results stays below 2^53. Sub adds 8p, so no limb
// goes negative when the subtrahend is such a result, and returns limbs below
// 2^55. Every product term is then below 2^110, so the 128-bit column sums
// (at most 77 such terms after the ×19 and ×2 factors) cannot overflow, and
// the carry chains run on 128 bits.
namespace {
using Fe = uint64_t[5];
using u128 = unsigned __int128;

constexpr uint64_t kMask51 = (uint64_t{1} << 51) - 1;
constexpr uint64_t kA24 = 121665;  // (486662 - 2) / 4

uint64_t Load64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = v << 8 | p[i];
  return v;
}

// The full 128-bit product of two limbs.
u128 M(uint64_t a, uint64_t b) { return static_cast<u128>(a) * b; }

// Decodes a u-coordinate. Bit 255 is masked (RFC 7748 §5); values in
// [p, 2^255) stay non-canonical and reduce in the arithmetic.
void FromBytes(Fe h, const uint8_t* s) {
  h[0] = Load64(s) & kMask51;
  h[1] = (Load64(s + 6) >> 3) & kMask51;
  h[2] = (Load64(s + 12) >> 6) & kMask51;
  h[3] = (Load64(s + 19) >> 1) & kMask51;
  h[4] = (Load64(s + 24) >> 12) & kMask51;
}

// Carries 128-bit column sums into limbs below 2^52, folding the carry out
// of the top limb back into the bottom one times 19 (2^255 ≡ 19 mod p).
void Carry(Fe out, u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  t1 += t0 >> 51;
  t2 += t1 >> 51;
  t3 += t2 >> 51;
  t4 += t3 >> 51;
  u128 r0 = (static_cast<uint64_t>(t0) & kMask51) + (t4 >> 51) * 19;
  out[0] = static_cast<uint64_t>(r0) & kMask51;
  out[1] = (static_cast<uint64_t>(t1) & kMask51) + static_cast<uint64_t>(r0 >> 51);
  out[2] = static_cast<uint64_t>(t2) & kMask51;
  out[3] = static_cast<uint64_t>(t3) & kMask51;
  out[4] = static_cast<uint64_t>(t4) & kMask51;
}

void Add(Fe out, const Fe a, const Fe b) {
  for (int i = 0; i < 5; ++i) out[i] = a[i] + b[i];
}

// out = a - b + 8p, so every limb stays non-negative.
void Sub(Fe out, const Fe a, const Fe b) {
  constexpr uint64_t kTwo54m152 = (uint64_t{1} << 54) - 152;
  constexpr uint64_t kTwo54m8 = (uint64_t{1} << 54) - 8;
  out[0] = a[0] + kTwo54m152 - b[0];
  for (int i = 1; i < 5; ++i) out[i] = a[i] + kTwo54m8 - b[i];
}

void Mul(Fe out, const Fe a, const Fe b) {
  const uint64_t a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
  const uint64_t b0 = b[0], b1 = b[1], b2 = b[2], b3 = b[3], b4 = b[4];
  const uint64_t a1_19 = a1 * 19, a2_19 = a2 * 19, a3_19 = a3 * 19, a4_19 = a4 * 19;
  u128 t0 = M(a0, b0) + M(a4_19, b1) + M(a3_19, b2) + M(a2_19, b3) + M(a1_19, b4);
  u128 t1 = M(a0, b1) + M(a1, b0) + M(a4_19, b2) + M(a3_19, b3) + M(a2_19, b4);
  u128 t2 = M(a0, b2) + M(a1, b1) + M(a2, b0) + M(a4_19, b3) + M(a3_19, b4);
  u128 t3 = M(a0, b3) + M(a1, b2) + M(a2, b1) + M(a3, b0) + M(a4_19, b4);
  u128 t4 = M(a0, b4) + M(a1, b3) + M(a2, b2) + M(a3, b1) + M(a4, b0);
  Carry(out, t0, t1, t2, t3, t4);
}

void Square(Fe out, const Fe a) {
  const uint64_t a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
  const uint64_t d0 = a0 * 2, d1 = a1 * 2, d2_19 = a2 * 38, a3_19 = a3 * 19,
                 a4_19 = a4 * 19, d4_19 = a4 * 38;
  u128 t0 = M(a0, a0) + M(d4_19, a1) + M(d2_19, a3);
  u128 t1 = M(d0, a1) + M(d4_19, a2) + M(a3_19, a3);
  u128 t2 = M(d0, a2) + M(a1, a1) + M(d4_19, a3);
  u128 t3 = M(d0, a3) + M(d1, a2) + M(a4_19, a4);
  u128 t4 = M(d0, a4) + M(d1, a3) + M(a2, a2);
  Carry(out, t0, t1, t2, t3, t4);
}

void SquareTimes(Fe out, const Fe a, int n) {
  Square(out, a);
  for (int i = 1; i < n; ++i) Square(out, out);
}

void Mul121665(Fe out, const Fe a) {
  Carry(out, M(a[0], kA24), M(a[1], kA24), M(a[2], kA24), M(a[3], kA24),
        M(a[4], kA24));
}

// out = z^(p-2) = z^(2^255 - 21): 254 squarings and 11 multiplications.
void Invert(Fe out, const Fe z) {
  Fe z2 = {}, z9 = {}, z11 = {}, z2_5_0 = {}, z2_10_0 = {}, z2_20_0 = {}, z2_50_0 = {},
     z2_100_0 = {}, t = {};
  Square(z2, z);                  // 2
  SquareTimes(t, z2, 2);          // 8
  Mul(z9, t, z);                  // 9
  Mul(z11, z9, z2);               // 11
  Square(t, z11);                 // 22
  Mul(z2_5_0, t, z9);             // 2^5 - 1
  SquareTimes(t, z2_5_0, 5);
  Mul(z2_10_0, t, z2_5_0);        // 2^10 - 1
  SquareTimes(t, z2_10_0, 10);
  Mul(z2_20_0, t, z2_10_0);       // 2^20 - 1
  SquareTimes(t, z2_20_0, 20);
  Mul(t, t, z2_20_0);             // 2^40 - 1
  SquareTimes(t, t, 10);
  Mul(z2_50_0, t, z2_10_0);       // 2^50 - 1
  SquareTimes(t, z2_50_0, 50);
  Mul(z2_100_0, t, z2_50_0);      // 2^100 - 1
  SquareTimes(t, z2_100_0, 100);
  Mul(t, t, z2_100_0);            // 2^200 - 1
  SquareTimes(t, t, 50);
  Mul(t, t, z2_50_0);             // 2^250 - 1
  SquareTimes(t, t, 5);           // 2^255 - 32
  Mul(out, t, z11);               // 2^255 - 21
}

// Encodes the canonical representative in [0, p).
void ToBytes(uint8_t* s, const Fe f) {
  uint64_t h[5] = {f[0], f[1], f[2], f[3], f[4]};
  // Two carry passes leave every limb below 2^51, so h < 2^255 < 2p.
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 4; ++i) {
      h[i + 1] += h[i] >> 51;
      h[i] &= kMask51;
    }
    h[0] += (h[4] >> 51) * 19;
    h[4] &= kMask51;
  }
  // q = 1 exactly when h >= p, i.e. when h + 19 carries out of bit 255.
  uint64_t q = (h[0] + 19) >> 51;
  for (int i = 1; i < 5; ++i) q = (h[i] + q) >> 51;
  h[0] += 19 * q;
  for (int i = 0; i < 4; ++i) {
    h[i + 1] += h[i] >> 51;
    h[i] &= kMask51;
  }
  h[4] &= kMask51;  // drops the 2^255 that completes the subtraction of p
  const uint64_t words[4] = {h[0] | h[1] << 51, h[1] >> 13 | h[2] << 38,
                             h[2] >> 26 | h[3] << 25, h[3] >> 39 | h[4] << 12};
  for (int i = 0; i < 32; ++i) {
    s[i] = static_cast<uint8_t>(words[i / 8] >> (8 * (i % 8)));
  }
}

// Constant-time swap of (a, b) when swap == 1, a no-op when swap == 0.
void CSwap(Fe a, Fe b, uint64_t swap) {
  const uint64_t mask = 0 - swap;
  for (int i = 0; i < 5; ++i) {
    const uint64_t x = mask & (a[i] ^ b[i]);
    a[i] ^= x;
    b[i] ^= x;
  }
}
}  // namespace

X25519Key X25519(const X25519Key& scalar, const X25519Key& point) {
  uint8_t k[32];
  std::memcpy(k, scalar.data(), 32);
  // RFC 7748 clamping.
  k[0] &= 248;
  k[31] = (k[31] & 127) | 64;

  // RFC 7748 §5 Montgomery ladder. The loop and every memory index depend
  // only on the bit position, never on the scalar's bits.
  Fe x1 = {}, x2 = {1}, z2 = {}, x3 = {}, z3 = {1};
  FromBytes(x1, point.data());
  std::memcpy(x3, x1, sizeof(Fe));
  Fe a = {}, aa = {}, b = {}, bb = {}, e = {}, c = {}, d = {}, da = {}, cb = {}, t = {};
  uint64_t swap = 0;
  for (int i = 254; i >= 0; --i) {
    const uint64_t bit = (k[i >> 3] >> (i & 7)) & 1;
    swap ^= bit;
    CSwap(x2, x3, swap);
    CSwap(z2, z3, swap);
    swap = bit;

    Add(a, x2, z2);
    Square(aa, a);
    Sub(b, x2, z2);
    Square(bb, b);
    Sub(e, aa, bb);
    Add(c, x3, z3);
    Sub(d, x3, z3);
    Mul(da, d, a);
    Mul(cb, c, b);
    Add(t, da, cb);
    Square(x3, t);
    Sub(t, da, cb);
    Square(t, t);
    Mul(z3, x1, t);
    Mul(x2, aa, bb);
    Mul121665(t, e);
    Add(t, aa, t);
    Mul(z2, e, t);
  }
  CSwap(x2, x3, swap);
  CSwap(z2, z3, swap);

  Invert(z2, z2);
  Mul(x2, x2, z2);
  X25519Key out;
  ToBytes(out.data(), x2);
  return out;
}

X25519Key X25519Base(const X25519Key& scalar) {
  X25519Key base{};
  base[0] = 9;
  return X25519(scalar, base);
}

X25519KeyPair GenerateX25519KeyPair() {
  X25519KeyPair kp;
  Bytes priv = RandomBytes(kX25519KeySize);
  std::memcpy(kp.private_key.data(), priv.data(), kX25519KeySize);
  kp.private_key[0] &= 248;
  kp.private_key[31] = (kp.private_key[31] & 127) | 64;
  kp.public_key = X25519Base(kp.private_key);
  return kp;
}

Result<Bytes> X25519SharedSecret(const X25519Key& private_key,
                                 const X25519Key& peer_public) {
  X25519Key shared = X25519(private_key, peer_public);
  uint8_t acc = 0;
  for (uint8_t byte : shared) acc |= byte;
  if (acc == 0) {
    return Status::Unauthenticated("X25519 produced all-zero shared secret");
  }
  return Bytes(shared.begin(), shared.end());
}

}  // namespace sesemi::crypto
