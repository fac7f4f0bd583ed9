#ifndef SESEMI_CRYPTO_SHA256_H_
#define SESEMI_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/aes.h"  // CryptoBackend / ActiveCryptoBackend

namespace sesemi::crypto {

/// Size of a SHA-256 digest in bytes.
constexpr size_t kSha256DigestSize = 32;
/// SHA-256 block size in bytes (relevant for HMAC).
constexpr size_t kSha256BlockSize = 64;

using Sha256Digest = std::array<uint8_t, kSha256DigestSize>;

/// True when this build and CPU can run the SHA-NI compression path
/// (x86-64 with the SHA and SSE4.1 CPUID bits).
bool Sha256HardwareAvailable();

/// Incremental SHA-256 (FIPS 180-4).
///
/// Used for enclave measurement (MRENCLAVE derivation), identity hashing
/// (Algorithm 1 line 6: id = SHA256(K_id)), and as the compression core of
/// HMAC/HKDF.
///
/// Two compression implementations sit behind the process-wide crypto
/// dispatch (see CryptoBackend): SHA-NI two-rounds-per-instruction when any
/// hardware backend (AES-NI or VAES) is active and the CPU has the SHA
/// extensions, and the portable FIPS 180-4 rounds otherwise. Both produce
/// identical digests; SESEMI_FORCE_PORTABLE pins the fallback exactly as it
/// does for AES-GCM.
class Sha256 {
 public:
  Sha256() : Sha256(CryptoBackend::kAuto) { }
  /// Pin a compression backend (tests/benches). kAuto follows
  /// ActiveCryptoBackend(); any hardware tier on a CPU without the SHA
  /// extensions falls back to portable (the digest is the same either way).
  explicit Sha256(CryptoBackend backend);

  /// Restart for a fresh message (keeps the pinned backend).
  void Reset();
  /// Absorb bytes; may be called any number of times.
  void Update(ByteSpan data);
  /// Finalize and produce the digest. The object must be Reset() before reuse.
  Sha256Digest Finish();

  /// True when this instance compresses with SHA-NI.
  bool hardware() const { return hw_; }

  /// One-shot convenience.
  static Sha256Digest Hash(ByteSpan data);
  /// One-shot digest as a Bytes buffer.
  static Bytes HashToBytes(ByteSpan data);

 private:
  void ProcessBlocks(const uint8_t* data, size_t blocks);

  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[kSha256BlockSize];
  size_t buffer_len_;
  bool hw_ = false;
};

}  // namespace sesemi::crypto

#endif  // SESEMI_CRYPTO_SHA256_H_
