#include <gtest/gtest.h>

#include <cstring>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/gcm.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/key.h"
#include "crypto/random.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"

namespace sesemi::crypto {

/// Test-only seam into the fused CTR+GHASH walk: the 32-bit counter-wrap
/// regression needs a J0 whose counter field sits near 2^32, which a 12-byte
/// nonce (counter always starts at 1) can never produce through the public
/// API without a ~64 GiB message.
struct GcmTestPeer {
  static void CtrCryptAndHash(const AesGcm& gcm, const uint8_t j0[16], ByteSpan in,
                              uint8_t* out, uint8_t y[16], bool hash_output) {
    gcm.CtrCryptAndHash(j0, in, out, y, hash_output);
  }
};

namespace {

std::string HashHex(ByteSpan data) {
  return HexEncode(Sha256::HashToBytes(data));
}

// ---------------------------------------------------------------- SHA-256
// Vectors from FIPS 180-4 / NIST CAVP.

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HashHex(ToBytes("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HashHex(ToBytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(HashHex(ToBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  // (A previous version called Finish() twice and spliced iterators from two
  // distinct temporaries — UB the ASan CI leg caught.)
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  auto d = h.Finish();
  EXPECT_EQ(HexEncode(ByteSpan(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Rng rng(1);
  Bytes data = rng.NextBytes(10000);
  Sha256 h;
  // Feed in irregular chunk sizes that straddle block boundaries.
  size_t pos = 0;
  size_t sizes[] = {1, 63, 64, 65, 127, 128, 1000, 8552};
  for (size_t s : sizes) {
    h.Update(ByteSpan(data.data() + pos, s));
    pos += s;
  }
  ASSERT_EQ(pos, data.size());
  EXPECT_EQ(h.Finish(), Sha256::Hash(data));
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.Update(ToBytes("garbage"));
  h.Reset();
  h.Update(ToBytes("abc"));
  EXPECT_EQ(h.Finish(), Sha256::Hash(ToBytes("abc")));
}

// Boundary lengths around the 55/56-byte padding edge.
class Sha256PaddingTest : public ::testing::TestWithParam<size_t> {};

TEST_P(Sha256PaddingTest, MatchesIncrementalByteFeed) {
  size_t n = GetParam();
  Bytes data(n, 0x5a);
  Sha256 h;
  for (size_t i = 0; i < n; ++i) h.Update(ByteSpan(data.data() + i, 1));
  EXPECT_EQ(h.Finish(), Sha256::Hash(data)) << "length " << n;
}

INSTANTIATE_TEST_SUITE_P(PaddingEdges, Sha256PaddingTest,
                         ::testing::Values(0, 1, 54, 55, 56, 57, 63, 64, 65, 119,
                                           120, 128, 129));

// SHA-NI vs portable: both compression paths must produce identical digests
// for every length around block/padding boundaries and for bulk input. The
// pinned-portable instances keep this meaningful on machines where the
// default resolves to hardware (and vice versa under SESEMI_FORCE_PORTABLE).
TEST(Sha256Test, HardwarePortableParity) {
  if (!Sha256HardwareAvailable()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  }
  Rng rng(77);
  const size_t lengths[] = {0,  1,  31,  55,  56,  63,  64,   65,
                            96, 127, 128, 129, 1000, 4096, 65536};
  for (size_t n : lengths) {
    Bytes data = rng.NextBytes(n);
    Sha256 hw(CryptoBackend::kHardware);
    Sha256 portable(CryptoBackend::kPortable);
    hw.Update(data);
    portable.Update(data);
    EXPECT_EQ(hw.Finish(), portable.Finish()) << "length " << n;
  }
}

TEST(Sha256Test, HardwarePortableParityStreaming) {
  if (!Sha256HardwareAvailable()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  }
  // Irregular chunk feed: both backends must carry partial-block state the
  // same way (the hw path only ever sees whole blocks; the buffer logic in
  // front of it is shared).
  Rng rng(78);
  Bytes data = rng.NextBytes(10000);
  Sha256 hw(CryptoBackend::kHardware);
  Sha256 portable(CryptoBackend::kPortable);
  size_t pos = 0;
  size_t sizes[] = {1, 63, 64, 65, 127, 128, 1000, 8552};
  for (size_t s : sizes) {
    hw.Update(ByteSpan(data.data() + pos, s));
    portable.Update(ByteSpan(data.data() + pos, s));
    pos += s;
  }
  ASSERT_EQ(pos, data.size());
  EXPECT_EQ(hw.Finish(), portable.Finish());
}

TEST(Sha256Test, BackendSelectionFollowsProcessDispatch) {
  // kAuto must agree with the process-wide decision: SHA-NI whenever the
  // crypto dispatch resolved to any hardware tier (AES-NI or VAES) and the
  // CPU has the SHA extensions; portable rounds under SESEMI_FORCE_PORTABLE.
  Sha256 h;
  const bool expect_hw = ActiveCryptoBackend() != CryptoBackend::kPortable &&
                         Sha256HardwareAvailable();
  EXPECT_EQ(h.hardware(), expect_hw);
  EXPECT_EQ(Sha256(CryptoBackend::kHardwareVaes).hardware(),
            Sha256HardwareAvailable());
  // Pinning portable always sticks; pinning hardware sticks iff available.
  EXPECT_FALSE(Sha256(CryptoBackend::kPortable).hardware());
  EXPECT_EQ(Sha256(CryptoBackend::kHardware).hardware(),
            Sha256HardwareAvailable());
}

// ---------------------------------------------------------------- HMAC
// Vectors from RFC 4231.

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  auto tag = HmacSha256(key, ToBytes("Hi There"));
  EXPECT_EQ(HexEncode(ByteSpan(tag.data(), tag.size())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  auto tag = HmacSha256(ToBytes("Jefe"), ToBytes("what do ya want for nothing?"));
  EXPECT_EQ(HexEncode(ByteSpan(tag.data(), tag.size())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  Bytes long_key(131, 0xaa);  // RFC 4231 case 6 key size
  auto tag = HmacSha256(long_key, ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(HexEncode(ByteSpan(tag.data(), tag.size())),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, VerifyAcceptsAndRejects) {
  Bytes key = ToBytes("k");
  Bytes msg = ToBytes("m");
  Bytes tag = HmacSha256ToBytes(key, msg);
  EXPECT_TRUE(VerifyHmacSha256(key, msg, tag));
  tag[0] ^= 1;
  EXPECT_FALSE(VerifyHmacSha256(key, msg, tag));
  EXPECT_FALSE(VerifyHmacSha256(key, ToBytes("m2"), tag));
  EXPECT_FALSE(VerifyHmacSha256(key, msg, Bytes{}));
}

// ---------------------------------------------------------------- HKDF
// Vector from RFC 5869, Test Case 1.

TEST(HkdfTest, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = HexDecode("000102030405060708090a0b0c");
  Bytes info = HexDecode("f0f1f2f3f4f5f6f7f8f9");
  auto okm = Hkdf(salt, ikm, info, 42);
  ASSERT_TRUE(okm.ok());
  EXPECT_EQ(HexEncode(*okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfTest, RejectsOverlongOutput) {
  auto r = HkdfExpand(Bytes(32, 1), {}, 255 * 32 + 1);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(HkdfTest, DifferentInfoYieldsIndependentKeys) {
  Bytes ikm = ToBytes("shared secret");
  auto a = Hkdf({}, ikm, ToBytes("client"), 32);
  auto b = Hkdf({}, ikm, ToBytes("server"), 32);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
}

TEST(HkdfTest, ExpandIsPrefixConsistent) {
  Bytes prk = HkdfExtract({}, ToBytes("ikm"));
  auto short_out = HkdfExpand(prk, ToBytes("ctx"), 16);
  auto long_out = HkdfExpand(prk, ToBytes("ctx"), 64);
  ASSERT_TRUE(short_out.ok());
  ASSERT_TRUE(long_out.ok());
  EXPECT_TRUE(std::equal(short_out->begin(), short_out->end(), long_out->begin()));
}

// ---------------------------------------------------------------- AES
// Vectors from FIPS 197 Appendix C.

TEST(AesTest, Fips197Aes128) {
  Bytes key = HexDecode("000102030405060708090a0b0c0d0e0f");
  Bytes pt = HexDecode("00112233445566778899aabbccddeeff");
  auto aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  EXPECT_EQ(aes->rounds(), 10);
  uint8_t ct[16];
  aes->EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ByteSpan(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(AesTest, Fips197Aes256) {
  Bytes key = HexDecode("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes pt = HexDecode("00112233445566778899aabbccddeeff");
  auto aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  EXPECT_EQ(aes->rounds(), 14);
  uint8_t ct[16];
  aes->EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ByteSpan(ct, 16)), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(AesTest, RejectsBadKeySizes) {
  EXPECT_FALSE(Aes::Create(Bytes(15, 0)).ok());
  EXPECT_FALSE(Aes::Create(Bytes(24, 0)).ok());  // AES-192 unsupported by design
  EXPECT_FALSE(Aes::Create(Bytes(0, 0)).ok());
}

TEST(AesTest, InPlaceEncryption) {
  Bytes key = HexDecode("000102030405060708090a0b0c0d0e0f");
  auto aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  uint8_t buf[16];
  Bytes pt = HexDecode("00112233445566778899aabbccddeeff");
  memcpy(buf, pt.data(), 16);
  aes->EncryptBlock(buf, buf);
  EXPECT_EQ(HexEncode(ByteSpan(buf, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

// ---------------------------------------------------------------- AES-GCM
// Vectors from the original GCM spec (McGrew & Viega), test cases 1-4.

TEST(GcmTest, SpecCase1EmptyEverything) {
  Bytes key(16, 0);
  Bytes nonce(12, 0);
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto ct = gcm->Encrypt(nonce, {}, {});
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(HexEncode(*ct), "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(GcmTest, SpecCase2SingleBlock) {
  Bytes key(16, 0);
  Bytes nonce(12, 0);
  Bytes pt(16, 0);
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto ct = gcm->Encrypt(nonce, {}, pt);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(HexEncode(*ct),
            "0388dace60b6a392f328c2b971b2fe78"
            "ab6e47d42cec13bdf53a67b21257bddf");
}

TEST(GcmTest, SpecCase3FourBlocks) {
  Bytes key = HexDecode("feffe9928665731c6d6a8f9467308308");
  Bytes nonce = HexDecode("cafebabefacedbaddecaf888");
  Bytes pt = HexDecode(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto ct = gcm->Encrypt(nonce, {}, pt);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(HexEncode(*ct),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
            "4d5c2af327cd64a62cf35abd2ba6fab4");
}

TEST(GcmTest, SpecCase4WithAad) {
  Bytes key = HexDecode("feffe9928665731c6d6a8f9467308308");
  Bytes nonce = HexDecode("cafebabefacedbaddecaf888");
  Bytes pt = HexDecode(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  Bytes aad = HexDecode("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto ct = gcm->Encrypt(nonce, aad, pt);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(HexEncode(*ct),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
            "5bc94fbc3221a5db94fae95ae7121a47");
}

TEST(GcmTest, DecryptRoundTrip) {
  Bytes key = GenerateSymmetricKey(32);
  Bytes nonce = RandomBytes(12);
  Bytes pt = ToBytes("patient record: glucose 5.4 mmol/L");
  Bytes aad = ToBytes("request-header");
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto ct = gcm->Encrypt(nonce, aad, pt);
  ASSERT_TRUE(ct.ok());
  auto back = gcm->Decrypt(nonce, aad, *ct);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);
}

TEST(GcmTest, TamperedCiphertextRejected) {
  Bytes key = GenerateSymmetricKey();
  Bytes nonce = RandomBytes(12);
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto ct = gcm->Encrypt(nonce, {}, ToBytes("secret model weights"));
  ASSERT_TRUE(ct.ok());
  Bytes tampered = *ct;
  tampered[0] ^= 0x01;
  auto r = gcm->Decrypt(nonce, {}, tampered);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnauthenticated());
}

TEST(GcmTest, TamperedTagRejected) {
  Bytes key = GenerateSymmetricKey();
  Bytes nonce = RandomBytes(12);
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto ct = gcm->Encrypt(nonce, {}, ToBytes("x"));
  ASSERT_TRUE(ct.ok());
  Bytes tampered = *ct;
  tampered.back() ^= 0x80;
  EXPECT_FALSE(gcm->Decrypt(nonce, {}, tampered).ok());
}

TEST(GcmTest, WrongAadRejected) {
  Bytes key = GenerateSymmetricKey();
  Bytes nonce = RandomBytes(12);
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto ct = gcm->Encrypt(nonce, ToBytes("aad-1"), ToBytes("x"));
  ASSERT_TRUE(ct.ok());
  EXPECT_FALSE(gcm->Decrypt(nonce, ToBytes("aad-2"), *ct).ok());
}

TEST(GcmTest, WrongKeyRejected) {
  Bytes nonce = RandomBytes(12);
  auto g1 = AesGcm::Create(Bytes(16, 1));
  auto g2 = AesGcm::Create(Bytes(16, 2));
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  auto ct = g1->Encrypt(nonce, {}, ToBytes("x"));
  ASSERT_TRUE(ct.ok());
  EXPECT_FALSE(g2->Decrypt(nonce, {}, *ct).ok());
}

TEST(GcmTest, RejectsBadNonceAndShortMessages) {
  auto gcm = AesGcm::Create(Bytes(16, 0));
  ASSERT_TRUE(gcm.ok());
  EXPECT_FALSE(gcm->Encrypt(Bytes(11, 0), {}, {}).ok());
  EXPECT_FALSE(gcm->Decrypt(Bytes(12, 0), {}, Bytes(15, 0)).ok());
}

TEST(GcmTest, SealOpenRoundTrip) {
  Bytes key = GenerateSymmetricKey();
  Bytes pt = ToBytes("inference request payload");
  auto sealed = GcmSeal(key, ToBytes("hdr"), pt);
  ASSERT_TRUE(sealed.ok());
  auto opened = GcmOpen(key, ToBytes("hdr"), *sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, pt);
}

TEST(GcmTest, SealUsesFreshNonces) {
  Bytes key = GenerateSymmetricKey();
  auto a = GcmSeal(key, {}, ToBytes("same"));
  auto b = GcmSeal(key, {}, ToBytes("same"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);  // nonce differs, so the whole message differs
}

// Round-trip across plaintext sizes spanning block boundaries.
class GcmSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(GcmSizeTest, RoundTrip) {
  size_t n = GetParam();
  Rng rng(n + 1);
  Bytes pt = rng.NextBytes(n);
  Bytes key = rng.NextBytes(16);
  Bytes nonce = rng.NextBytes(12);
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto ct = gcm->Encrypt(nonce, {}, pt);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(ct->size(), n + kGcmTagSize);
  auto back = gcm->Decrypt(nonce, {}, *ct);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GcmSizeTest,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 32, 33, 255, 256,
                                           1000, 4096, 65537));

// NIST vectors exercising the fused-pipeline edge cases: AAD-only messages
// (the CTR/GHASH bulk loop never runs), AES-256 with empty input, and a
// partial final block with AAD (tail path + zero-padded GHASH block).

TEST(GcmTest, NistCavpAadOnly) {
  // CAVP gcmEncryptExtIV128: PTlen=0, AADlen=128, Taglen=128.
  Bytes key = HexDecode("77be63708971c4e240d1cb79e8d77feb");
  Bytes nonce = HexDecode("e0e00f19fed7ba0136a797f3");
  Bytes aad = HexDecode("7a43ec1d9c0a5a78a0b16533a6213cab");
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto ct = gcm->Encrypt(nonce, aad, {});
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(HexEncode(*ct), "209fcc8d3675ed938e9c7166709dd946");
  auto back = gcm->Decrypt(nonce, aad, *ct);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(GcmTest, SpecCase13Aes256EmptyEverything) {
  auto gcm = AesGcm::Create(Bytes(32, 0));
  ASSERT_TRUE(gcm.ok());
  auto ct = gcm->Encrypt(Bytes(12, 0), {}, {});
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(HexEncode(*ct), "530f8afbc74536b9a963b4f1c4cb738b");
}

TEST(GcmTest, SpecCase16Aes256PartialBlockWithAad) {
  Bytes key = HexDecode(
      "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
  Bytes nonce = HexDecode("cafebabefacedbaddecaf888");
  // 60-byte plaintext: the last block is partial, so both the CTR tail and
  // the zero-padded GHASH absorption are exercised.
  Bytes pt = HexDecode(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  Bytes aad = HexDecode("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto ct = gcm->Encrypt(nonce, aad, pt);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(HexEncode(*ct),
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
            "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
            "76fc6ece0f4e1768cddf8853bb2d551b");
  auto back = gcm->Decrypt(nonce, aad, *ct);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);
}

// ------------------------------------------- backend dispatch & parity
// Every known-answer vector above implicitly runs on the process-wide
// backend (hardware where available). The suites below pin each backend
// explicitly so both implementations are proven against the NIST/CAVP
// vectors and against each other, bytes-for-bytes.

struct GcmKat {
  const char* name;
  const char* key;
  const char* nonce;
  const char* aad;
  const char* plaintext;
  const char* expected;  // ciphertext || tag
};

// The spec/CAVP vectors already used individually above, gathered so the
// backend-parameterized suite replays all of them per backend.
const GcmKat kGcmKats[] = {
    {"SpecCase1", "00000000000000000000000000000000", "000000000000000000000000",
     "", "", "58e2fccefa7e3061367f1d57a4e7455a"},
    {"SpecCase2", "00000000000000000000000000000000", "000000000000000000000000",
     "", "00000000000000000000000000000000",
     "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"},
    {"SpecCase3", "feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888", "",
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
     "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
     "4d5c2af327cd64a62cf35abd2ba6fab4"},
    {"SpecCase4Aad", "feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
     "feedfacedeadbeeffeedfacedeadbeefabaddad2",
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
     "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
     "5bc94fbc3221a5db94fae95ae7121a47"},
    {"CavpAadOnly", "77be63708971c4e240d1cb79e8d77feb", "e0e00f19fed7ba0136a797f3",
     "7a43ec1d9c0a5a78a0b16533a6213cab", "", "209fcc8d3675ed938e9c7166709dd946"},
    {"SpecCase13Aes256",
     "0000000000000000000000000000000000000000000000000000000000000000",
     "000000000000000000000000", "", "", "530f8afbc74536b9a963b4f1c4cb738b"},
    {"SpecCase16Aes256",
     "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
     "cafebabefacedbaddecaf888", "feedfacedeadbeeffeedfacedeadbeefabaddad2",
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
     "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
     "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
     "76fc6ece0f4e1768cddf8853bb2d551b"},
};

class GcmBackendTest : public ::testing::TestWithParam<CryptoBackend> {
 protected:
  void SetUp() override {
    if (GetParam() == CryptoBackend::kHardware && !HardwareCryptoAvailable()) {
      GTEST_SKIP() << "AES-NI/PCLMUL not available on this machine";
    }
    if (GetParam() == CryptoBackend::kHardwareVaes && !VaesCryptoAvailable()) {
      GTEST_SKIP() << "VAES/VPCLMULQDQ/AVX-512 not available on this machine";
    }
  }
};

TEST_P(GcmBackendTest, NistCavpVectors) {
  for (const GcmKat& kat : kGcmKats) {
    Bytes key = HexDecode(kat.key);
    Bytes nonce = HexDecode(kat.nonce);
    Bytes aad = HexDecode(kat.aad);
    Bytes pt = HexDecode(kat.plaintext);
    auto gcm = AesGcm::Create(key, GetParam());
    ASSERT_TRUE(gcm.ok()) << kat.name;
    auto ct = gcm->Encrypt(nonce, aad, pt);
    ASSERT_TRUE(ct.ok()) << kat.name;
    EXPECT_EQ(HexEncode(*ct), kat.expected) << kat.name;
    auto back = gcm->Decrypt(nonce, aad, *ct);
    ASSERT_TRUE(back.ok()) << kat.name;
    EXPECT_EQ(*back, pt) << kat.name;
  }
}

TEST_P(GcmBackendTest, BackendMatchesRequest) {
  auto gcm = AesGcm::Create(Bytes(16, 0), GetParam());
  ASSERT_TRUE(gcm.ok());
  EXPECT_EQ(gcm->hardware(), GetParam() != CryptoBackend::kPortable);
  EXPECT_EQ(gcm->vaes(), GetParam() == CryptoBackend::kHardwareVaes);
}

INSTANTIATE_TEST_SUITE_P(Backends, GcmBackendTest,
                         ::testing::Values(CryptoBackend::kPortable,
                                           CryptoBackend::kHardware,
                                           CryptoBackend::kHardwareVaes),
                         [](const ::testing::TestParamInfo<CryptoBackend>& info) {
                           std::string name = ToString(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(AesBackendTest, HardwareBlocksMatchTtables) {
  if (!HardwareCryptoAvailable()) {
    GTEST_SKIP() << "AES-NI not available on this machine";
  }
  Rng rng(321);
  for (size_t key_size : {size_t{16}, size_t{32}}) {
    Bytes key = rng.NextBytes(key_size);
    auto sw = Aes::Create(key, CryptoBackend::kPortable);
    auto hw = Aes::Create(key, CryptoBackend::kHardware);
    ASSERT_TRUE(sw.ok());
    ASSERT_TRUE(hw.ok());
    EXPECT_FALSE(sw->hardware());
    EXPECT_TRUE(hw->hardware());

    for (int trial = 0; trial < 50; ++trial) {
      Bytes in = rng.NextBytes(8 * kAesBlockSize);
      uint8_t sw_out[8 * kAesBlockSize], hw_out[8 * kAesBlockSize];

      sw->EncryptBlock(in.data(), sw_out);
      hw->EncryptBlock(in.data(), hw_out);
      ASSERT_EQ(0, memcmp(sw_out, hw_out, kAesBlockSize)) << "1-block, trial " << trial;

      sw->EncryptBlocks4(in.data(), sw_out);
      hw->EncryptBlocks4(in.data(), hw_out);
      ASSERT_EQ(0, memcmp(sw_out, hw_out, 4 * kAesBlockSize))
          << "4-block, trial " << trial;

      sw->EncryptBlocks8(in.data(), sw_out);
      hw->EncryptBlocks8(in.data(), hw_out);
      ASSERT_EQ(0, memcmp(sw_out, hw_out, 8 * kAesBlockSize))
          << "8-block, trial " << trial;

      // The wide paths must equal eight independent single-block calls.
      for (int b = 0; b < 8; ++b) {
        sw->EncryptBlock(in.data() + 16 * b, sw_out + 16 * b);
      }
      ASSERT_EQ(0, memcmp(sw_out, hw_out, 8 * kAesBlockSize))
          << "8-block vs singles, trial " << trial;
    }
  }
}

TEST(GcmBackendTest2, RandomizedHardwarePortableParity) {
  if (!HardwareCryptoAvailable()) {
    GTEST_SKIP() << "AES-NI/PCLMUL not available on this machine";
  }
  // Random key/nonce/AAD/plaintext over lengths 0..4096 (biased toward the
  // batch-width boundaries): the two backends must agree bytes-for-bytes on
  // seal, and each must open the other's output.
  Rng rng(654);
  const size_t lengths[] = {0,  1,  15,  16,  17,  63,  64,   65,   127,  128,
                            129, 255, 256, 257, 1000, 2048, 4095, 4096};
  for (size_t len : lengths) {
    for (int trial = 0; trial < 3; ++trial) {
      Bytes key = rng.NextBytes(trial % 2 == 0 ? 16 : 32);
      Bytes nonce = rng.NextBytes(12);
      Bytes aad = rng.NextBytes(rng.UniformUint64(65));
      Bytes pt = rng.NextBytes(len);
      auto sw = AesGcm::Create(key, CryptoBackend::kPortable);
      auto hw = AesGcm::Create(key, CryptoBackend::kHardware);
      ASSERT_TRUE(sw.ok());
      ASSERT_TRUE(hw.ok());

      auto sw_ct = sw->Encrypt(nonce, aad, pt);
      auto hw_ct = hw->Encrypt(nonce, aad, pt);
      ASSERT_TRUE(sw_ct.ok());
      ASSERT_TRUE(hw_ct.ok());
      ASSERT_EQ(*sw_ct, *hw_ct) << "len " << len << " trial " << trial;

      // Cross-open: hw opens sw's output and vice versa.
      auto sw_open = sw->Decrypt(nonce, aad, *hw_ct);
      auto hw_open = hw->Decrypt(nonce, aad, *sw_ct);
      ASSERT_TRUE(sw_open.ok());
      ASSERT_TRUE(hw_open.ok());
      EXPECT_EQ(*sw_open, pt);
      EXPECT_EQ(*hw_open, pt);

      // Tampering must fail identically on both.
      Bytes tampered = *hw_ct;
      tampered[tampered.size() / 2] ^= 0x40;
      EXPECT_FALSE(sw->Decrypt(nonce, aad, tampered).ok());
      EXPECT_FALSE(hw->Decrypt(nonce, aad, tampered).ok());
    }
  }
}

TEST(AesBackendTest, VaesBlocks16MatchAesni) {
  if (!VaesCryptoAvailable()) {
    GTEST_SKIP() << "VAES/AVX-512 not available on this machine";
  }
  Rng rng(777);
  for (size_t key_size : {size_t{16}, size_t{32}}) {
    Bytes key = rng.NextBytes(key_size);
    auto aesni = Aes::Create(key, CryptoBackend::kHardware);
    auto vaes = Aes::Create(key, CryptoBackend::kHardwareVaes);
    ASSERT_TRUE(aesni.ok());
    ASSERT_TRUE(vaes.ok());
    EXPECT_FALSE(aesni->vaes());
    EXPECT_TRUE(vaes->vaes());
    for (int trial = 0; trial < 50; ++trial) {
      Bytes in = rng.NextBytes(16 * kAesBlockSize);
      uint8_t narrow_out[16 * kAesBlockSize], wide_out[16 * kAesBlockSize];
      aesni->EncryptBlocks16(in.data(), narrow_out);
      vaes->EncryptBlocks16(in.data(), wide_out);
      ASSERT_EQ(0, memcmp(narrow_out, wide_out, sizeof narrow_out))
          << "16-block, trial " << trial;
    }
  }
}

TEST(GcmBackendTest2, VaesMatchesAesniAndPortable) {
  if (!VaesCryptoAvailable()) {
    GTEST_SKIP() << "VAES/VPCLMULQDQ/AVX-512 not available on this machine";
  }
  // Lengths biased around the 256-byte VAES batch boundary and the 128-byte
  // AES-NI batch it falls back to, plus long streams covering several wide
  // batches. All three tiers must agree byte-for-byte and cross-open.
  Rng rng(432);
  const size_t lengths[] = {0,   1,    127,  128,  129,  255,  256,  257,
                            383, 384,  511,  512,  513,  768,  1024, 4096,
                            4097, 8191, 8192, 16384};
  for (size_t len : lengths) {
    Bytes key = rng.NextBytes(len % 2 == 0 ? 16 : 32);
    Bytes nonce = rng.NextBytes(12);
    Bytes aad = rng.NextBytes(rng.UniformUint64(129));
    Bytes pt = rng.NextBytes(len);
    auto sw = AesGcm::Create(key, CryptoBackend::kPortable);
    auto hw = AesGcm::Create(key, CryptoBackend::kHardware);
    auto wide = AesGcm::Create(key, CryptoBackend::kHardwareVaes);
    ASSERT_TRUE(sw.ok());
    ASSERT_TRUE(hw.ok());
    ASSERT_TRUE(wide.ok());

    auto sw_ct = sw->Encrypt(nonce, aad, pt);
    auto hw_ct = hw->Encrypt(nonce, aad, pt);
    auto wide_ct = wide->Encrypt(nonce, aad, pt);
    ASSERT_TRUE(sw_ct.ok());
    ASSERT_TRUE(hw_ct.ok());
    ASSERT_TRUE(wide_ct.ok());
    ASSERT_EQ(*wide_ct, *hw_ct) << "len " << len;
    ASSERT_EQ(*wide_ct, *sw_ct) << "len " << len;

    auto open_narrow = hw->Decrypt(nonce, aad, *wide_ct);
    auto open_wide = wide->Decrypt(nonce, aad, *sw_ct);
    ASSERT_TRUE(open_narrow.ok());
    ASSERT_TRUE(open_wide.ok());
    EXPECT_EQ(*open_narrow, pt);
    EXPECT_EQ(*open_wide, pt);

    Bytes tampered = *wide_ct;
    tampered[tampered.size() / 2] ^= 0x01;
    EXPECT_FALSE(wide->Decrypt(nonce, aad, tampered).ok());
  }
}

TEST(GcmTest, CounterWrapNear2To32MatchesBlockwiseReference) {
  // SP 800-38D inc32: the CTR counter wraps modulo 2^32 while the nonce
  // bytes stay fixed. Start the J0 counter at 2^32 - 3 and stream 37 blocks
  // (plus a partial tail) so the batch paths cross the wrap mid-batch on
  // every width — 16-block (VAES), 8-block (AES-NI), 4-block, and the
  // single-block tail.
  Rng rng(99);
  const size_t len = 37 * 16 + 5;
  Bytes pt = rng.NextBytes(len);

  for (size_t key_size : {size_t{16}, size_t{32}}) {
    Bytes key = rng.NextBytes(key_size);

    uint8_t j0[16];
    Bytes nonce = rng.NextBytes(12);
    memcpy(j0, nonce.data(), 12);
    j0[12] = 0xff;
    j0[13] = 0xff;
    j0[14] = 0xff;
    j0[15] = 0xfd;  // counter = 2^32 - 3; first keystream block uses 2^32 - 2

    // Blockwise reference: single-block encryptions with a hand-maintained
    // wrapping counter (independent of the batch counter arithmetic).
    auto aes = Aes::Create(key, CryptoBackend::kPortable);
    ASSERT_TRUE(aes.ok());
    Bytes expected(len);
    uint32_t ctr = 0xfffffffd;
    uint8_t block[16], ks[16];
    memcpy(block, nonce.data(), 12);
    for (size_t off = 0; off < len; off += 16) {
      ++ctr;  // wraps through 0xffffffff -> 0x00000000
      block[12] = static_cast<uint8_t>(ctr >> 24);
      block[13] = static_cast<uint8_t>(ctr >> 16);
      block[14] = static_cast<uint8_t>(ctr >> 8);
      block[15] = static_cast<uint8_t>(ctr);
      aes->EncryptBlock(block, ks);
      const size_t take = std::min<size_t>(16, len - off);
      for (size_t i = 0; i < take; ++i) expected[off + i] = pt[off + i] ^ ks[i];
    }

    std::vector<CryptoBackend> backends = {CryptoBackend::kPortable};
    if (HardwareCryptoAvailable()) backends.push_back(CryptoBackend::kHardware);
    if (VaesCryptoAvailable()) backends.push_back(CryptoBackend::kHardwareVaes);
    Bytes first_y;
    for (CryptoBackend backend : backends) {
      auto gcm = AesGcm::Create(key, backend);
      ASSERT_TRUE(gcm.ok());
      Bytes out(len);
      uint8_t y[16] = {0};
      GcmTestPeer::CtrCryptAndHash(*gcm, j0, pt, out.data(), y,
                                   /*hash_output=*/true);
      EXPECT_EQ(out, expected) << ToString(backend) << " key " << key_size;
      // GHASH accumulators must agree across backends too.
      if (first_y.empty()) {
        first_y = Bytes(y, y + 16);
      } else {
        EXPECT_EQ(Bytes(y, y + 16), first_y) << ToString(backend);
      }
    }
  }
}

TEST(GcmTest, RejectsPlaintextBeyondNistLimit) {
  if (sizeof(size_t) < 8) {
    // A 32-bit size_t cannot even represent an over-limit length (the cast
    // below would wrap under the cap and the probe would dereference the
    // dummy span for real), and no caller can construct one either.
    GTEST_SKIP() << "size_t cannot exceed the SP 800-38D cap on this platform";
  }
  auto gcm = AesGcm::Create(Bytes(16, 0));
  ASSERT_TRUE(gcm.ok());
  // The length check fires before any byte is touched, so a span with an
  // oversize length (and no real backing store) exercises it safely.
  uint8_t dummy = 0;
  uint8_t out[1];
  ByteSpan huge(&dummy, static_cast<size_t>(kGcmMaxPlaintextSize) + 1);
  Status seal = gcm->EncryptInto(Bytes(12, 0), {}, {}, huge, out);
  EXPECT_TRUE(seal.IsInvalidArgument()) << seal.ToString();

  ByteSpan huge_ct(&dummy,
                   static_cast<size_t>(kGcmMaxPlaintextSize) + 1 + kGcmTagSize);
  Status open = gcm->DecryptInto(Bytes(12, 0), {}, {}, huge_ct, out);
  EXPECT_TRUE(open.IsInvalidArgument()) << open.ToString();

  // Exactly at the limit the *length check* passes (the walk would then read
  // the span, so only the rejection path is probed here via the keyed
  // helpers' pre-allocation guard).
  EXPECT_TRUE(GcmSealParts(Bytes(16, 0), {}, {},
                           ByteSpan(&dummy, static_cast<size_t>(kGcmMaxPlaintextSize) + 1))
                  .status()
                  .IsInvalidArgument());
}

TEST(GcmTest, SplitAadMatchesConcatenatedAad) {
  // The zero-copy parts API must hash aad_a || aad_b exactly like the
  // single-span API hashes the concatenation, for every split of a length
  // that straddles block boundaries.
  Rng rng(77);
  Bytes key = rng.NextBytes(16);
  Bytes nonce = rng.NextBytes(12);
  Bytes aad = rng.NextBytes(45);
  Bytes pt = rng.NextBytes(100);
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto expect = gcm->Encrypt(nonce, aad, pt);
  ASSERT_TRUE(expect.ok());
  for (size_t split = 0; split <= aad.size(); ++split) {
    Bytes out(pt.size() + kGcmTagSize);
    ByteSpan aad_a(aad.data(), split);
    ByteSpan aad_b(aad.data() + split, aad.size() - split);
    ASSERT_TRUE(gcm->EncryptInto(nonce, aad_a, aad_b, pt, out.data()).ok());
    EXPECT_EQ(out, *expect) << "split " << split;
    Bytes plain(pt.size());
    ASSERT_TRUE(gcm->DecryptInto(nonce, aad_a, aad_b, out, plain.data()).ok());
    EXPECT_EQ(plain, pt);
  }
}

TEST(GcmTest, SealPartsInteroperatesWithSeal) {
  Bytes key(16, 3);
  Bytes payload = ToBytes("payload bytes");
  auto sealed = GcmSealParts(key, ToBytes("prefix:"), ToBytes("model-7"), payload);
  ASSERT_TRUE(sealed.ok());
  auto opened = GcmOpen(key, ToBytes("prefix:model-7"), *sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, payload);
  EXPECT_FALSE(GcmOpen(key, ToBytes("prefix:model-8"), *sealed).ok());
}

TEST(GcmTest, DecryptIntoZeroesOutputOnTagMismatch) {
  Bytes key(16, 4), nonce(12, 5);
  Bytes pt = ToBytes("super secret plaintext");
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto ct = gcm->Encrypt(nonce, {}, pt);
  ASSERT_TRUE(ct.ok());
  (*ct)[ct->size() - 1] ^= 1;  // corrupt the tag
  Bytes out(pt.size(), 0xee);
  EXPECT_FALSE(gcm->DecryptInto(nonce, {}, {}, *ct, out.data()).ok());
  EXPECT_EQ(out, Bytes(pt.size(), 0));  // never leaks unauthenticated bytes
}

// ---------------------------------------------------------------- X25519
// Vectors from RFC 7748 §5.2 and §6.1.

X25519Key KeyFromHex(std::string_view hex) {
  Bytes b = HexDecode(hex);
  X25519Key k{};
  std::copy(b.begin(), b.end(), k.begin());
  return k;
}

std::string KeyHex(const X25519Key& k) { return HexEncode(ByteSpan(k.data(), k.size())); }

// Reference ladder for the differential test: the 16×16-bit-limb TweetNaCl
// formulation (public domain) that the 51-bit-limb field arithmetic replaced.
namespace tweetnacl {
using Gf = int64_t[16];

const Gf k121665 = {0xDB41, 1};

void Carry(Gf o) {
  for (int i = 0; i < 16; ++i) {
    o[i] += (1LL << 16);
    int64_t c = o[i] >> 16;
    o[(i + 1) * (i < 15)] += c - 1 + 37 * (c - 1) * (i == 15);
    o[i] -= c << 16;
  }
}

void Swap(Gf p, Gf q, int64_t b) {
  int64_t c = ~(b - 1);
  for (int i = 0; i < 16; ++i) {
    int64_t t = c & (p[i] ^ q[i]);
    p[i] ^= t;
    q[i] ^= t;
  }
}

void Pack(uint8_t* o, const Gf n) {
  Gf t, m;
  for (int i = 0; i < 16; ++i) t[i] = n[i];
  Carry(t);
  Carry(t);
  Carry(t);
  for (int j = 0; j < 2; ++j) {
    m[0] = t[0] - 0xffed;
    for (int i = 1; i < 15; ++i) {
      m[i] = t[i] - 0xffff - ((m[i - 1] >> 16) & 1);
      m[i - 1] &= 0xffff;
    }
    m[15] = t[15] - 0x7fff - ((m[14] >> 16) & 1);
    int64_t b = (m[15] >> 16) & 1;
    m[14] &= 0xffff;
    Swap(t, m, 1 - b);
  }
  for (int i = 0; i < 16; ++i) {
    o[2 * i] = static_cast<uint8_t>(t[i] & 0xff);
    o[2 * i + 1] = static_cast<uint8_t>(t[i] >> 8);
  }
}

void Unpack(Gf o, const uint8_t* n) {
  for (int i = 0; i < 16; ++i) {
    o[i] = n[2 * i] + (static_cast<int64_t>(n[2 * i + 1]) << 8);
  }
  o[15] &= 0x7fff;
}

void Add(Gf o, const Gf a, const Gf b) {
  for (int i = 0; i < 16; ++i) o[i] = a[i] + b[i];
}

void Sub(Gf o, const Gf a, const Gf b) {
  for (int i = 0; i < 16; ++i) o[i] = a[i] - b[i];
}

void Mul(Gf o, const Gf a, const Gf b) {
  int64_t t[31];
  for (auto& v : t) v = 0;
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 16; ++j) t[i + j] += a[i] * b[j];
  }
  for (int i = 0; i < 15; ++i) t[i] += 38 * t[i + 16];
  for (int i = 0; i < 16; ++i) o[i] = t[i];
  Carry(o);
  Carry(o);
}

void Square(Gf o, const Gf a) { Mul(o, a, a); }

void Invert(Gf o, const Gf in) {
  Gf c;
  for (int i = 0; i < 16; ++i) c[i] = in[i];
  // Fermat inversion: exponent 2^255 - 21 (all ones except bits 2 and 4).
  for (int a = 253; a >= 0; --a) {
    Square(c, c);
    if (a != 2 && a != 4) Mul(c, c, in);
  }
  for (int i = 0; i < 16; ++i) o[i] = c[i];
}

X25519Key X25519(const X25519Key& scalar, const X25519Key& point) {
  uint8_t z[32];
  std::memcpy(z, scalar.data(), 32);
  z[0] &= 248;
  z[31] = (z[31] & 127) | 64;

  Gf x;
  Unpack(x, point.data());

  Gf a, b, c, d, e, f;
  for (int i = 0; i < 16; ++i) {
    b[i] = x[i];
    a[i] = c[i] = d[i] = 0;
  }
  a[0] = d[0] = 1;

  for (int i = 254; i >= 0; --i) {
    int64_t r = (z[i >> 3] >> (i & 7)) & 1;
    Swap(a, b, r);
    Swap(c, d, r);
    Add(e, a, c);
    Sub(a, a, c);
    Add(c, b, d);
    Sub(b, b, d);
    Square(d, e);
    Square(f, a);
    Mul(a, c, a);
    Mul(c, b, e);
    Add(e, a, c);
    Sub(a, a, c);
    Square(b, a);
    Sub(c, d, f);
    Mul(a, c, k121665);
    Add(a, a, d);
    Mul(c, c, a);
    Mul(a, d, f);
    Mul(d, b, x);
    Square(b, e);
    Swap(a, b, r);
    Swap(c, d, r);
  }

  Invert(c, c);
  Mul(a, a, c);
  X25519Key out;
  Pack(out.data(), a);
  return out;
}
}  // namespace tweetnacl

TEST(X25519Test, Rfc7748Vector1) {
  auto scalar = KeyFromHex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  auto point = KeyFromHex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  auto out = X25519(scalar, point);
  EXPECT_EQ(HexEncode(ByteSpan(out.data(), out.size())),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519Test, Rfc7748Vector2) {
  auto scalar = KeyFromHex(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  auto point = KeyFromHex(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  auto out = X25519(scalar, point);
  EXPECT_EQ(HexEncode(ByteSpan(out.data(), out.size())),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

// RFC 7748 §5.2: k = u = 9, then (k, u) = (X25519(k, u), k) per iteration.
TEST(X25519Test, Rfc7748IteratedVector) {
  X25519Key k = KeyFromHex("09");
  X25519Key u = k;
  for (int i = 1; i <= 1000; ++i) {
    X25519Key next = X25519(k, u);
    u = k;
    k = next;
    if (i == 1) {
      EXPECT_EQ(KeyHex(k),
                "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
    }
  }
  EXPECT_EQ(KeyHex(k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

// RFC 7748 §5: the top bit of u is masked, and a non-canonical u (in
// [p, 2^255)) is accepted and reduced mod p.
TEST(X25519Test, Rfc7748InputHandling) {
  auto scalar = KeyFromHex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  auto point = KeyFromHex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  X25519Key high = point;
  high[31] |= 0x80;
  EXPECT_EQ(KeyHex(X25519(scalar, high)), KeyHex(X25519(scalar, point)));

  X25519Key nine = KeyFromHex("09");
  X25519Key nine_plus_p = KeyFromHex(
      "f6ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  EXPECT_EQ(KeyHex(X25519(scalar, nine_plus_p)), KeyHex(X25519(scalar, nine)));
  EXPECT_EQ(KeyHex(X25519(scalar, nine)), KeyHex(X25519Base(scalar)));
}

TEST(X25519Test, Rfc7748DiffieHellman) {
  auto alice_priv = KeyFromHex(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  auto bob_priv = KeyFromHex(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  auto alice_pub = X25519Base(alice_priv);
  auto bob_pub = X25519Base(bob_priv);
  EXPECT_EQ(HexEncode(ByteSpan(alice_pub.data(), 32)),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(HexEncode(ByteSpan(bob_pub.data(), 32)),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
  auto s1 = X25519SharedSecret(alice_priv, bob_pub);
  auto s2 = X25519SharedSecret(bob_priv, alice_pub);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s1, *s2);
  EXPECT_EQ(HexEncode(*s1),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519Test, GeneratedPairsAgree) {
  for (int i = 0; i < 5; ++i) {
    auto a = GenerateX25519KeyPair();
    auto b = GenerateX25519KeyPair();
    auto s1 = X25519SharedSecret(a.private_key, b.public_key);
    auto s2 = X25519SharedSecret(b.private_key, a.public_key);
    ASSERT_TRUE(s1.ok());
    ASSERT_TRUE(s2.ok());
    EXPECT_EQ(*s1, *s2);
  }
}

// Every u-coordinate of small order: a clamped scalar is a multiple of the
// cofactor 8, so each maps to the all-zero output the contributory check
// refuses.
TEST(X25519Test, RejectsLowOrderPoint) {
  auto kp = GenerateX25519KeyPair();
  for (std::string_view u : {
           "00",                                                                // 0
           "01",                                                                // 1
           "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // p - 1
           "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // p
           "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // p + 1
           "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",  // order 8
           "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",  // order 8
       }) {
    auto r = X25519SharedSecret(kp.private_key, KeyFromHex(u));
    EXPECT_FALSE(r.ok()) << u;
  }
}

// Bit-for-bit agreement with the TweetNaCl ladder on seeded random inputs:
// a quarter of the u-coordinates are non-canonical (p + [0, 19), bit 255
// clear), a quarter have bit 255 set, and half are random 255-bit values.
TEST(X25519Test, MatchesTweetNaclReference) {
  Rng rng(0x25519);
  constexpr int kCases = 256;
  for (int i = 0; i < kCases; ++i) {
    X25519Key scalar{};
    X25519Key u{};
    Bytes s = rng.NextBytes(32);
    Bytes r = rng.NextBytes(32);
    std::copy(s.begin(), s.end(), scalar.begin());
    std::copy(r.begin(), r.end(), u.begin());
    switch (i % 4) {
      case 0:  // u = p + j, j in [0, 19)
        u.fill(0xff);
        u[0] = static_cast<uint8_t>(0xed + rng.UniformUint64(19));
        u[31] = 0x7f;
        break;
      case 1:
        u[31] |= 0x80;
        break;
      default:
        u[31] &= 0x7f;
        break;
    }
    ASSERT_EQ(KeyHex(X25519(scalar, u)), KeyHex(tweetnacl::X25519(scalar, u)))
        << "case " << i << " scalar " << KeyHex(scalar) << " u " << KeyHex(u);
  }
}

// ---------------------------------------------------------------- Random / key

TEST(RandomTest, ProducesRequestedLength) {
  EXPECT_EQ(RandomBytes(0).size(), 0u);
  EXPECT_EQ(RandomBytes(33).size(), 33u);
}

TEST(RandomTest, SuccessiveCallsDiffer) {
  EXPECT_NE(RandomBytes(32), RandomBytes(32));
}

TEST(RandomTest, DeterministicModeIsReproducible) {
  SetDeterministicRandomForTesting(true, 99);
  Bytes a = RandomBytes(48);
  SetDeterministicRandomForTesting(true, 99);
  Bytes b = RandomBytes(48);
  SetDeterministicRandomForTesting(false);
  EXPECT_EQ(a, b);
  EXPECT_NE(RandomBytes(48), a);
}

TEST(KeyTest, DeriveIdentityIsStableAndDistinct) {
  Bytes k1 = ToBytes("owner long term key");
  Bytes k2 = ToBytes("user long term key");
  EXPECT_EQ(DeriveIdentity(k1), DeriveIdentity(k1));
  EXPECT_NE(DeriveIdentity(k1), DeriveIdentity(k2));
  EXPECT_EQ(DeriveIdentity(k1).size(), 64u);  // hex of 32 bytes
}

}  // namespace
}  // namespace sesemi::crypto
