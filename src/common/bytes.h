#ifndef SESEMI_COMMON_BYTES_H_
#define SESEMI_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sesemi {

/// Owned byte buffer used across module boundaries for keys, ciphertexts,
/// serialized models, and wire messages.
using Bytes = std::vector<uint8_t>;
/// Non-owning view over bytes.
using ByteSpan = std::span<const uint8_t>;

/// Copy a string's bytes into a Bytes buffer.
Bytes ToBytes(std::string_view s);

/// Zero-copy view of a string's bytes (the string must outlive the span).
inline ByteSpan SpanOf(std::string_view s) {
  return ByteSpan(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

/// Interpret a byte buffer as a std::string (no encoding applied).
std::string ToString(ByteSpan b);

/// Lower-case hex encoding ("deadbeef").
std::string HexEncode(ByteSpan b);

/// Parse lower/upper-case hex. Returns empty vector on malformed input of odd
/// length or non-hex characters (callers that care use HexDecodeStrict).
Bytes HexDecode(std::string_view hex);

/// True iff `hex` is well-formed even-length hex.
bool IsHex(std::string_view hex);

/// Append `src` to `dst`.
void Append(Bytes* dst, ByteSpan src);

/// Concatenate any number of byte spans.
Bytes Concat(std::initializer_list<ByteSpan> parts);

/// Constant-time equality: runtime independent of where buffers differ.
/// Always scans max(len_a, len_b) bytes.
bool ConstantTimeEqual(ByteSpan a, ByteSpan b);

/// Serialize a uint32/uint64 big-endian (network order) into/out of buffers.
void PutUint32BE(Bytes* dst, uint32_t v);
void PutUint64BE(Bytes* dst, uint64_t v);
uint32_t GetUint32BE(const uint8_t* p);
uint64_t GetUint64BE(const uint8_t* p);

/// A simple cursor for parsing length-prefixed wire formats. All getters
/// return false (and leave outputs untouched) on underflow.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

  bool ReadUint8(uint8_t* out);
  bool ReadUint32(uint32_t* out);
  bool ReadUint64(uint64_t* out);
  /// Read exactly `n` raw bytes.
  bool ReadBytes(size_t n, Bytes* out);
  /// Copy exactly `n` raw bytes into `dst`, a caller-owned buffer of at least
  /// `n` bytes. Nothing is copied unless `n` bytes remain.
  bool ReadInto(void* dst, size_t n);
  /// Read a uint32-length-prefixed byte string.
  bool ReadLengthPrefixed(Bytes* out);
  /// Read a uint32-length-prefixed string.
  bool ReadLengthPrefixedString(std::string* out);

 private:
  ByteSpan data_;
  size_t pos_ = 0;
};

/// Builder counterpart of ByteReader.
class ByteWriter {
 public:
  /// Pre-size the buffer so a known message layout serializes with a single
  /// allocation and no growth copies.
  void Reserve(size_t bytes) { buf_.reserve(buf_.size() + bytes); }

  void WriteUint8(uint8_t v) { buf_.push_back(v); }
  void WriteUint32(uint32_t v) { PutUint32BE(&buf_, v); }
  void WriteUint64(uint64_t v) { PutUint64BE(&buf_, v); }
  void WriteBytes(ByteSpan b) { Append(&buf_, b); }
  void WriteLengthPrefixed(ByteSpan b) {
    WriteUint32(static_cast<uint32_t>(b.size()));
    WriteBytes(b);
  }
  void WriteLengthPrefixedString(std::string_view s) {
    WriteUint32(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  const Bytes& bytes() const& { return buf_; }
  Bytes Take() && { return std::move(buf_); }

 private:
  Bytes buf_;
};

}  // namespace sesemi

#endif  // SESEMI_COMMON_BYTES_H_
