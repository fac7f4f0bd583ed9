#include "common/bytes.h"

namespace sesemi {

Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string ToString(ByteSpan b) {
  return std::string(b.begin(), b.end());
}

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string HexEncode(ByteSpan b) {
  std::string out;
  out.reserve(b.size() * 2);
  for (uint8_t byte : b) {
    out.push_back(kHexDigits[byte >> 4]);
    out.push_back(kHexDigits[byte & 0xf]);
  }
  return out;
}

bool IsHex(std::string_view hex) {
  if (hex.size() % 2 != 0) return false;
  for (char c : hex) {
    if (HexValue(c) < 0) return false;
  }
  return true;
}

Bytes HexDecode(std::string_view hex) {
  if (!IsHex(hex)) return {};
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>((HexValue(hex[i]) << 4) | HexValue(hex[i + 1])));
  }
  return out;
}

void Append(Bytes* dst, ByteSpan src) {
  dst->insert(dst->end(), src.begin(), src.end());
}

Bytes Concat(std::initializer_list<ByteSpan> parts) {
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  Bytes out;
  out.reserve(total);
  for (const auto& p : parts) Append(&out, p);
  return out;
}

bool ConstantTimeEqual(ByteSpan a, ByteSpan b) {
  // Fold the length difference into the accumulator instead of early-exiting.
  size_t n = a.size() > b.size() ? a.size() : b.size();
  uint8_t acc = static_cast<uint8_t>(a.size() != b.size());
  for (size_t i = 0; i < n; ++i) {
    uint8_t x = i < a.size() ? a[i] : 0;
    uint8_t y = i < b.size() ? b[i] : 0;
    acc |= static_cast<uint8_t>(x ^ y);
  }
  return acc == 0;
}

void PutUint32BE(Bytes* dst, uint32_t v) {
  dst->push_back(static_cast<uint8_t>(v >> 24));
  dst->push_back(static_cast<uint8_t>(v >> 16));
  dst->push_back(static_cast<uint8_t>(v >> 8));
  dst->push_back(static_cast<uint8_t>(v));
}

void PutUint64BE(Bytes* dst, uint64_t v) {
  PutUint32BE(dst, static_cast<uint32_t>(v >> 32));
  PutUint32BE(dst, static_cast<uint32_t>(v));
}

uint32_t GetUint32BE(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

uint64_t GetUint64BE(const uint8_t* p) {
  return (static_cast<uint64_t>(GetUint32BE(p)) << 32) | GetUint32BE(p + 4);
}

bool ByteReader::ReadUint8(uint8_t* out) {
  if (remaining() < 1) return false;
  *out = data_[pos_++];
  return true;
}

bool ByteReader::ReadUint32(uint32_t* out) {
  if (remaining() < 4) return false;
  *out = GetUint32BE(data_.data() + pos_);
  pos_ += 4;
  return true;
}

bool ByteReader::ReadUint64(uint64_t* out) {
  if (remaining() < 8) return false;
  *out = GetUint64BE(data_.data() + pos_);
  pos_ += 8;
  return true;
}

bool ByteReader::ReadBytes(size_t n, Bytes* out) {
  if (remaining() < n) return false;
  out->assign(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return true;
}

bool ByteReader::ReadInto(void* dst, size_t n) {
  if (remaining() < n) return false;
  if (n != 0) std::memcpy(dst, data_.data() + pos_, n);
  pos_ += n;
  return true;
}

bool ByteReader::ReadLengthPrefixed(Bytes* out) {
  uint32_t len = 0;
  size_t saved = pos_;
  if (!ReadUint32(&len) || remaining() < len) {
    pos_ = saved;
    return false;
  }
  return ReadBytes(len, out);
}

bool ByteReader::ReadLengthPrefixedString(std::string* out) {
  Bytes tmp;
  if (!ReadLengthPrefixed(&tmp)) return false;
  out->assign(tmp.begin(), tmp.end());
  return true;
}

}  // namespace sesemi
