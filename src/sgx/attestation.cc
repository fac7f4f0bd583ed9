#include "sgx/attestation.h"

#include "crypto/hmac.h"
#include "crypto/random.h"

namespace sesemi::sgx {

const char* ToString(SgxGeneration gen) {
  return gen == SgxGeneration::kSgx1 ? "SGX1" : "SGX2";
}

Bytes AttestationReport::SerializeForMac() const {
  ByteWriter w;
  w.WriteBytes(mrenclave.span());
  w.WriteUint8(generation == SgxGeneration::kSgx1 ? 1 : 2);
  w.WriteUint64(platform_id);
  w.WriteBytes(ByteSpan(report_data.data(), report_data.size()));
  return std::move(w).Take();
}

Bytes AttestationReport::Serialize() const {
  ByteWriter w;
  w.WriteBytes(SerializeForMac());
  w.WriteLengthPrefixed(mac);
  return std::move(w).Take();
}

Result<AttestationReport> AttestationReport::Parse(ByteSpan wire) {
  ByteReader r(wire);
  AttestationReport report;
  Bytes mr;
  uint8_t gen = 0;
  if (!r.ReadBytes(Measurement::kSize, &mr) || !r.ReadUint8(&gen) ||
      !r.ReadUint64(&report.platform_id)) {
    return Status::Corruption("truncated attestation report");
  }
  crypto::Sha256Digest digest;
  std::copy(mr.begin(), mr.end(), digest.begin());
  report.mrenclave = Measurement(digest);
  if (gen != 1 && gen != 2) return Status::Corruption("bad SGX generation");
  report.generation = gen == 1 ? SgxGeneration::kSgx1 : SgxGeneration::kSgx2;
  Bytes rd;
  if (!r.ReadBytes(kReportDataSize, &rd) || !r.ReadLengthPrefixed(&report.mac)) {
    return Status::Corruption("truncated attestation report");
  }
  std::copy(rd.begin(), rd.end(), report.report_data.begin());
  return report;
}

Bytes Quote::Serialize() const {
  ByteWriter w;
  w.WriteUint8(type == AttestationType::kEpid ? 1 : 2);
  w.WriteLengthPrefixed(report.Serialize());
  w.WriteLengthPrefixed(signature);
  return std::move(w).Take();
}

Result<Quote> Quote::Parse(ByteSpan wire) {
  ByteReader r(wire);
  Quote q;
  uint8_t type = 0;
  Bytes report_wire;
  if (!r.ReadUint8(&type) || !r.ReadLengthPrefixed(&report_wire) ||
      !r.ReadLengthPrefixed(&q.signature)) {
    return Status::Corruption("truncated quote");
  }
  if (type != 1 && type != 2) return Status::Corruption("bad attestation type");
  q.type = type == 1 ? AttestationType::kEpid : AttestationType::kEcdsa;
  SESEMI_ASSIGN_OR_RETURN(q.report, AttestationReport::Parse(report_wire));
  return q;
}

AttestationAuthority::AttestationAuthority()
    : signing_key_(crypto::RandomBytes(32)) {}

uint64_t AttestationAuthority::RegisterPlatform(SgxGeneration generation) {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t id = next_platform_id_++;
  platforms_[id] = {generation, crypto::RandomBytes(32)};
  return id;
}

Result<Bytes> AttestationAuthority::PlatformKey(uint64_t platform_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = platforms_.find(platform_id);
  if (it == platforms_.end()) return Status::NotFound("unknown SGX platform");
  return it->second.second;
}

Result<Quote> AttestationAuthority::GenerateQuote(
    const AttestationReport& report) const {
  Bytes platform_key;
  SgxGeneration generation;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = platforms_.find(report.platform_id);
    if (it == platforms_.end()) return Status::NotFound("unknown SGX platform");
    generation = it->second.first;
    platform_key = it->second.second;
  }
  if (generation != report.generation) {
    return Status::Unauthenticated("report generation does not match platform");
  }
  if (!crypto::VerifyHmacSha256(platform_key, report.SerializeForMac(), report.mac)) {
    return Status::Unauthenticated("report MAC invalid");
  }
  Quote q;
  q.report = report;
  q.type = generation == SgxGeneration::kSgx1 ? AttestationType::kEpid
                                              : AttestationType::kEcdsa;
  Bytes to_sign = report.SerializeForMac();
  to_sign.push_back(q.type == AttestationType::kEpid ? 1 : 2);
  q.signature = crypto::HmacSha256ToBytes(signing_key_, to_sign);
  return q;
}

Result<AttestationReport> AttestationAuthority::VerifyQuote(const Quote& quote) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = platforms_.find(quote.report.platform_id);
    if (it == platforms_.end()) return Status::Unauthenticated("unknown platform in quote");
    if (it->second.first != quote.report.generation) {
      return Status::Unauthenticated("quote generation mismatch");
    }
  }
  Bytes to_sign = quote.report.SerializeForMac();
  to_sign.push_back(quote.type == AttestationType::kEpid ? 1 : 2);
  Bytes expect = crypto::HmacSha256ToBytes(signing_key_, to_sign);
  if (!ConstantTimeEqual(expect, quote.signature)) {
    return Status::Unauthenticated("quote signature invalid");
  }
  return quote.report;
}

}  // namespace sesemi::sgx
