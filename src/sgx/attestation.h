#ifndef SESEMI_SGX_ATTESTATION_H_
#define SESEMI_SGX_ATTESTATION_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "common/bytes.h"
#include "common/result.h"
#include "sgx/measurement.h"

namespace sesemi::sgx {

/// SGX hardware generation. SGX1 (client parts, 128 MB EPC, EPID attestation
/// via the Intel Attestation Service) vs. SGX2 (Xeon scalable, large EPC,
/// ECDSA/DCAP attestation with a local PCCS cache) — the two hardware
/// configurations the paper evaluates.
enum class SgxGeneration { kSgx1, kSgx2 };

/// Attestation scheme; in the paper SGX1 uses EPID (round trip to Intel over
/// the internet) and SGX2 uses ECDSA/DCAP (local quoting with cached
/// collateral), which is why their costs differ (Appendix Figure 16).
enum class AttestationType { kEpid, kEcdsa };

const char* ToString(SgxGeneration gen);

/// Size of the user-data field bound into a report (SGX uses 64 bytes; we
/// store a SHA-256 of the channel key plus 32 spare bytes, like RA-TLS).
constexpr size_t kReportDataSize = 64;
using ReportData = std::array<uint8_t, kReportDataSize>;

/// A local attestation report: produced by an enclave (EREPORT analogue),
/// MAC'd with a platform key so only the platform's quoting infrastructure
/// can vouch for it.
struct AttestationReport {
  Measurement mrenclave;
  SgxGeneration generation = SgxGeneration::kSgx2;
  uint64_t platform_id = 0;
  ReportData report_data{};
  Bytes mac;

  Bytes SerializeForMac() const;
  Bytes Serialize() const;
  static Result<AttestationReport> Parse(ByteSpan wire);
};

/// A remotely verifiable quote: a report counter-signed by the attestation
/// authority's provisioned key (Intel's role).
struct Quote {
  AttestationReport report;
  AttestationType type = AttestationType::kEcdsa;
  Bytes signature;

  Bytes Serialize() const;
  static Result<Quote> Parse(ByteSpan wire);
};

/// Simulated Intel: provisions per-platform keys at platform registration,
/// turns valid reports into quotes, and verifies quotes for relying parties
/// (standing in for IAS verification / DCAP collateral checks).
///
/// One process-wide authority instance is shared by every simulated platform
/// in a cluster, mirroring how all real SGX machines chain to Intel roots.
class AttestationAuthority {
 public:
  AttestationAuthority();

  /// Provision a new platform; returns its id. The platform key never leaves
  /// the authority + platform pair (the enclave MACs reports with it).
  uint64_t RegisterPlatform(SgxGeneration generation);

  /// The provisioned MAC key for `platform_id` (used by SgxPlatform when its
  /// enclaves produce reports). Fails for unknown platforms.
  Result<Bytes> PlatformKey(uint64_t platform_id) const;

  /// Validate the report MAC and wrap the report in a signed quote.
  Result<Quote> GenerateQuote(const AttestationReport& report) const;

  /// Verify a quote end-to-end: platform known, MAC valid, signature valid,
  /// generation consistent. Returns the embedded report on success.
  Result<AttestationReport> VerifyQuote(const Quote& quote) const;

 private:
  Bytes signing_key_;  // authority root (HMAC key in this simulation)
  mutable std::mutex mutex_;
  std::unordered_map<uint64_t, std::pair<SgxGeneration, Bytes>> platforms_;
  uint64_t next_platform_id_ = 1;
};

}  // namespace sesemi::sgx

#endif  // SESEMI_SGX_ATTESTATION_H_
