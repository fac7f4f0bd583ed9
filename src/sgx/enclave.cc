#include "sgx/enclave.h"

#include "common/faultpoint.h"
#include "crypto/hmac.h"
#include "sgx/platform.h"

namespace sesemi::sgx {

TcsGuard::~TcsGuard() {
  if (enclave_ != nullptr) enclave_->ExitEcall();
}

Enclave::Enclave(EnclaveImage image, SgxPlatform* platform, uint64_t committed_bytes)
    : image_(std::move(image)), platform_(platform), committed_bytes_(committed_bytes) {}

Enclave::~Enclave() {
  platform_->OnEnclaveDestroyed(committed_bytes_);
}

TcsGuard Enclave::EnterEcall() {
  std::unique_lock<std::mutex> lock(tcs_mutex_);
  tcs_cv_.wait(lock, [&] {
    return tcs_in_use_ < static_cast<int>(image_.config().num_tcs);
  });
  ++tcs_in_use_;
  ecall_count_.fetch_add(1);
  return TcsGuard(this);
}

Result<TcsGuard> Enclave::TryEnterEcall() {
  std::lock_guard<std::mutex> lock(tcs_mutex_);
  if (tcs_in_use_ >= static_cast<int>(image_.config().num_tcs)) {
    return Status::ResourceExhausted("out of TCS");
  }
  ++tcs_in_use_;
  ecall_count_.fetch_add(1);
  return TcsGuard(this);
}

void Enclave::ExitEcall() {
  {
    std::lock_guard<std::mutex> lock(tcs_mutex_);
    --tcs_in_use_;
  }
  tcs_cv_.notify_one();
}

int Enclave::busy_tcs() const {
  std::lock_guard<std::mutex> lock(tcs_mutex_);
  return tcs_in_use_;
}

Status Enclave::AllocateTrusted(uint64_t bytes) {
  SESEMI_FAULT_POINT(faults::kEnclaveHeapAlloc);
  uint64_t used = heap_used_.fetch_add(bytes) + bytes;
  if (used > image_.config().heap_size_bytes) {
    heap_used_.fetch_sub(bytes);
    return Status::ResourceExhausted("enclave heap exhausted");
  }
  // Racy max update is fine: peak is a monotone statistic.
  uint64_t peak = heap_peak_.load();
  while (used > peak && !heap_peak_.compare_exchange_weak(peak, used)) {
  }
  return Status::OK();
}

void Enclave::FreeTrusted(uint64_t bytes) {
  uint64_t used = heap_used_.load();
  uint64_t clamped = bytes > used ? used : bytes;
  heap_used_.fetch_sub(clamped);
}

AttestationReport Enclave::CreateReport(ByteSpan data) const {
  AttestationReport report;
  report.mrenclave = image_.mrenclave();
  report.generation = platform_->generation();
  report.platform_id = platform_->platform_id();
  if (data.size() <= kReportDataSize) {
    std::copy(data.begin(), data.end(), report.report_data.begin());
  } else {
    Bytes digest = crypto::Sha256::HashToBytes(data);
    std::copy(digest.begin(), digest.end(), report.report_data.begin());
  }
  report.mac = crypto::HmacSha256ToBytes(platform_->platform_key(),
                                         report.SerializeForMac());
  return report;
}

}  // namespace sesemi::sgx
