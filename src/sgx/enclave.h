#ifndef SESEMI_SGX_ENCLAVE_H_
#define SESEMI_SGX_ENCLAVE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "common/result.h"
#include "sgx/attestation.h"
#include "sgx/measurement.h"

namespace sesemi::sgx {

class SgxPlatform;
class Enclave;

/// RAII handle for a Thread Control Structure slot. A thread must hold one
/// while executing trusted code; the pool bounds in-enclave concurrency to
/// the number of TCS baked into the image (paper §II-A, §IV-B).
class TcsGuard {
 public:
  TcsGuard() : enclave_(nullptr) {}
  TcsGuard(TcsGuard&& other) noexcept : enclave_(other.enclave_) {
    other.enclave_ = nullptr;
  }
  TcsGuard(const TcsGuard&) = delete;
  TcsGuard& operator=(const TcsGuard&) = delete;
  ~TcsGuard();

  bool held() const { return enclave_ != nullptr; }

 private:
  friend class Enclave;
  explicit TcsGuard(Enclave* enclave) : enclave_(enclave) {}
  Enclave* enclave_;
};

/// A launched enclave instance on a simulated SGX platform.
///
/// Provides the hardware-ish contract trusted application code builds on:
///  - TCS-bounded entry (EnterEcall / TryEnterEcall)
///  - trusted-heap accounting against the image's heap budget, with peak
///    tracking (feeds the Figure 10 memory-saving measurements)
///  - report generation bound to this platform (EREPORT analogue)
///  - ECALL/OCALL boundary counters for overhead analysis
///
/// The trusted application logic itself (KeyService, SeMIRT) lives in the
/// respective modules and charges its memory here.
class Enclave {
 public:
  ~Enclave();
  Enclave(const Enclave&) = delete;
  Enclave& operator=(const Enclave&) = delete;

  const EnclaveImage& image() const { return image_; }
  const Measurement& mrenclave() const { return image_.mrenclave(); }
  SgxPlatform* platform() const { return platform_; }

  /// Block until a TCS slot is free, then enter. Counts one ECALL.
  TcsGuard EnterEcall();

  /// Non-blocking entry; fails with ResourceExhausted when all TCS are busy
  /// (SGX_ERROR_OUT_OF_TCS in the SDK).
  Result<TcsGuard> TryEnterEcall();

  /// Charge `bytes` of trusted heap. Fails with ResourceExhausted when the
  /// allocation would exceed the image's heap budget (enclave OOM).
  Status AllocateTrusted(uint64_t bytes);

  /// Return trusted heap bytes.
  void FreeTrusted(uint64_t bytes);

  /// Current / peak trusted heap usage in bytes.
  uint64_t heap_used() const { return heap_used_.load(); }
  uint64_t heap_peak() const { return heap_peak_.load(); }

  /// Total committed enclave memory (code + full heap budget), i.e. what the
  /// EPC pays for this enclave.
  uint64_t committed_bytes() const { return committed_bytes_; }

  /// Produce a report with `data` bound into it. `data` may be shorter than
  /// kReportDataSize; it is zero-padded (longer inputs are hashed first).
  AttestationReport CreateReport(ByteSpan data) const;

  /// Record an OCALL made by trusted code.
  void RecordOcall() { ocall_count_.fetch_add(1); }

  uint64_t ecall_count() const { return ecall_count_.load(); }
  uint64_t ocall_count() const { return ocall_count_.load(); }
  int busy_tcs() const;

 private:
  friend class SgxPlatform;
  friend class TcsGuard;
  Enclave(EnclaveImage image, SgxPlatform* platform, uint64_t committed_bytes);

  void ExitEcall();

  EnclaveImage image_;
  SgxPlatform* platform_;
  uint64_t committed_bytes_;

  mutable std::mutex tcs_mutex_;
  std::condition_variable tcs_cv_;
  int tcs_in_use_ = 0;

  std::atomic<uint64_t> heap_used_{0};
  std::atomic<uint64_t> heap_peak_{0};
  std::atomic<uint64_t> ecall_count_{0};
  std::atomic<uint64_t> ocall_count_{0};
};

}  // namespace sesemi::sgx

#endif  // SESEMI_SGX_ENCLAVE_H_
