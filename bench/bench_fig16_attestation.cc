// Reproduces Appendix C Figure 16: remote attestation latency versus the
// number of enclaves generating quotes concurrently — ECDSA/DCAP on SGX2 vs
// EPID/IAS on SGX1 — plus a live measurement of this repo's full RA-TLS
// mutual handshake.

#include <chrono>

#include "bench/bench_common.h"
#include "ratls/handshake.h"

namespace sesemi::bench {
namespace {

void CalibratedSection() {
  PrintSection("Calibrated attestation latency (s); size-independent per the paper");
  std::printf("%-12s %18s %18s\n", "#enclaves", "SGX2-ECDSA (16/128MB)",
              "SGX1-EPID (16/128MB)");
  sim::CostModel sgx2 = sim::CostModel::PaperSgx2();
  sim::CostModel sgx1 = sim::CostModel::PaperSgx1();
  for (int n : {1, 2, 4, 8, 16}) {
    std::printf("%-12d %18.2f %18.2f\n", n, sgx2.AttestationSeconds(n),
                sgx1.AttestationSeconds(n));
  }
}

void MeasuredSection() {
  PrintSection("Measured: full RA-TLS mutual handshake on the functional simulator");
  sgx::AttestationAuthority authority;
  sgx::SgxPlatform platform(sgx::SgxGeneration::kSgx2, &authority);
  sgx::EnclaveConfig config;
  config.num_tcs = 4;
  sgx::EnclaveImage server_image("server", {{"c", ToBytes("ks")}}, config);
  sgx::EnclaveImage client_image("client", {{"c", ToBytes("rt")}}, config);
  auto server = platform.CreateEnclave(server_image);
  auto client = platform.CreateEnclave(client_image);
  if (!server.ok() || !client.ok()) return;

  const int kIters = 50;
  auto t0 = std::chrono::steady_clock::now();
  int ok = 0;
  for (int i = 0; i < kIters; ++i) {
    ratls::RatlsInitiator initiator(&authority, client->get());
    auto hello = initiator.Start();
    if (!hello.ok()) continue;
    ratls::RatlsAcceptor acceptor(server->get());
    auto accepted = acceptor.Accept(*hello, /*require_peer_quote=*/true);
    if (!accepted.ok()) continue;
    auto session = initiator.Finish(accepted->hello, (*server)->mrenclave());
    ok += session.ok();
  }
  double elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - t0).count();
  std::printf("%d/%d mutual handshakes in %.3f s (%.2f ms each: X25519 x4 + "
              "quote gen/verify x2 + HKDF)\n",
              ok, kIters, elapsed, 1000 * elapsed / kIters);
  std::printf("(the simulated quote is an HMAC, so this live handshake carries no\n"
              " DCAP or IAS cost and costs well under a millisecond, mostly the four\n"
              " X25519 scalar multiplications; the calibrated rows above carry the\n"
              " paper's attestation cost)\n");
}

}  // namespace
}  // namespace sesemi::bench

int main() {
  sesemi::bench::PrintHeader("Figure 16 — remote attestation overhead");
  sesemi::bench::CalibratedSection();
  sesemi::bench::MeasuredSection();
  std::printf("\n(paper: ECDSA <0.1 s solo rising to ~1 s at 16 concurrent quotes;\n"
              " EPID ~2-4 s — it must round-trip to the Intel Attestation Service)\n");
  return 0;
}
