// Ablation study over SeSeMI's design choices, isolating each cache the
// SeMIRT runtime adds on top of the Iso-reuse baseline and FnPacker's
// exclusivity timeout:
//
//   A1  key cache + persistent KeyService channel  (vs refetch per request)
//   A2  decrypted-model cache                      (vs reload per request)
//   A3  thread-local runtime reuse                 (vs reinit per request)
//   A4  FnPacker exclusive-idle timeout sweep      (packing vs thrashing)
//
// A1-A3 run on the live pipeline; A4 on the calibrated simulator.

#include "bench/bench_common.h"
#include "bench/bench_fnpacker_common.h"

namespace sesemi::bench {
namespace {

double SteadyStateMs(LiveRig& rig, const semirt::SemirtOptions& options,
                     model::Architecture arch) {
  auto instance = rig.MakeInstance(options);
  if (instance == nullptr) return -1;
  (void)rig.TimedRequest(instance.get(), arch, options);  // excluded warmup
  const int kIters = 10;
  double total = 0;
  for (int i = 0; i < kIters; ++i) {
    auto t = rig.TimedRequest(instance.get(), arch, options, i + 2);
    if (!t.ok()) return -1;
    total += MicrosToSeconds(t->total);
  }
  return 1000 * total / kIters;
}

void CacheAblation() {
  PrintSection("A1-A3: steady-state latency (ms) as each reuse layer is removed");
  LiveRig rig(0.02);
  const model::Architecture arch = model::Architecture::kRsNet;
  rig.DeployModel(arch);

  // Full SeSeMI.
  semirt::SemirtOptions full;
  full.framework = inference::FrameworkKind::kTvm;
  rig.Authorize(arch, full);
  double full_ms = SteadyStateMs(rig, full, arch);

  // - key cache (keys refetched over the warm channel each request).
  semirt::SemirtOptions no_keys = full;
  no_keys.disable_key_cache = true;
  rig.Authorize(arch, no_keys);
  double no_keys_ms = SteadyStateMs(rig, no_keys, arch);

  // - model & runtime reuse (Iso-reuse keeps only enclave + keys).
  semirt::SemirtOptions iso = full;
  iso.mode = semirt::RuntimeMode::kIsoReuse;
  rig.Authorize(arch, iso);
  double iso_ms = SteadyStateMs(rig, iso, arch);

  // - everything (fresh enclave per request).
  semirt::SemirtOptions native = full;
  native.mode = semirt::RuntimeMode::kNative;
  rig.Authorize(arch, native);
  double native_ms = SteadyStateMs(rig, native, arch);

  std::printf("%-44s %10.2f\n", "SeSeMI (key+model+runtime cached)", full_ms);
  std::printf("%-44s %10.2f\n", "  - key cache (refetch via warm channel)", no_keys_ms);
  std::printf("%-44s %10.2f\n", "  - model/runtime reuse (= Iso-reuse)", iso_ms);
  std::printf("%-44s %10.2f\n", "  - enclave reuse (= Native)", native_ms);
  std::printf("(each layer compounds; the model/runtime caches dominate for\n"
              " large models, the enclave+attestation reuse dominates overall)\n");
}

void TimeoutAblation() {
  PrintSection("A4: FnPacker exclusive-idle timeout (Poisson avg ms, Table III rig)");
  std::printf("%-14s %14s %14s %10s\n", "timeout (s)", "poisson avg", "switches",
              "overflow");
  for (double timeout_s : {1.0, 5.0, 30.0, 120.0}) {
    fnpacker::FnPoolSpec pool;
    pool.models = FnPackerModels();
    pool.num_endpoints = 4;
    pool.exclusive_idle_timeout = SecondsToMicros(timeout_s);
    fnpacker::FnPackerRouter router(pool);
    FnPackerRun run = RunWithRouter(&router);
    std::printf("%-14.0f %14.2f %14llu %10llu\n", timeout_s, run.poisson_avg_ms,
                static_cast<unsigned long long>(
                    router.counters().model_switches.Value()),
                static_cast<unsigned long long>(router.counters().overflow.Value()));
  }
  std::printf("(too-short timeouts let cold models steal hot endpoints — more\n"
              " switches; too-long timeouts under-utilize idle endpoints)\n");
}

}  // namespace
}  // namespace sesemi::bench

int main() {
  sesemi::bench::PrintHeader("Ablation — SeMIRT reuse layers & FnPacker timeout");
  sesemi::bench::CacheAblation();
  sesemi::bench::TimeoutAblation();
  return 0;
}
