// Reproduces Appendix G Figure 17: absolute per-stage execution time for one
// request WITH SGX (enclave init, key fetch, model load, runtime init,
// execution), all six combos. Calibrated values + live measurements read
// from the obs tracer's per-stage span rollup.

#include "bench/bench_common.h"

namespace sesemi::bench {
namespace {

void CalibratedSection() {
  PrintSection("Calibrated (paper SGX2 measurements, seconds)");
  std::printf("%-12s %12s %10s %10s %10s %10s\n", "", "EnclaveInit", "KeyFetch",
              "ModelLoad", "RtInit", "Execute");
  sim::CostModel cm = sim::CostModel::PaperSgx2();
  for (const Combo& combo : AllCombos()) {
    const auto& p = cm.profile(combo.framework, combo.arch);
    std::printf("%-12s %12.4f %10.4f %10.5f %10.5f %10.4f\n", combo.label,
                p.enclave_init_s, p.key_fetch_s, p.model_load_s, p.runtime_init_s,
                p.execute_s);
  }
}

void MeasuredSection() {
  PrintSection("Measured (this repo, live pipeline, scaled models, seconds)");
  std::printf("%-12s %12s %10s %10s %10s %10s\n", "", "EnclaveInit", "KeyFetch",
              "ModelLoad", "RtInit", "Execute");
  LiveRig rig(0.02);
  for (const Combo& combo : AllCombos()) {
    rig.DeployModel(combo.arch);
    semirt::SemirtOptions options;
    options.framework = combo.framework;
    rig.Authorize(combo.arch, options);
    // One rollup per combo: the tracer's stage spans ARE the measurement.
    obs::Tracer::Reset();
    obs::Tracer::Enable();
    auto instance = rig.MakeInstance(options);
    auto t = instance != nullptr
                 ? rig.TimedRequest(instance.get(), combo.arch, options)
                 : Result<semirt::StageTimings>(Status::Internal("no instance"));
    obs::Tracer::Disable();
    if (!t.ok()) continue;
    const auto rollup = obs::Tracer::Rollup();
    std::printf("%-12s %12.4f %10.4f %10.5f %10.5f %10.4f\n", combo.label,
                StageMeanSeconds(rollup, obs::spans::kEnclaveInit),
                StageMeanSeconds(rollup, obs::spans::kKeyFetch),
                StageMeanSeconds(rollup, obs::spans::kModelLoad),
                StageMeanSeconds(rollup, obs::spans::kRuntimeInit),
                StageMeanSeconds(rollup, obs::spans::kInference));
  }
  std::printf("(shape check: calibrated key fetch carries the paper's DCAP attestation\n"
              " and dominates non-execution cost, and calibrated TVM runtime init >>\n"
              " TFLM runtime init; the live handshake has no quote cost, so live key\n"
              " fetch sits below model load; RSNET loads slowest in both)\n");
}

}  // namespace
}  // namespace sesemi::bench

int main() {
  sesemi::bench::PrintHeader("Figure 17 — execution time breakdown WITH SGX");
  sesemi::bench::CalibratedSection();
  sesemi::bench::MeasuredSection();
  return 0;
}
