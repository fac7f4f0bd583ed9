// Reproduces Figure 8: the fraction of cold-invocation latency spent in each
// serving stage (enclave init, first key fetch, model load, runtime init,
// model execution) for all six framework-model combos.
//
// Calibrated section uses the SGX2 cost model (= the paper's Figure 17
// measurements); the measured section runs this repo's real pipeline on
// scaled models and prints the same ratios.

#include "bench/bench_common.h"

namespace sesemi::bench {
namespace {

void PrintRatios(const char* label, double init, double key, double load,
                 double rt_init, double exec) {
  double total = init + key + load + rt_init + exec;
  std::printf("%-12s %9.1f%% %9.1f%% %9.1f%% %9.1f%% %9.1f%%   (cold total %.3fs)\n",
              label, 100 * init / total, 100 * key / total, 100 * load / total,
              100 * rt_init / total, 100 * exec / total, total);
}

void CalibratedSection() {
  PrintSection("Calibrated (paper SGX2 measurements)");
  std::printf("%-12s %10s %10s %10s %10s %10s\n", "", "EnclaveIni", "KeyFetch",
              "ModelLoad", "RtInit", "Execute");
  sim::CostModel cm = sim::CostModel::PaperSgx2();
  for (const Combo& combo : AllCombos()) {
    const auto& p = cm.profile(combo.framework, combo.arch);
    PrintRatios(combo.label, p.enclave_init_s, p.key_fetch_s, p.model_load_s,
                p.runtime_init_s, p.execute_s);
  }
}

void MeasuredSection() {
  PrintSection("Measured (this repo, live pipeline, scaled models)");
  std::printf("%-12s %10s %10s %10s %10s %10s\n", "", "EnclaveIni", "KeyFetch",
              "ModelLoad", "RtInit", "Execute");
  LiveRig rig(0.02);
  for (const Combo& combo : AllCombos()) {
    rig.DeployModel(combo.arch);
    semirt::SemirtOptions options;
    options.framework = combo.framework;
    rig.Authorize(combo.arch, options);

    // Enclave init is part of instance creation: time it separately.
    auto t0 = std::chrono::steady_clock::now();
    auto instance = rig.MakeInstance(options);
    double init_s = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    if (instance == nullptr) continue;
    auto timings = rig.TimedRequest(instance.get(), combo.arch, options);
    if (!timings.ok()) {
      std::printf("%-12s request failed: %s\n", combo.label,
                  timings.status().ToString().c_str());
      continue;
    }
    PrintRatios(combo.label, init_s, MicrosToSeconds(timings->key_fetch),
                MicrosToSeconds(timings->model_load),
                MicrosToSeconds(timings->runtime_init),
                MicrosToSeconds(timings->execute));
  }
  std::printf("(shape check: the calibrated rows' key fetch carries the paper's DCAP\n"
              " attestation, so it dominates the cold path for fast-executing TVM\n"
              " models and execution dominates for interpreted TFLM models. The live\n"
              " handshake has no quote cost (the simulated quote is an HMAC; the\n"
              " handshake is four X25519 scalar multiplications), so live key fetch is\n"
              " a minor share and model load leads every live cold path)\n");
}

}  // namespace
}  // namespace sesemi::bench

int main() {
  sesemi::bench::PrintHeader("Figure 8 — latency ratio of serving stages (cold path)");
  sesemi::bench::CalibratedSection();
  sesemi::bench::MeasuredSection();
  return 0;
}
