#ifndef SESEMI_BENCH_BENCH_COMMON_H_
#define SESEMI_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/clients.h"
#include "inference/framework.h"
#include "keyservice/keyservice.h"
#include "model/zoo.h"
#include "obs/trace.h"
#include "semirt/semirt.h"
#include "sgx/platform.h"
#include "sim/cost_model.h"
#include "storage/object_store.h"

namespace sesemi::bench {

/// \file
/// Shared harness for the bench_fig*/bench_table* drivers (one binary per
/// paper artifact — the figure/table map lives in docs/BENCHMARKS.md).
/// Two measurement modes coexist:
///  - *live*  — LiveRig below: real requests through real (simulated-SGX)
///    enclaves, timed in microseconds;
///  - *calibrated* — the sim/ cluster simulator replaying the same policies
///    against sim::CostModel::PaperSgx1/PaperSgx2, for curves that need a
///    12-core SGX cluster the CI runner does not have.

/// The six (framework, architecture) combos every micro artifact sweeps.
struct Combo {
  inference::FrameworkKind framework;
  model::Architecture arch;
  const char* label;
};

inline const std::vector<Combo>& AllCombos() {
  static const std::vector<Combo> combos = {
      {inference::FrameworkKind::kTflm, model::Architecture::kMbNet, "TFLM-MBNET"},
      {inference::FrameworkKind::kTvm, model::Architecture::kMbNet, "TVM-MBNET"},
      {inference::FrameworkKind::kTflm, model::Architecture::kRsNet, "TFLM-RSNET"},
      {inference::FrameworkKind::kTvm, model::Architecture::kRsNet, "TVM-RSNET"},
      {inference::FrameworkKind::kTflm, model::Architecture::kDsNet, "TFLM-DSNET"},
      {inference::FrameworkKind::kTvm, model::Architecture::kDsNet, "TVM-DSNET"},
  };
  return combos;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void PrintSection(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

/// Mean duration (seconds) of stage `name` in a tracer rollup; 0 when the
/// stage never ran. The breakdown figures read their per-stage numbers from
/// the same spans the production tracer records — no bench-local timers.
inline double StageMeanSeconds(const std::vector<obs::StageRollup>& rollup,
                               const char* name) {
  for (const obs::StageRollup& stage : rollup) {
    if (stage.name != nullptr && std::strcmp(stage.name, name) == 0) {
      return stage.mean_s();
    }
  }
  return 0.0;
}

/// Nearest-rank percentile of `samples` (microseconds); 0 when empty.
inline double PercentileUs(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = pct / 100.0 * static_cast<double>(samples.size() - 1);
  return samples[static_cast<size_t>(rank + 0.5)];
}

/// A live end-to-end rig for measured (as opposed to calibrated) numbers:
/// KeyService + storage + one owner + one user + scaled-down models, all on
/// one simulated SGX2 platform. Construction performs the full deployment
/// preamble (KeyService launch, owner/user registration); DeployModel and
/// Authorize then set up one (model, enclave-identity) pair each.
class LiveRig {
 public:
  /// Harness knobs:
  ///  - `scale`: fraction of the paper's model sizes used when synthesizing
  ///    zoo models. Scaling shrinks channel counts, not graph depth, so
  ///    stage *ratios* stay representative while a full figure sweep runs in
  ///    seconds (figure drivers use 0.002–0.01).
  ///  - `input_hw`: synthetic input height/width; with `scale` this sets
  ///    both request payload size (crypto cost) and conv FLOPs (exec cost).
  explicit LiveRig(double scale = 0.01, int input_hw = 16)
      : scale_(scale), input_hw_(input_hw) {
    keyservice_ = std::move(*keyservice::StartKeyService(&platform_));
    ks_client_ = std::move(*client::KeyServiceClient::Connect(
        keyservice_.get(), &authority_,
        keyservice::KeyServiceEnclave::ExpectedMeasurement()));
    owner_ = std::make_unique<client::ModelOwner>("bench-owner");
    user_ = std::make_unique<client::ModelUser>("bench-user");
    (void)owner_->Register(ks_client_.get());
    (void)user_->Register(ks_client_.get());
  }

  /// Build + deploy a model for `arch` with id "<arch>"; returns the graph.
  const model::ModelGraph& DeployModel(model::Architecture arch) {
    std::string id = model::ToString(arch);
    auto it = graphs_.find(id);
    if (it != graphs_.end()) return it->second;
    model::ZooSpec spec;
    spec.model_id = id;
    spec.arch = arch;
    spec.scale = scale_;
    spec.input_hw = input_hw_;
    model::ModelGraph graph = std::move(*model::BuildModel(spec));
    (void)owner_->DeployModel(ks_client_.get(), &storage_, graph,
                              /*with_plaintext_copy=*/true);
    return graphs_.emplace(id, std::move(graph)).first->second;
  }

  /// Authorize the rig user for `arch`'s model on enclaves built as `options`.
  void Authorize(model::Architecture arch, const semirt::SemirtOptions& options) {
    std::string id = model::ToString(arch);
    sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(options);
    (void)owner_->GrantAccess(ks_client_.get(), id, es, user_->id());
    (void)user_->ProvisionRequestKey(ks_client_.get(), id, es);
  }

  /// Launch a SeMIRT instance with `options`.
  std::unique_ptr<semirt::SemirtInstance> MakeInstance(
      const semirt::SemirtOptions& options) {
    auto r = semirt::SemirtInstance::Create(
        &platform_, options, &storage_,
        options.mode == semirt::RuntimeMode::kUntrusted ? nullptr
                                                        : keyservice_.get());
    return r.ok() ? std::move(*r) : nullptr;
  }

  /// One measured request via the given instance; returns timings.
  Result<semirt::StageTimings> TimedRequest(
      semirt::SemirtInstance* instance, model::Architecture arch,
      const semirt::SemirtOptions& options, uint64_t seed = 1) {
    const std::string id = model::ToString(arch);
    const model::ModelGraph& graph = graphs_.at(id);
    Bytes input = model::GenerateRandomInput(graph, seed);
    semirt::StageTimings timings;
    if (options.mode == semirt::RuntimeMode::kUntrusted) {
      semirt::InferenceRequest request;
      request.user_id = "anyone";
      request.model_id = id;
      request.encrypted_input = std::move(input);
      SESEMI_ASSIGN_OR_RETURN(Bytes out, instance->HandleRequest(request, &timings));
      (void)out;
      return timings;
    }
    sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(options);
    SESEMI_ASSIGN_OR_RETURN(semirt::InferenceRequest request,
                            user_->BuildRequest(id, input, &es));
    SESEMI_ASSIGN_OR_RETURN(Bytes sealed, instance->HandleRequest(request, &timings));
    SESEMI_ASSIGN_OR_RETURN(Bytes output, user_->DecryptResult(id, sealed, &es));
    (void)output;
    return timings;
  }

  sgx::SgxPlatform& platform() { return platform_; }
  sgx::AttestationAuthority& authority() { return authority_; }
  storage::InMemoryObjectStore& storage() { return storage_; }
  keyservice::KeyServiceServer* keyservice() { return keyservice_.get(); }
  client::ModelUser& user() { return *user_; }
  client::ModelOwner& owner() { return *owner_; }
  double scale() const { return scale_; }

 private:
  double scale_;
  int input_hw_;
  sgx::AttestationAuthority authority_;
  sgx::SgxPlatform platform_{sgx::SgxGeneration::kSgx2, &authority_};
  storage::InMemoryObjectStore storage_;
  std::unique_ptr<keyservice::KeyServiceServer> keyservice_;
  std::unique_ptr<client::KeyServiceClient> ks_client_;
  std::unique_ptr<client::ModelOwner> owner_;
  std::unique_ptr<client::ModelUser> user_;
  std::map<std::string, model::ModelGraph> graphs_;
};

}  // namespace sesemi::bench

#endif  // SESEMI_BENCH_BENCH_COMMON_H_
