// The paper's motivating scenario (Figure 1): a hospital deploys a disease-
// prediction model trained on its patients' EHRs. Authorized patients query
// it through SeSeMI; the cloud provider never sees the model or any request,
// and unauthorized users are cryptographically locked out.
//
// Demonstrates:
//  - per-user access control (patient A authorized, patient B not),
//  - the enclave-identity gate (a tampered runtime build gets no keys),
//  - the live serverless platform (cold start, then warm reuse).

#include <cstdio>

#include "client/clients.h"
#include "keyservice/keyservice.h"
#include "model/zoo.h"
#include "serverless/platform.h"
#include "sgx/platform.h"
#include "storage/object_store.h"

using namespace sesemi;

int main() {
  std::printf("== Hospital disease-prediction service on SeSeMI ==\n\n");

  sgx::AttestationAuthority authority;
  sgx::SgxPlatform ks_node(sgx::SgxGeneration::kSgx2, &authority);
  storage::InMemoryObjectStore storage;
  auto keyservice = std::move(*keyservice::StartKeyService(&ks_node));
  auto ks_client = std::move(*client::KeyServiceClient::Connect(
      keyservice.get(), &authority,
      keyservice::KeyServiceEnclave::ExpectedMeasurement()));

  // --- The hospital deploys its model. ---
  client::ModelOwner hospital("st-mary-hospital");
  if (!hospital.Register(ks_client.get()).ok()) return 1;
  model::ZooSpec spec;
  spec.model_id = "diabetes-risk-v2";
  spec.arch = model::Architecture::kDsNet;  // DenseNet-style diagnosis model
  spec.scale = 0.01;
  spec.input_hw = 16;
  auto graph = std::move(*model::BuildModel(spec));
  if (!hospital.DeployModel(ks_client.get(), &storage, graph).ok()) return 1;
  std::printf("[hospital] deployed encrypted model '%s'\n", spec.model_id.c_str());

  // --- Patients. ---
  client::ModelUser alice("patient-alice");
  client::ModelUser bob("patient-bob");  // never granted access
  if (!alice.Register(ks_client.get()).ok() || !bob.Register(ks_client.get()).ok()) {
    return 1;
  }

  semirt::SemirtOptions runtime_options;
  runtime_options.framework = inference::FrameworkKind::kTvm;
  sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(runtime_options);
  if (!hospital.GrantAccess(ks_client.get(), spec.model_id, es, alice.id()).ok()) {
    return 1;
  }
  if (!alice.ProvisionRequestKey(ks_client.get(), spec.model_id, es).ok()) return 1;
  // Bob provisions a request key too — but the hospital never granted him
  // access, so KeyService will refuse to provision his keys to any enclave.
  if (!bob.ProvisionRequestKey(ks_client.get(), spec.model_id, es).ok()) return 1;
  std::printf("[hospital] authorized alice (and only alice) for enclave %.16s...\n\n",
              es.ToHex().c_str());

  // --- The serverless platform (OpenWhisk stand-in). ---
  serverless::PlatformConfig platform_config;
  serverless::ServerlessPlatform cloud(platform_config, &authority, &storage,
                                       keyservice.get());
  serverless::FunctionSpec fn;
  fn.name = "predict-diabetes";
  fn.options = runtime_options;
  if (!cloud.DeployFunction(fn).ok()) return 1;

  // --- Alice queries her risk. ---
  Bytes ehr_features = model::GenerateRandomInput(graph, /*seed=*/7);
  auto request = alice.BuildRequest(spec.model_id, ehr_features);
  if (!request.ok()) return 1;
  bool cold = false;
  semirt::StageTimings timings;
  auto sealed = cloud.Invoke(fn.name, *request, &timings, &cold);
  if (!sealed.ok()) {
    std::fprintf(stderr, "invoke failed: %s\n", sealed.status().ToString().c_str());
    return 1;
  }
  auto scores = model::ParseOutput(*alice.DecryptResult(spec.model_id, *sealed));
  std::printf("[alice ] %s start, %s path, %.1f ms -> risk score %.3f\n",
              cold ? "cold" : "warm", ToString(timings.kind),
              timings.total / 1000.0, (*scores)[1]);

  auto sealed2 = cloud.Invoke(fn.name, *request, &timings, &cold);
  if (!sealed2.ok()) return 1;
  std::printf("[alice ] repeat: %s start, %s path, %.1f ms "
              "(hot path skips attestation + model load)\n",
              cold ? "cold" : "warm", ToString(timings.kind), timings.total / 1000.0);

  // --- Bob tries the same thing. ---
  auto bob_request = bob.BuildRequest(spec.model_id, ehr_features);
  if (!bob_request.ok()) return 1;
  auto denied = cloud.Invoke(fn.name, *bob_request);
  std::printf("[bob   ] request refused: %s\n", denied.status().ToString().c_str());

  // --- A tampered runtime (different code => different MRENCLAVE). ---
  semirt::SemirtOptions tampered = runtime_options;
  tampered.num_tcs = 2;  // any config/code change shifts the measurement
  serverless::FunctionSpec rogue;
  rogue.name = "predict-diabetes-rogue";
  rogue.options = tampered;
  if (!cloud.DeployFunction(rogue).ok()) return 1;
  auto rogue_result = cloud.Invoke(rogue.name, *request);
  std::printf("[cloud ] rogue enclave build denied keys: %s\n",
              rogue_result.status().ToString().c_str());

  const serverless::PlatformCounters& counters = cloud.counters();
  std::printf("\nplatform stats: %llu invocations, %llu cold starts, %d containers\n",
              static_cast<unsigned long long>(counters.invocations.Value()),
              static_cast<unsigned long long>(counters.cold_starts.Value()),
              cloud.ContainerCount());
  return 0;
}
