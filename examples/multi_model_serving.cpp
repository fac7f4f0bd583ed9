// Multi-model serving with FnPacker (paper §IV-C): a model owner operates
// five similar models with infrequent, unpredictable traffic. One endpoint
// per model wastes cold starts; one endpoint for everything thrashes on
// model switches. FnPacker packs idle models onto shared endpoints while
// busy models keep exclusive ones.
//
// Runs the same interactive workload through all three routers on the live
// platform and compares cold starts and per-request latency.

#include <cstdio>

#include "client/clients.h"
#include "fnpacker/router.h"
#include "keyservice/keyservice.h"
#include "model/zoo.h"
#include "serverless/platform.h"
#include "sgx/platform.h"
#include "storage/object_store.h"

using namespace sesemi;

namespace {

struct Deployment {
  sgx::AttestationAuthority authority;
  std::unique_ptr<sgx::SgxPlatform> ks_node;
  storage::InMemoryObjectStore storage;
  std::unique_ptr<keyservice::KeyServiceServer> keyservice;
  std::unique_ptr<client::KeyServiceClient> ks_client;
  std::unique_ptr<client::ModelOwner> owner;
  std::unique_ptr<client::ModelUser> user;
  std::map<std::string, model::ModelGraph> graphs;
  semirt::SemirtOptions runtime_options;

  bool Init() {
    ks_node = std::make_unique<sgx::SgxPlatform>(sgx::SgxGeneration::kSgx2,
                                                 &authority);
    keyservice = std::move(*keyservice::StartKeyService(ks_node.get()));
    ks_client = std::move(*client::KeyServiceClient::Connect(
        keyservice.get(), &authority,
        keyservice::KeyServiceEnclave::ExpectedMeasurement()));
    owner = std::make_unique<client::ModelOwner>("owner");
    user = std::make_unique<client::ModelUser>("analyst");
    if (!owner->Register(ks_client.get()).ok()) return false;
    if (!user->Register(ks_client.get()).ok()) return false;

    sgx::Measurement es =
        semirt::SemirtInstance::MeasurementFor(runtime_options);
    for (int i = 0; i < 5; ++i) {
      model::ZooSpec spec;
      spec.model_id = "m" + std::to_string(i);
      spec.arch = model::Architecture::kMbNet;
      spec.scale = 0.005;
      spec.input_hw = 16;
      spec.seed = 100 + i;
      auto graph = model::BuildModel(spec);
      if (!graph.ok()) return false;
      if (!owner->DeployModel(ks_client.get(), &storage, *graph).ok()) return false;
      if (!owner->GrantAccess(ks_client.get(), spec.model_id, es, user->id()).ok()) {
        return false;
      }
      if (!user->ProvisionRequestKey(ks_client.get(), spec.model_id, es).ok()) {
        return false;
      }
      graphs[spec.model_id] = std::move(*graph);
    }
    return true;
  }
};

struct RunStats {
  int cold_starts = 0;
  double total_ms = 0;
  int requests = 0;
};

/// Replay an interactive session (m0..m4 twice) through `router` on a fresh
/// platform whose endpoints are functions "ep<i>".
RunStats Replay(Deployment& dep, fnpacker::RequestRouter* router) {
  serverless::PlatformConfig config;
  ManualClock clock;
  serverless::ServerlessPlatform cloud(config, &dep.authority, &dep.storage,
                                       dep.keyservice.get(), &clock);
  for (int i = 0; i < router->num_endpoints(); ++i) {
    serverless::FunctionSpec fn;
    fn.name = "ep" + std::to_string(i);
    fn.options = dep.runtime_options;
    (void)cloud.DeployFunction(fn);
  }

  RunStats stats;
  const std::vector<std::string> session = {"m0", "m1", "m2", "m3", "m4",
                                            "m0", "m1", "m2", "m3", "m4"};
  for (const std::string& model : session) {
    clock.Advance(SecondsToMicros(2));
    auto endpoint = router->Route(model, clock.Now());
    if (!endpoint.ok()) continue;
    Bytes input = model::GenerateRandomInput(dep.graphs[model], 1);
    auto request = dep.user->BuildRequest(model, input);
    if (!request.ok()) continue;
    bool cold = false;
    semirt::StageTimings timings;
    auto sealed = cloud.Invoke("ep" + std::to_string(*endpoint), *request,
                               &timings, &cold);
    router->OnComplete(model, *endpoint, clock.Now());
    if (!sealed.ok()) {
      std::fprintf(stderr, "  %s via ep%d failed: %s\n", model.c_str(), *endpoint,
                   sealed.status().ToString().c_str());
      continue;
    }
    stats.cold_starts += cold;
    stats.total_ms += timings.total / 1000.0;
    stats.requests++;
  }
  return stats;
}

}  // namespace

int main() {
  std::printf("== Multi-model serving: FnPacker vs baselines ==\n\n");
  Deployment dep;
  if (!dep.Init()) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }
  std::printf("deployed 5 encrypted models; replaying an interactive session\n"
              "(m0..m4 queried twice, 2 s apart)\n\n");

  std::vector<std::string> models = {"m0", "m1", "m2", "m3", "m4"};

  fnpacker::OneToOneRouter one_to_one(models);
  fnpacker::FnPoolSpec pool;
  pool.models = models;
  pool.num_endpoints = 2;
  fnpacker::FnPackerRouter packer(pool);
  fnpacker::AllInOneRouter all_in_one;

  std::printf("%-12s %12s %12s %14s\n", "Router", "requests", "cold starts",
              "avg ms/request");
  for (auto& [name, router] : std::vector<std::pair<std::string, fnpacker::RequestRouter*>>{
           {"one-to-one", &one_to_one}, {"all-in-one", &all_in_one},
           {"fnpacker", &packer}}) {
    RunStats stats = Replay(dep, router);
    std::printf("%-12s %12d %12d %14.1f\n", name.c_str(), stats.requests,
                stats.cold_starts, stats.total_ms / std::max(1, stats.requests));
  }

  std::printf("\nFnPacker serves five models with two endpoints: one cold start\n"
              "per endpoint instead of one per model, without all-in-one's\n"
              "model-switching on every request.\n");
  return 0;
}
