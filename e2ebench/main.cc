// End-to-end sealed-request benchmark.
//
// Every request takes the public path a SeSeMI user takes:
//   ModelUser::BuildRequest (seal) -> FnPackerRouter::Route (cold_churn only)
//   -> ClusterDataplane::InvokeAsync on a 2-node cluster -> wait on the future
//   -> ModelUser::DecryptResult (open) -> compare with a plaintext reference.
// Latency runs from when a request was due until its decrypted result is in
// hand, and splits into layers that add up to it exactly (stats.h).
//
// Usage:
//   e2ebench --workload warm_zoo|pipeline_mix|cold_churn --seed N
//            --seconds S --trace 0|1
// Inputs and reference outputs are made first, then the stack is set up
// (several times; set-up time is their median), then a short unmeasured
// run-in, then the measured window. --trace 0 measures with tracing off and
// ends with the end-to-end metrics; --trace 1 measures the window once
// untraced and once traced, prints the per-layer table of the traced pass,
// and ends with the per-layer metrics. The last stdout line is one JSON
// object: correct, attempted, failed, metrics.

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "client/clients.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "fnpacker/router.h"
#include "inference/framework.h"
#include "keyservice/keyservice.h"
#include "model/zoo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "semirt/semirt.h"
#include "serverless/platform.h"
#include "sgx/platform.h"
#include "stats.h"
#include "storage/object_store.h"

namespace sesemi::e2ebench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::chrono::steady_clock::time_point TimePointOf(int64_t ns) {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "e2ebench: %s\n", what.c_str());
  std::exit(1);
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

template <typename T>
T Take(Result<T> result, const std::string& what) {
  Check(result.status(), what);
  return std::move(result).value();
}

// ------------------------------------------------------------------ workloads

struct ModelDef {
  std::string id;
  model::Architecture arch;
  int input_hw;
  uint64_t zoo_seed;
};

struct FunctionDef {
  std::string name;
  inference::FrameworkKind framework;
  uint32_t num_tcs;
  int max_batch;
  int priority;
};

/// One traffic target. `function` < 0 means FnPacker picks the endpoint.
struct Target {
  int function;
  int user;
  int model;
};

struct Tenant {
  std::string name;
  /// Ordered by popularity rank (fixed; Zipf(1) over ranks).
  std::vector<Target> targets;
  double rate = 0;      ///< open loop: Poisson arrivals per second
  int window = 0;       ///< closed loop: requests kept outstanding
  double limit_ms = 0;  ///< latency limit for slo_attainment (open loop)
};

struct Workload {
  std::string name;
  double scale = 0.01;
  std::vector<ModelDef> models;
  int users = 1;
  std::vector<FunctionDef> functions;
  bool router = false;  ///< FnPacker routes over every function (endpoints)
  bool rt = false;      ///< RT tier: class 0 on one pinned lane per node
  TimeMicros keep_alive = SecondsToMicros(180);
  Tenant open;
  std::optional<Tenant> closed;
};

constexpr int kInputsPerModel = 4;
/// TCS slots of the always-warm functions: at least the node's default
/// in-flight window (2 x cores) on hosts of up to 8 cores, so one warm
/// container per node absorbs every concurrent dispatch and no burst
/// cold-starts a sibling. The container count, and with it the serverless
/// bill, then does not depend on the arrival seed.
constexpr uint32_t kWarmTcs = 16;
/// Popularity ranks come from this fixed seed, never from --seed: with
/// seed-dependent ranks a different model becomes hot on every seed and the
/// latency median moves with it.
constexpr uint64_t kRankSeed = 0x5e5e1a2bULL;

std::vector<Target> RankTargets(std::vector<Target> targets) {
  Rng rng(kRankSeed);
  for (size_t i = targets.size(); i > 1; --i) {
    std::swap(targets[i - 1], targets[rng.UniformUint64(i)]);
  }
  return targets;
}

Workload WarmZoo() {
  Workload w;
  w.name = "warm_zoo";
  const model::Architecture archs[] = {model::Architecture::kMbNet,
                                       model::Architecture::kRsNet,
                                       model::Architecture::kDsNet};
  for (model::Architecture arch : archs) {
    w.models.push_back({model::ToString(arch), arch, 32, 0x5e5e});
  }
  w.users = 2;
  // One function per (framework, architecture) pair.
  for (inference::FrameworkKind fw :
       {inference::FrameworkKind::kTflm, inference::FrameworkKind::kTvm}) {
    for (int m = 0; m < 3; ++m) {
      w.functions.push_back({std::string(inference::ToString(fw)) + "-" + w.models[m].id,
                             fw, kWarmTcs, 1, 1});
    }
  }
  w.open.name = "zoo";
  for (int f = 0; f < 6; ++f) {
    for (int u = 0; u < w.users; ++u) w.open.targets.push_back({f, u, f % 3});
  }
  w.open.targets = RankTargets(w.open.targets);
  w.open.rate = 400;
  w.open.limit_ms = 10;
  return w;
}

Workload PipelineMix() {
  Workload w;
  w.name = "pipeline_mix";
  // One tiny model under two ids so each tenant has its own model key.
  w.models.push_back({"mix-bulk", model::Architecture::kMbNet, 16, 0x5e5e});
  w.models.push_back({"mix-interactive", model::Architecture::kMbNet, 16, 0x5e5e});
  w.users = 2;
  w.functions.push_back({"bulk", inference::FrameworkKind::kTvm, kWarmTcs, 8, 1});
  w.functions.push_back({"interactive", inference::FrameworkKind::kTvm, kWarmTcs, 1, 0});
  w.rt = true;
  w.open.name = "interactive";
  w.open.targets = {{1, 1, 1}};
  w.open.rate = 1000;
  w.open.limit_ms = 1;
  Tenant bulk;
  bulk.name = "bulk";
  bulk.targets = {{0, 0, 0}};
  bulk.window = 32;
  w.closed = bulk;
  return w;
}

Workload ColdChurn() {
  Workload w;
  w.name = "cold_churn";
  const model::Architecture archs[] = {model::Architecture::kMbNet,
                                       model::Architecture::kRsNet,
                                       model::Architecture::kDsNet};
  for (model::Architecture arch : archs) {
    for (int i = 0; i < 8; ++i) {
      w.models.push_back({std::string(model::ToString(arch)) + "-" + std::to_string(i),
                          arch, 32, 0x5e5e + static_cast<uint64_t>(i)});
    }
  }
  w.users = 8;
  // Twelve endpoints: with six, a third of the requests switched models and
  // that share moved between 0.2 and 0.33 from seed to seed, taking every
  // latency figure with it; with twelve it stays near 0.1.
  for (int e = 0; e < 12; ++e) {
    w.functions.push_back({"endpoint-" + std::to_string(e),
                           inference::FrameworkKind::kTvm, 4, 1, 1});
  }
  w.router = true;
  // Endpoints FnPacker leaves idle are reaped and relaunched several times a
  // second, so enclave launch and each new enclave's RA-TLS handshake show in
  // the measured window, not only in set-up.
  w.keep_alive = SecondsToMicros(0.3);
  w.open.name = "churn";
  for (int u = 0; u < w.users; ++u) {
    for (int m = 0; m < static_cast<int>(w.models.size()); ++m) {
      w.open.targets.push_back({-1, u, m});
    }
  }
  w.open.targets = RankTargets(w.open.targets);
  w.open.rate = 150;
  w.open.limit_ms = 20;
  return w;
}

std::optional<Workload> WorkloadNamed(const std::string& name) {
  if (name == "warm_zoo") return WarmZoo();
  if (name == "pipeline_mix") return PipelineMix();
  if (name == "cold_churn") return ColdChurn();
  return std::nullopt;
}

semirt::SemirtOptions OptionsOf(const FunctionDef& f) {
  semirt::SemirtOptions options;
  options.framework = f.framework;
  options.num_tcs = f.num_tcs;
  return options;
}

/// The function whose enclave identity a target's requests are sealed for
/// (FnPacker endpoints share one configuration, so endpoint 0 stands in).
const FunctionDef& FunctionOf(const Workload& w, const Target& t) {
  return w.functions[static_cast<size_t>(std::max(t.function, 0))];
}

// ---------------------------------------------------------------- inputs

/// Everything generated before the clock starts: model graphs, request
/// inputs, and each input's plaintext reference output per framework.
struct Inputs {
  std::vector<model::ModelGraph> graphs;
  std::vector<std::vector<Bytes>> inputs;  // [model][input]
  std::map<std::pair<inference::FrameworkKind, int>, std::vector<std::vector<float>>>
      reference;  // (framework, model) -> [input]
};

Inputs MakeInputs(const Workload& w) {
  Inputs in;
  for (const ModelDef& m : w.models) {
    model::ZooSpec spec;
    spec.model_id = m.id;
    spec.arch = m.arch;
    spec.scale = w.scale;
    spec.input_hw = m.input_hw;
    spec.seed = m.zoo_seed;
    in.graphs.push_back(Take(model::BuildModel(spec), "build model " + m.id));
    std::vector<Bytes> inputs;
    for (int i = 0; i < kInputsPerModel; ++i) {
      inputs.push_back(model::GenerateRandomInput(in.graphs.back(), 1000 + i));
    }
    in.inputs.push_back(std::move(inputs));
  }
  std::set<std::pair<inference::FrameworkKind, int>> needed;
  for (const Tenant* t : {&w.open, w.closed ? &*w.closed : nullptr}) {
    if (t == nullptr) continue;
    for (const Target& target : t->targets) {
      needed.insert({FunctionOf(w, target).framework, target.model});
    }
  }
  for (const auto& [framework, m] : needed) {
    auto fw = inference::CreateFramework(framework);
    auto loaded = Take(fw->WrapModel(in.graphs[static_cast<size_t>(m)]), "wrap model");
    auto runtime = Take(fw->CreateRuntime(loaded), "reference runtime");
    auto& outputs = in.reference[{framework, m}];
    for (const Bytes& input : in.inputs[static_cast<size_t>(m)]) {
      Bytes raw = Take(runtime->Execute(input), "reference execute");
      outputs.push_back(Take(model::ParseOutput(raw), "reference output"));
    }
  }
  return in;
}

/// Tolerance of the repo's batched-vs-serial parity tests, on the same
/// scaled difference |got - want| / (1 + |want|).
constexpr float kOutputTolerance = 1e-5f;

bool Matches(const std::vector<float>& got, const std::vector<float>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(std::abs(got[i] - want[i]) <= kOutputTolerance * (1.0f + std::abs(want[i])))) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------- the stack

/// KeyService, storage, one owner, the users, the 2-node cluster and (for
/// cold_churn) the FnPacker router. Member order is teardown order in
/// reverse: the cluster drains before the registry and KeyService go.
struct Stack {
  sgx::AttestationAuthority authority;
  sgx::SgxPlatform ks_platform{sgx::SgxGeneration::kSgx2, &authority};
  storage::InMemoryObjectStore storage;
  std::unique_ptr<keyservice::KeyServiceServer> keyservice;
  std::unique_ptr<client::KeyServiceClient> ks_client;
  client::ModelOwner owner{"e2e-owner"};
  std::vector<std::unique_ptr<client::ModelUser>> users;
  std::vector<sgx::Measurement> identity;  // per function
  obs::MetricsRegistry registry;
  std::unique_ptr<fnpacker::FnPackerRouter> router;
  std::unique_ptr<cluster::ClusterDataplane> cluster;
};

/// `count` sealed requests straight to one node's platform, awaited
/// together (warm-up only).
Status WarmBurst(const Workload& w, const Inputs& in, Stack* s, const Target& t,
                 int function, int node, int count) {
  std::vector<std::future<serverless::InvocationResult>> futures;
  const ModelDef& m = w.models[static_cast<size_t>(t.model)];
  for (int i = 0; i < count; ++i) {
    SESEMI_ASSIGN_OR_RETURN(
        semirt::InferenceRequest request,
        s->users[static_cast<size_t>(t.user)]->BuildRequest(
            m.id, in.inputs[static_cast<size_t>(t.model)][0],
            &s->identity[static_cast<size_t>(function)]));
    futures.push_back(s->cluster->node(node)->InvokeAsync(
        w.functions[static_cast<size_t>(function)].name, std::move(request)));
  }
  for (auto& f : futures) {
    serverless::InvocationResult r = f.get();
    SESEMI_RETURN_IF_ERROR(r.response.status());
  }
  return Status::OK();
}

/// Set-up as a user pays it: KeyService launch, registrations, model deploy
/// (seal, upload, ADD_MODEL_KEY), cluster + function deploys, grants,
/// request-key provisioning, metrics registration and warm-up requests.
std::unique_ptr<Stack> SetUp(const Workload& w, const Inputs& in) {
  auto s = std::make_unique<Stack>();
  s->keyservice = Take(keyservice::StartKeyService(&s->ks_platform), "start KeyService");
  s->ks_client = Take(client::KeyServiceClient::Connect(
                          s->keyservice.get(), &s->authority,
                          keyservice::KeyServiceEnclave::ExpectedMeasurement()),
                      "connect KeyService");
  Check(s->owner.Register(s->ks_client.get()), "register owner");
  for (int u = 0; u < w.users; ++u) {
    s->users.push_back(std::make_unique<client::ModelUser>("e2e-user-" + std::to_string(u)));
    Check(s->users.back()->Register(s->ks_client.get()), "register user");
  }
  for (size_t m = 0; m < w.models.size(); ++m) {
    Check(s->owner.DeployModel(s->ks_client.get(), &s->storage, in.graphs[m]),
          "deploy model " + w.models[m].id);
  }

  cluster::ClusterConfig config;
  config.initial_nodes = 2;
  config.node.keep_alive = w.keep_alive;
  if (w.rt) {
    config.node.rt.enabled = true;
    config.node.rt.classes = 1;
    config.node.rt.executor.num_lanes = 1;
  }
  s->cluster = std::make_unique<cluster::ClusterDataplane>(
      config, &s->authority, &s->storage, s->keyservice.get());
  for (const FunctionDef& f : w.functions) {
    serverless::FunctionSpec spec;
    spec.name = f.name;
    spec.options = OptionsOf(f);
    spec.sched.max_batch = f.max_batch;
    spec.sched.priority = f.priority;
    Check(s->cluster->DeployFunction(spec), "deploy function " + f.name);
    s->identity.push_back(semirt::SemirtInstance::MeasurementFor(spec.options));
  }
  if (w.router) {
    fnpacker::FnPoolSpec pool;
    for (const ModelDef& m : w.models) pool.models.push_back(m.id);
    pool.num_endpoints = static_cast<int>(w.functions.size());
    // An endpoint idle for a container's keep-alive may serve another model;
    // with the default 30 s the assignments of a run's first seconds would
    // hold for the whole run.
    pool.exclusive_idle_timeout = w.keep_alive;
    s->router = std::make_unique<fnpacker::FnPackerRouter>(pool);
  }

  std::set<std::tuple<int, int, int>> granted;  // (model, function, user)
  for (const Tenant* t : {&w.open, w.closed ? &*w.closed : nullptr}) {
    if (t == nullptr) continue;
    for (const Target& target : t->targets) {
      const int f = std::max(target.function, 0);
      if (!granted.insert({target.model, f, target.user}).second) continue;
      const std::string& model_id = w.models[static_cast<size_t>(target.model)].id;
      client::ModelUser& user = *s->users[static_cast<size_t>(target.user)];
      const sgx::Measurement& es = s->identity[static_cast<size_t>(f)];
      Check(s->owner.GrantAccess(s->ks_client.get(), model_id, es, user.id()), "grant");
      Check(user.ProvisionRequestKey(s->ks_client.get(), model_id, es), "provision");
    }
  }

  s->cluster->RegisterMetrics(&s->registry);
  if (s->router) s->router->RegisterMetrics(&s->registry);

  // Warm every function on every node: direct functions with their most
  // popular target, FnPacker endpoints with one model each. Warming each node
  // directly leaves no node without a container, so no request of the
  // measured window pays a cold start its warm-up could have paid.
  for (size_t f = 0; f < w.functions.size(); ++f) {
    std::optional<Target> pick;
    for (const Tenant* t : {&w.open, w.closed ? &*w.closed : nullptr}) {
      if (t == nullptr) continue;
      for (const Target& target : t->targets) {
        if (!pick && (target.function == static_cast<int>(f) || target.function < 0)) {
          pick = target;
        }
      }
    }
    if (!pick) continue;
    if (pick->function < 0) pick->model = static_cast<int>(f) % static_cast<int>(w.models.size());
    for (int node = 0; node < s->cluster->total_nodes(); ++node) {
      // One request launches exactly one container; the burst that follows
      // finds it warm and initializes its TCS runtimes without launching more.
      for (int count : {1, static_cast<int>(w.functions[f].num_tcs)}) {
        Check(WarmBurst(w, in, s.get(), *pick, static_cast<int>(f), node, count),
              "warm up " + w.functions[f].name);
      }
    }
  }
  return s;
}

// ---------------------------------------------------------------- one pass

/// Arrivals and per-request picks of one pass, all drawn from --seed.
struct Schedule {
  std::vector<int64_t> offset_ns;  // open-loop due times from the window start
  std::vector<uint32_t> target;
  std::vector<uint32_t> input;
  uint64_t closed_seed = 0;
};

Schedule MakeSchedule(const Workload& w, uint64_t seed, double seconds) {
  Schedule s;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<double> cdf;
  double total = 0;
  for (size_t r = 0; r < w.open.targets.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);  // Zipf(1) by rank
    cdf.push_back(total);
  }
  double t = 0;
  for (;;) {
    t += rng.Exponential(w.open.rate);
    if (t >= seconds) break;
    s.offset_ns.push_back(static_cast<int64_t>(t * 1e9));
    const double u = rng.UniformDouble() * total;
    s.target.push_back(static_cast<uint32_t>(
        std::min<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
                         cdf.size() - 1)));
    s.input.push_back(static_cast<uint32_t>(rng.UniformUint64(kInputsPerModel)));
  }
  s.closed_seed = rng.NextUint64();
  return s;
}

/// What the harvester records for every request it observes.
struct Outcome {
  Breakdown b;
  int64_t done_ns = 0;  ///< decrypted result in hand
  int16_t batch = 1;
  int8_t tenant = 0;    ///< 0 open loop, 1 closed loop
  int8_t cls = 1;       ///< priority class of its function
  int8_t max_batch = 1;
  int16_t function = 0;  ///< the function (or FnPacker endpoint) that served it
  bool ok = false;      ///< completed, decrypted, and matched the reference
  bool mismatch = false;
  semirt::InvocationKind kind = semirt::InvocationKind::kHot;
};

struct InFlight {
  int8_t tenant = 0;
  uint32_t target = 0;
  uint32_t input = 0;
  int endpoint = -1;
  int64_t due = 0, send = 0, sealed = 0, routed = 0, submitted = 0;
  obs::TraceContext trace;
  std::future<serverless::InvocationResult> future;
};

struct SpanStat {
  uint64_t count = 0;
  double total_us = 0;
  double mean_us() const { return count == 0 ? 0 : total_us / static_cast<double>(count); }
};

struct PassResult {
  /// Every open-loop request, and every kClosedSample-th closed-loop one:
  /// the closed loop's rate follows capacity, and records kept in
  /// proportion would make rss_peak_mb grow with throughput.
  std::vector<Outcome> outcomes;
  size_t sent[2] = {0, 0};
  size_t ok = 0;          ///< over every request, sampled or not
  size_t mismatches = 0;
  size_t ok_in_window = 0;  ///< OK completions inside [t0, t1]
  int windows = 1;          ///< sub-windows latency medians are taken over
  int64_t t0 = 0, t1 = 0;
  Series before, after;
  double container_gb_s = 0;
  double containers_peak = 0;
  double steal_share = 0;
  bool elevated = false;
  std::map<std::string, SpanStat> spans;
  uint64_t spans_dropped = 0;
  std::vector<std::string> errors;
};

/// CPU steal and total jiffies from the aggregate /proc/stat line.
std::pair<double, double> ReadStealTotal() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double value = 0, total = 0, steal = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// SCHED_FIFO 39 (just below the RT lanes' 40) for a client thread, as
/// bench_sched does; a kernel that refuses leaves the thread as it was.
bool ElevateClientThread() {
  sched_param param{};
  param.sched_priority = 39;
  return pthread_setschedparam(pthread_self(), SCHED_FIFO, &param) == 0;
}

/// Set-up is repeated and its median reported; the last stack serves traffic.
constexpr int kSetupRepeats = 7;
constexpr double kRunInSeconds = 2;
constexpr uint64_t kClosedSample = 16;
constexpr double kContainerGb = 256.0 / 1024.0;  // FunctionSpec default, GiB
constexpr auto kHarvestWait = std::chrono::microseconds(50);
constexpr int64_t kSampleNs = 100'000'000;  // container sampling period
constexpr int64_t kDrainLimitNs = 60'000'000'000;

/// The sub-window of the measured window that time `t` falls in.
size_t WindowOf(const PassResult& r, int64_t t) {
  const auto windows = static_cast<int64_t>(r.windows);
  return static_cast<size_t>(
      std::clamp<int64_t>((t - r.t0) * windows / (r.t1 - r.t0), 0, windows - 1));
}

class Pass {
 public:
  Pass(const Workload& w, const Inputs& in, Stack* s, const Schedule& schedule,
       double seconds, int windows, bool traced)
      : w_(w), in_(in), s_(s), schedule_(schedule), seconds_(seconds), traced_(traced) {
    result_.windows = windows;
  }

  PassResult Run() {
    // Reserved up front so no reallocation doubles the records mid-run.
    result_.outcomes.reserve(schedule_.offset_ns.size() +
                             (w_.closed ? static_cast<size_t>(60'000 * seconds_) / kClosedSample
                                        : 0));
    if (traced_) {
      obs::Tracer::Reset(1 << 16);
      obs::Tracer::Enable();
    }
    trace_base_ns_ = NowNs();
    trace_base_us_ = obs::Tracer::Now();

    result_.before = ParsePrometheus(s_->registry.PrometheusText());
    const auto steal0 = ReadStealTotal();
    result_.t0 = NowNs() + 2'000'000;  // both client threads up before the first due time
    result_.t1 = result_.t0 + static_cast<int64_t>(seconds_ * 1e9);
    if (w_.closed) {
      for (int i = 0; i < w_.closed->window; ++i) free_slots_.push_back(result_.t0);
    }
    std::thread harvester([this] { Harvest(); });
    std::thread generator([this] { Generate(); });

    // The main thread samples live containers for the serverless bill.
    double peak = 0, gb_s = 0;
    int64_t last = result_.t0;
    std::this_thread::sleep_until(TimePointOf(result_.t0));
    for (;;) {
      const int64_t now = NowNs();
      const double containers = SumSeries(ParsePrometheus(s_->registry.PrometheusText()),
                                          "sesemi_cluster_node_containers");
      gb_s += containers * kContainerGb * static_cast<double>(now - last) / 1e9;
      peak = std::max(peak, containers);
      last = now;
      if (now >= result_.t1) break;
      std::this_thread::sleep_until(TimePointOf(std::min(now + kSampleNs, result_.t1)));
    }
    const auto steal1 = ReadStealTotal();
    generator.join();
    harvester.join();

    result_.after = ParsePrometheus(s_->registry.PrometheusText());
    result_.container_gb_s = gb_s;
    result_.containers_peak = peak;
    const double jiffies = steal1.second - steal0.second;
    result_.steal_share = jiffies > 0 ? (steal1.first - steal0.first) / jiffies : 0;
    result_.elevated = elevated_.load() == 2;
    if (traced_) {
      obs::Tracer::Disable();
      const obs::TraceSnapshot snap = obs::Tracer::Snap();
      result_.spans_dropped = snap.dropped;
      for (const obs::SpanRecord& span : snap.spans) {
        SpanStat& stat = result_.spans[span.name];
        stat.count++;
        stat.total_us += static_cast<double>(span.end - span.start);
      }
      obs::Tracer::Reset();
    }
    return std::move(result_);
  }

 private:
  TimeMicros TraceUs(int64_t ns) const { return trace_base_us_ + (ns - trace_base_ns_) / 1000; }

  const Tenant& TenantOf(int tenant) const { return tenant == 0 ? w_.open : *w_.closed; }

  void ClientThreadSetup() {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    if (w_.rt && ElevateClientThread()) elevated_.fetch_add(1);
  }

  void Send(int tenant, uint32_t target_index, uint32_t input, int64_t due) {
    InFlight f;
    f.tenant = static_cast<int8_t>(tenant);
    f.target = target_index;
    f.input = input;
    f.due = due;
    f.send = NowNs();
    const Target& t = TenantOf(tenant).targets[target_index];
    const std::string& model_id = w_.models[static_cast<size_t>(t.model)].id;
    const sgx::Measurement& es = s_->identity[static_cast<size_t>(std::max(t.function, 0))];
    auto request = s_->users[static_cast<size_t>(t.user)]->BuildRequest(
        model_id, in_.inputs[static_cast<size_t>(t.model)][input], &es);
    f.sealed = NowNs();
    Check(request.status(), "seal request");
    int function = t.function;
    f.routed = f.sealed;
    if (s_->router) {
      f.endpoint = Take(s_->router->Route(model_id, f.sealed / 1000), "route");
      function = f.endpoint;
      f.routed = NowNs();
    }
    if (traced_) {
      f.trace = obs::Tracer::NewContext();
      obs::Tracer::EmitSpan(f.trace, "bench.seal", TraceUs(f.send), TraceUs(f.sealed));
      if (s_->router) {
        obs::Tracer::EmitSpan(f.trace, "bench.route", TraceUs(f.sealed), TraceUs(f.routed));
      }
      obs::Tracer::SetCurrent(f.trace);  // cluster.route nests under the request
    }
    f.future = s_->cluster->InvokeAsync(w_.functions[static_cast<size_t>(function)].name,
                                        std::move(*request));
    f.submitted = NowNs();
    if (traced_) {
      obs::Tracer::SetCurrent({});
      obs::Tracer::EmitSpan(f.trace, "bench.submit", TraceUs(f.routed), TraceUs(f.submitted));
    }
    {
      std::lock_guard<std::mutex> lock(inbox_mutex_);
      inbox_.push_back(std::move(f));
    }
    inbox_cv_.notify_one();
    result_.sent[tenant]++;
  }

  void Generate() {
    ClientThreadSetup();
    Rng closed_rng(schedule_.closed_seed);
    size_t next = 0;
    const size_t arrivals = schedule_.offset_ns.size();
    for (;;) {
      const int64_t now = NowNs();
      if (now >= result_.t1) break;
      if (next < arrivals && result_.t0 + schedule_.offset_ns[next] <= now) {
        Send(0, schedule_.target[next], schedule_.input[next],
             result_.t0 + schedule_.offset_ns[next]);
        ++next;
        continue;
      }
      const int64_t wake = next < arrivals ? result_.t0 + schedule_.offset_ns[next] : result_.t1;
      int64_t slot_due = -1;
      {
        std::unique_lock<std::mutex> lock(slot_mutex_);
        if (free_slots_.empty()) {
          slot_cv_.wait_until(lock, TimePointOf(wake), [this] { return !free_slots_.empty(); });
        }
        if (!free_slots_.empty() && NowNs() < result_.t1) {
          slot_due = free_slots_.front();
          free_slots_.pop_front();
        }
      }
      if (slot_due >= 0) {
        const uint32_t target = static_cast<uint32_t>(
            closed_rng.UniformUint64(w_.closed->targets.size()));
        Send(1, target, static_cast<uint32_t>(closed_rng.UniformUint64(kInputsPerModel)),
             slot_due);
      }
    }
    {
      std::lock_guard<std::mutex> lock(inbox_mutex_);
      generator_done_ = true;
    }
    inbox_cv_.notify_one();
  }

  void Finish(InFlight& f, int64_t observed) {
    serverless::InvocationResult r = f.future.get();
    const Target& t = TenantOf(f.tenant).targets[f.target];
    const FunctionDef& fn = w_.functions[static_cast<size_t>(
        f.endpoint >= 0 ? f.endpoint : t.function)];
    const std::string& model_id = w_.models[static_cast<size_t>(t.model)].id;
    if (s_->router) {
      if (r.response.ok()) {
        s_->router->OnComplete(model_id, f.endpoint, observed / 1000);
      } else {
        s_->router->OnFailure(model_id, f.endpoint, observed / 1000);
      }
    }
    Outcome o;
    o.tenant = f.tenant;
    o.function = static_cast<int16_t>(f.endpoint >= 0 ? f.endpoint : t.function);
    o.cls = static_cast<int8_t>(fn.priority);
    o.max_batch = static_cast<int8_t>(fn.max_batch);
    o.batch = static_cast<int16_t>(r.batch_size);
    o.kind = r.timings.kind;
    const int64_t open_start = NowNs();
    int64_t open_end = open_start;
    if (r.response.ok()) {
      const sgx::Measurement& es = s_->identity[static_cast<size_t>(std::max(t.function, 0))];
      auto output = s_->users[static_cast<size_t>(t.user)]->DecryptResult(
          model_id, *r.response, &es);
      open_end = NowNs();
      auto parsed = output.ok() ? model::ParseOutput(*output)
                                : Result<std::vector<float>>(output.status());
      if (!parsed.ok()) {
        Fail("open: " + parsed.status().ToString());
        o.mismatch = true;
      } else if (!Matches(*parsed, in_.reference.at({fn.framework, t.model})[f.input])) {
        Fail("output differs from the plaintext reference for " + model_id);
        o.mismatch = true;
      } else {
        o.ok = true;
      }
    } else {
      Fail(r.response.status().ToString());
    }
    o.done_ns = open_end;
    Breakdown& b = o.b;
    b.e2e = open_end - f.due;
    b.part[kSendLag] = f.send - f.due;
    b.part[kSeal] = f.sealed - f.send;
    b.part[kRoute] = f.routed - f.sealed;
    b.part[kSubmit] = f.submitted - f.routed;
    b.part[kQueueWait] = r.queue_wait * 1000;
    b.part[kSemirt] = r.timings.total * 1000;
    b.part[kOpen] = open_end - open_start;
    b.semirt[kKeyFetch] = r.timings.key_fetch * 1000;
    b.semirt[kModelLoad] = r.timings.model_load * 1000;
    b.semirt[kRuntimeInit] = r.timings.runtime_init * 1000;
    b.semirt[kExecute] = r.timings.execute * 1000;
    CloseBreakdown(&b);
    if (traced_) {
      obs::Tracer::EmitSpan(f.trace, "bench.await", TraceUs(f.submitted), TraceUs(observed));
      obs::Tracer::EmitSpan(f.trace, "bench.open", TraceUs(open_start), TraceUs(open_end));
      obs::Tracer::EmitRoot(f.trace, "bench.request", TraceUs(f.due), TraceUs(open_end));
    }
    if (o.ok) {
      result_.ok++;
      if (open_end <= result_.t1) result_.ok_in_window++;
    }
    if (o.mismatch) result_.mismatches++;
    if (f.tenant == 0 || closed_seen_++ % kClosedSample == 0) result_.outcomes.push_back(o);
    if (f.tenant == 1) {
      {
        std::lock_guard<std::mutex> lock(slot_mutex_);
        free_slots_.push_back(open_end);
      }
      slot_cv_.notify_one();
    }
  }

  void Fail(std::string message) {
    if (result_.errors.size() < 5) result_.errors.push_back(std::move(message));
  }

  /// Observes completions without head-of-line blocking: a bounded wait on
  /// the oldest pending result, then a sweep that finishes every ready one.
  void Harvest() {
    ClientThreadSetup();
    std::vector<InFlight> pending;
    int64_t drain_deadline = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(inbox_mutex_);
        if (inbox_.empty() && pending.empty()) {
          if (generator_done_) break;
          inbox_cv_.wait_for(lock, std::chrono::milliseconds(1));
        }
        for (InFlight& f : inbox_) pending.push_back(std::move(f));
        inbox_.clear();
        if (generator_done_ && drain_deadline == 0) drain_deadline = NowNs() + kDrainLimitNs;
      }
      if (pending.empty()) continue;
      pending.front().future.wait_for(kHarvestWait);
      size_t keep = 0;
      for (size_t i = 0; i < pending.size(); ++i) {
        if (pending[i].future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
          Finish(pending[i], NowNs());
        } else {
          if (keep != i) pending[keep] = std::move(pending[i]);
          ++keep;
        }
      }
      pending.resize(keep);
      if (drain_deadline != 0 && NowNs() > drain_deadline && !pending.empty()) {
        Die(std::to_string(pending.size()) + " requests still pending after the drain limit");
      }
    }
  }

  const Workload& w_;
  const Inputs& in_;
  Stack* s_;
  const Schedule& schedule_;
  const double seconds_;
  const bool traced_;
  int64_t trace_base_ns_ = 0;
  TimeMicros trace_base_us_ = 0;
  PassResult result_;
  uint64_t closed_seen_ = 0;  ///< harvester only
  std::atomic<int> elevated_{0};

  std::mutex inbox_mutex_;
  std::condition_variable inbox_cv_;
  std::vector<InFlight> inbox_;  ///< guarded by inbox_mutex_
  bool generator_done_ = false;  ///< guarded by inbox_mutex_

  std::mutex slot_mutex_;
  std::condition_variable slot_cv_;
  std::deque<int64_t> free_slots_;  ///< closed-loop slot free times; guarded by slot_mutex_
};

// ---------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonLine(bool correct, size_t attempted, size_t failed,
                     const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(12);
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out << ", ";
    out << "\"" << metrics[i].name << "\": {\"value\": " << metrics[i].value
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

std::vector<double> Collect(const std::vector<Outcome>& outcomes,
                            const std::function<bool(const Outcome&)>& keep,
                            const std::function<double(const Outcome&)>& value) {
  std::vector<double> values;
  for (const Outcome& o : outcomes) {
    if (keep(o)) values.push_back(value(o));
  }
  return values;
}

struct Counts {
  size_t attempted = 0, failed = 0;
};

Counts CountOf(const PassResult& r) {
  Counts c;
  c.attempted = r.sent[0] + r.sent[1];
  c.failed = c.attempted - r.ok;
  return c;
}

/// The layer table: mean of each component over all requests, the median
/// band (45th-55th percentile of e2e) and the tail band (at or above the
/// p99), each row adding up exactly to its band's mean e2e.
void PrintLayerTable(const std::vector<Outcome>& outcomes, int tenant, const Tenant& spec) {
  std::vector<Breakdown> all;
  all.reserve(outcomes.size());
  for (const Outcome& o : outcomes) {
    if (o.tenant == tenant) all.push_back(o.b);
  }
  const double tail_pct = std::max(SupportedPercentile(all.size(), kTailPercentile), 50.0);
  const BandRow rows[] = {Band(all, "all", 0, 100), Band(all, "p45-p55", 45, 55),
                          Band(all, "tail", tail_pct, 100)};
  std::printf("\nlayer table, %s tenant (mean us per request; tail band = e2e >= p%.4g)\n",
              spec.name.c_str(), tail_pct);
  std::printf("  %-22s %14s %14s %14s\n", "component", rows[0].name.c_str(),
              rows[1].name.c_str(), rows[2].name.c_str());
  std::printf("  %-22s %14zu %14zu %14zu\n", "requests", rows[0].count, rows[1].count,
              rows[2].count);
  for (int c = 0; c < kNumComponents; ++c) {
    std::printf("  %-22s %14.2f %14.2f %14.2f\n", ComponentName(static_cast<Component>(c)),
                rows[0].mean_us(static_cast<Component>(c)),
                rows[1].mean_us(static_cast<Component>(c)),
                rows[2].mean_us(static_cast<Component>(c)));
    if (c == kSemirt) {
      for (int p = 0; p < kNumSemirtParts; ++p) {
        std::printf("    %-20s %14.2f %14.2f %14.2f\n", SemirtPartName(static_cast<SemirtPart>(p)),
                    rows[0].mean_us(static_cast<SemirtPart>(p)),
                    rows[1].mean_us(static_cast<SemirtPart>(p)),
                    rows[2].mean_us(static_cast<SemirtPart>(p)));
      }
    }
  }
  std::printf("  %-22s %14.2f %14.2f %14.2f\n", "= e2e", rows[0].mean_e2e_us(),
              rows[1].mean_e2e_us(), rows[2].mean_e2e_us());
  for (const BandRow& row : rows) {
    if (!row.Adds()) Die("layer table row '" + row.name + "' does not add up");
  }
  std::printf("  rows add up exactly: yes\n");
}

/// Sub-windows a run is split into for its latency medians: as many as keep
/// about kWindowRequests open-loop requests in each, so each sub-window
/// supports its own p99 and even the slowest workload gets three.
constexpr double kWindowRequests = 1000;
constexpr int kMaxWindows = 30;

int SubWindows(double rate, double seconds) {
  return std::clamp(static_cast<int>(rate * seconds / kWindowRequests), 1, kMaxWindows);
}

void PrintMetric(const char* name, double value, const char* unit, const std::string& detail) {
  std::printf("  %-22s %14.6g %-6s %s\n", name, value, unit, detail.c_str());
}

std::string Format(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

/// Latency of one tenant's OK requests: the median over sub-windows (one
/// burst or stall moves one sub-window, not the run) and the whole window.
struct TenantLatency {
  WindowedSummary windowed;
  Summary whole;
};

TenantLatency LatencyOf(const PassResult& r, int tenant) {
  std::vector<std::vector<double>> by_window(static_cast<size_t>(r.windows));
  std::vector<double> all;
  for (const Outcome& o : r.outcomes) {
    if (o.tenant != tenant || !o.ok) continue;
    // Sub-window by due time, so a stall counts where it was caused.
    by_window[WindowOf(r, o.done_ns - o.b.e2e)].push_back(Ms(o.b.e2e));
    all.push_back(Ms(o.b.e2e));
  }
  return {SummarizeWindows(by_window), Summarize(std::move(all))};
}

void PrintLatency(const char* prefix, const TenantLatency& l, double window_s) {
  const std::string p50 = std::string(prefix) + "_p50_ms";
  const std::string tail = std::string(prefix) + "_p99_ms";
  PrintMetric(p50.c_str(), l.windowed.p50, "ms",
              Format("median over %zu sub-windows of %.3g s (n=%zu, >= %zu each); whole window "
                     "%.4f",
                     l.windowed.windows, window_s, l.windowed.count, l.windowed.min_count,
                     l.whole.p50));
  PrintMetric(tail.c_str(), l.windowed.tail, "ms",
              Format("p%.4g, median over sub-windows; whole window p%.4g %.4f with %zu beyond "
                     "(not a regression gate: see BENCHMARK.json)",
                     l.windowed.tail_pct, l.whole.tail_pct, l.whole.tail, l.whole.beyond));
}

/// The end-to-end metrics of an untraced pass. Prints every one by name with
/// its unit and sample counts; returns the ones BENCHMARK.json gates on.
std::vector<Metric> EndToEndMetrics(const Workload& w, const PassResult& r, double seconds,
                                    double setup_s) {
  const Counts counts = CountOf(r);
  const TenantLatency open = LatencyOf(r, 0);
  const double window_s = seconds / r.windows;
  const double attainment =
      Attainment(Collect(
                     r.outcomes, [](const Outcome& o) { return o.tenant == 0 && o.ok; },
                     [](const Outcome& o) { return Ms(o.b.e2e); }),
                 r.sent[0], w.open.limit_ms);
  const double throughput = static_cast<double>(r.ok_in_window) / seconds;
  const double error_rate = counts.attempted == 0 ? 0.0
                                                  : static_cast<double>(counts.failed) /
                                                        static_cast<double>(counts.attempted);
  const std::vector<Metric> gated = {
      {"setup_s", setup_s, "s"},
      {"latency_p50_ms", open.windowed.p50, "ms"},
      {"slo_attainment", attainment, "share"},
      {"throughput_rps", throughput, "req/s"},
      {"container_gb_s", r.container_gb_s, "GB-s"},
      {"rss_peak_mb", PeakRssMb(), "MB"},
  };

  std::printf("\nend-to-end metrics (%s tenant: open loop %.0f req/s, latency limit %.3g ms",
              w.open.name.c_str(), w.open.rate, w.open.limit_ms);
  if (w.closed) {
    std::printf("; %s tenant: closed loop, %d outstanding", w.closed->name.c_str(),
                w.closed->window);
  }
  std::printf(")\n");
  PrintMetric("setup_s", setup_s, "s", Format("median of %d set-ups", kSetupRepeats));
  PrintLatency("latency", open, window_s);
  PrintMetric("slo_attainment", attainment, "share",
              Format("OK within %.3g ms, of %zu open-loop requests sent", w.open.limit_ms,
                     r.sent[0]));
  PrintMetric("throughput_rps", throughput, "req/s",
              Format("%zu OK completions in %.3g s", r.ok_in_window, seconds));
  if (w.closed) PrintLatency("bulk_latency", LatencyOf(r, 1), window_s);
  PrintMetric("error_rate", error_rate, "share",
              Format("%zu failed of %zu attempted (%zu output mismatches)", counts.failed,
                     counts.attempted, r.mismatches));
  PrintMetric("container_gb_s", r.container_gb_s, "GB-s",
              Format("peak %.0f live containers", r.containers_peak));
  PrintMetric("rss_peak_mb", gated.back().value, "MB", "peak resident set of this process");
  if (w.closed) {
    std::printf("  (closed-loop latencies from 1 in %llu of %zu requests)\n",
                static_cast<unsigned long long>(kClosedSample), r.sent[1]);
  }
  std::printf("\nper function (OK requests)\n");
  for (size_t fn = 0; fn < w.functions.size(); ++fn) {
    const Summary s = Summarize(Collect(
        r.outcomes,
        [fn](const Outcome& o) { return o.ok && o.function == static_cast<int16_t>(fn); },
        [](const Outcome& o) { return Ms(o.b.e2e); }));
    std::printf("  %-22s p50 %10.4f ms  p%-6.4g %10.4f ms  (n=%zu)\n",
                w.functions[fn].name.c_str(), s.p50, s.tail_pct, s.tail, s.count);
  }
  return gated;
}

void PrintDiagnostics(const PassResult& r, bool rt) {
  const Summary lag = Summarize(Collect(
      r.outcomes, [](const Outcome&) { return true; },
      [](const Outcome& o) { return Ms(o.b.part[kSendLag]); }));
  std::printf("\nrun validity\n");
  std::printf("  gen.send_lag_p99_ms     %.4f (p%.4g of %zu sends)\n", lag.tail, lag.tail_pct,
              lag.count);
  std::printf("  host.steal_share        %.4f\n", r.steal_share);
  std::printf("  client SCHED_FIFO 39    %s\n",
              !rt ? "not requested (RT tier off)"
                  : (r.elevated ? "elevated" : "refused by the kernel; threads unchanged"));
  for (const std::string& e : r.errors) std::printf("  error: %s\n", e.c_str());
}

/// A semirt stage counts as paid when it took at least this long: on the hot
/// path the key, model and runtime checks take microseconds, while a real key
/// fetch (RA-TLS handshake), model load or runtime build takes hundreds.
constexpr double kPaidStageUs = 200;

/// Per-layer metrics of the traced pass. Request-level figures cover the
/// open-loop tenant (the one latency_p50_ms reports); the per-class queue
/// waits and the batch figures cover the closed-loop tenant too.
std::vector<Metric> PerLayerMetrics(const PassResult& r) {
  using Pred = std::function<bool(const Outcome&)>;
  using Value = std::function<double(const Outcome&)>;
  const Pred open_loop = [](const Outcome& o) { return o.tenant == 0; };
  auto summary = [&r](const Pred& keep, const Value& value) {
    return Summarize(Collect(r.outcomes, keep, value));
  };
  auto part_us = [](Component c) -> Value {
    return [c](const Outcome& o) { return Us(o.b.part[c]); };
  };
  auto stage_us = [](SemirtPart p) -> Value {
    return [p](const Outcome& o) { return Us(o.b.semirt[p]); };
  };
  const auto open_count = static_cast<double>(std::max<size_t>(
      std::count_if(r.outcomes.begin(), r.outcomes.end(), open_loop), 1));
  auto open_share = [&](const Pred& pred) {
    return static_cast<double>(std::count_if(
               r.outcomes.begin(), r.outcomes.end(),
               [&](const Outcome& o) { return open_loop(o) && pred(o); })) /
           open_count;
  };
  auto span = [&r](const char* name) {
    auto it = r.spans.find(name);
    return it == r.spans.end() ? SpanStat{} : it->second;
  };
  auto delta = [&r](const char* name) { return Delta(r.before, r.after, name); };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double attempted = static_cast<double>(CountOf(r).attempted);
  const double invocations = delta("sesemi_cluster_invocations_total");
  const double routed = delta("sesemi_router_routed_total");
  const double cold_starts = delta("sesemi_platform_cold_starts_total");

  // Batch fill: mean batch of the requests whose function may batch, over
  // that function's cap.
  double batched_requests = 0, batch_units = 0, cap = 1;
  for (const Outcome& o : r.outcomes) {
    if (o.max_batch <= 1) continue;
    batched_requests += 1;
    batch_units += 1.0 / o.batch;
    cap = o.max_batch;
  }

  std::vector<Metric> m;
  auto add = [&m](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), value, unit});
  };
  auto add_p50_p99 = [&add](const std::string& prefix, const Summary& s) {
    add(prefix + "_p50_us", s.p50, "us");
    add(prefix + "_p99_us", s.tail, "us");
  };
  add_p50_p99("client.seal", summary(open_loop, part_us(kSeal)));
  add_p50_p99("client.open", summary(open_loop, part_us(kOpen)));
  add_p50_p99("cluster.submit", summary(open_loop, part_us(kSubmit)));
  add("cluster.home_hit_share", ratio(delta("sesemi_cluster_home_hits_total"), invocations), "share");
  add("cluster.steal_share", ratio(delta("sesemi_cluster_steals_total"), invocations), "share");
  add("fnpacker.model_switch_share", ratio(delta("sesemi_router_model_switches_total"), routed), "share");
  add("fnpacker.overflow_share", ratio(delta("sesemi_router_overflow_total"), routed), "share");
  add_p50_p99("sched.queue_wait", summary(open_loop, part_us(kQueueWait)));
  for (int cls = 0; cls < 2; ++cls) {
    add_p50_p99("sched.class" + std::to_string(cls) + ".queue_wait",
                summary([cls](const Outcome& o) { return o.cls == cls; }, part_us(kQueueWait)));
  }
  add("sched.batch_mean", ratio(delta("sesemi_sched_dispatched_total"),
                                delta("sesemi_sched_batches_total")), "requests");
  add("sched.batch_fill", batch_units > 0 ? batched_requests / batch_units / cap : 1.0, "share");
  add("sched.rejected", delta("sesemi_sched_rejected_total"), "count");
  add("serverless.cold_starts", cold_starts, "count");
  add("serverless.cold_start_share", ratio(cold_starts, attempted), "share");
  add("serverless.cold_start_mean_us", span(obs::spans::kColdStart).mean_us(), "us");
  add("serverless.containers_peak", r.containers_peak, "count");
  add("serverless.rt_share", ratio(delta("sesemi_rt_dispatches_total"), attempted), "share");
  add("serverless.rt_fallbacks", delta("sesemi_rt_fallbacks_total"), "count");
  add("serverless.retries", delta("sesemi_recovery_retries_total"), "count");
  for (SemirtPart p : {kKeyFetch, kModelLoad, kRuntimeInit, kExecute}) {
    add_p50_p99(SemirtPartName(p), summary(open_loop, stage_us(p)));
  }
  add_p50_p99("semirt.total", summary(open_loop, part_us(kSemirt)));
  for (SemirtPart p : {kKeyFetch, kModelLoad, kRuntimeInit}) {
    add(std::string(SemirtPartName(p)) + "_share",
        open_share([p](const Outcome& o) { return Us(o.b.semirt[p]) >= kPaidStageUs; }), "share");
  }
  add("semirt.hot_share", open_share([](const Outcome& o) { return o.kind == semirt::InvocationKind::kHot; }), "share");
  add("semirt.warm_share", open_share([](const Outcome& o) { return o.kind == semirt::InvocationKind::kWarm; }), "share");
  add("semirt.cold_share", open_share([](const Outcome& o) { return o.kind == semirt::InvocationKind::kCold; }), "share");
  add("inference.exec_mean_us", span(obs::spans::kInference).mean_us(), "us");
  add("crypto.decrypt_mean_us", span(obs::spans::kDecrypt).mean_us(), "us");
  add("crypto.encrypt_mean_us", span(obs::spans::kEncrypt).mean_us(), "us");
  add("ratls.handshakes", static_cast<double>(span(obs::spans::kHandshake).count), "count");
  add("ratls.handshake_mean_us", span(obs::spans::kHandshake).mean_us(), "us");
  add("sgx.enclave_inits", static_cast<double>(span(obs::spans::kEnclaveInit).count), "count");
  add("sgx.enclave_init_mean_us", span(obs::spans::kEnclaveInit).mean_us(), "us");
  add_p50_p99("residual.unattributed", summary(open_loop, part_us(kUnattributed)));

  std::printf("\nper-layer metrics (traced pass; spans dropped by full rings: %llu)\n",
              static_cast<unsigned long long>(r.spans_dropped));
  for (const Metric& metric : m) {
    std::printf("  %-36s %14.4f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  return m;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else {
      Die("unknown argument " + key);
    }
  }
  if (args.seconds <= 0) Die("--seconds must be positive");
  return args;
}


double OpenLoopP50Ms(const PassResult& r) {
  return Summarize(Collect(
                       r.outcomes, [](const Outcome& o) { return o.tenant == 0 && o.ok; },
                       [](const Outcome& o) { return Ms(o.b.e2e); }))
      .p50;
}

/// Allocator settings under which the memory figure repeats: a fixed mmap
/// threshold hands every large block (model blobs, compiled weights, runtime
/// arenas) back to the kernel when it is freed, and two arenas keep thread
/// timing from deciding how many heaps grow. Under glibc's defaults peak RSS
/// moved by up to 20% between runs of one workload.
void ConfigureAllocator() {
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_ARENA_MAX, 2);
}

int Main(int argc, char** argv) {
  ConfigureAllocator();
  const Args args = ParseArgs(argc, argv);
  const std::optional<Workload> found = WorkloadNamed(args.workload);
  if (!found) Die("unknown workload '" + args.workload + "'");
  const Workload& w = *found;
  std::printf("e2ebench workload=%s seed=%llu seconds=%g trace=%d\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);

  const Inputs in = MakeInputs(w);
  const Schedule schedule = MakeSchedule(w, args.seed, args.seconds);

  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack.reset();
    const int64_t start = NowNs();
    stack = SetUp(w, in);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  std::vector<double> sorted_setup = setup_s;
  std::sort(sorted_setup.begin(), sorted_setup.end());
  const double setup_median = PercentileSorted(sorted_setup, 50.0);
  std::printf("setup_s over %d set-ups:", kSetupRepeats);
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf(" (median %.4f)\n", setup_median);

  // Run-in: the same traffic, unmeasured, until containers, loaded models and
  // allocator pools reach the state the measured window keeps.
  const Schedule run_in = MakeSchedule(w, ~args.seed, kRunInSeconds);
  (void)Pass(w, in, stack.get(), run_in, kRunInSeconds, 1, false).Run();

  const int windows = SubWindows(w.open.rate, args.seconds);
  PassResult measured = Pass(w, in, stack.get(), schedule, args.seconds, windows, false).Run();
  std::vector<Metric> metrics = EndToEndMetrics(w, measured, args.seconds, setup_median);
  if (args.trace) {
    const double untraced_p50 = OpenLoopP50Ms(measured);
    measured = Pass(w, in, stack.get(), schedule, args.seconds, windows, true).Run();
    const double traced_p50 = OpenLoopP50Ms(measured);
    metrics = PerLayerMetrics(measured);
    std::printf("  trace.overhead_pct      %.2f (open-loop p50 %.4f ms traced vs %.4f ms untraced)\n",
                untraced_p50 > 0 ? 100.0 * (traced_p50 / untraced_p50 - 1.0) : 0.0,
                traced_p50, untraced_p50);
  }
  PrintLayerTable(measured.outcomes, 0, w.open);
  if (w.closed) PrintLayerTable(measured.outcomes, 1, *w.closed);
  PrintDiagnostics(measured, w.rt);

  const Counts counts = CountOf(measured);
  stack.reset();
  const bool correct = measured.mismatches == 0 && counts.attempted > 0;
  std::printf("%s\n", JsonLine(correct, counts.attempted, counts.failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace sesemi::e2ebench

int main(int argc, char** argv) { return sesemi::e2ebench::Main(argc, argv); }
