// Reproduces Table III: average latency of the Poisson traffic (popular
// models m0/m1 at 2 rps each) under All-in-one / One-to-one / FnPacker.

#include "bench/bench_fnpacker_common.h"

int main() {
  using namespace sesemi;
  using namespace sesemi::bench;
  PrintHeader("Table III — latency of models with Poisson traffic");

  fnpacker::AllInOneRouter all_in_one;
  fnpacker::OneToOneRouter one_to_one(FnPackerModels());
  fnpacker::FnPoolSpec pool;
  pool.models = FnPackerModels();
  pool.num_endpoints = 4;
  pool.exclusive_idle_timeout = SecondsToMicros(30);
  fnpacker::FnPackerRouter fnpacker_router(pool);

  FnPackerRun all = RunWithRouter(&all_in_one);
  FnPackerRun oto = RunWithRouter(&one_to_one);
  FnPackerRun fnp = RunWithRouter(&fnpacker_router);

  std::printf("%-20s %12s %12s %12s\n", "", "All-in-one", "One-to-one", "FnPacker");
  std::printf("%-20s %12.2f %12.2f %12.2f\n", "Avg. latency (ms)",
              all.poisson_avg_ms, oto.poisson_avg_ms, fnp.poisson_avg_ms);
  std::printf("\n(paper: 1700.50 / 1456.01 / 1465.79 ms — FnPacker matches\n"
              " One-to-one because the hot models get exclusive endpoints, while\n"
              " All-in-one pays ~16%% extra from model switching interference)\n");
  const fnpacker::RouterCounters& routing = fnpacker_router.counters();
  std::printf(
      "FnPacker routing stats: %llu routed, %llu model switches, %llu overflow\n",
      static_cast<unsigned long long>(routing.routed.Value()),
      static_cast<unsigned long long>(routing.model_switches.Value()),
      static_cast<unsigned long long>(routing.overflow.Value()));
  return 0;
}
