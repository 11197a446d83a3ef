// Microbenchmarks for the joint association + channel-assignment solver
// (google-benchmark): the full alternating solve at enterprise floor sizes
// (BM_JointAssociate) and the association-weighted greedy recolouring alone
// (BM_Recolour), which is the per-round inner step the alternating loop
// amortizes.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "assign/joint.h"
#include "bench_util.h"
#include "core/wolt.h"
#include "model/network.h"
#include "sim/scenario.h"
#include "util/rng.h"
#include "wifi/channels.h"

namespace {

using namespace wolt;

model::Network FloorNet(std::size_t users, std::size_t extenders) {
  sim::ScenarioParams p;
  p.width_m = 120.0;
  p.height_m = 80.0;
  p.num_users = users;
  p.num_extenders = extenders;
  sim::ScenarioGenerator gen(p);
  util::Rng rng(0x0117E57ULL + users * 31 + extenders);
  return gen.Generate(rng);
}

void BM_JointAssociate(benchmark::State& state) {
  const std::size_t users = static_cast<std::size_t>(state.range(0));
  const std::size_t extenders = static_cast<std::size_t>(state.range(1));
  const model::Network net = FloorNet(users, extenders);
  assign::JointOptions options;
  options.num_channels = 3;
  options.carrier_sense_range_m = 60.0;
  options.max_rounds = 4;
  const assign::JointAssociator associate = core::WoltJointAssociator();
  std::int64_t rounds = 0;
  for (auto _ : state) {
    const assign::JointResult r =
        assign::SolveJointAlternating(net, associate, options);
    rounds += r.rounds;
    benchmark::DoNotOptimize(r.aggregate_mbps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(users));
  state.counters["rounds"] = benchmark::Counter(
      static_cast<double>(rounds), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_JointAssociate)
    ->ArgNames({"users", "extenders"})
    ->Args({36, 10})
    ->Args({124, 15})
    ->Args({200, 30})
    ->Args({500, 30})
    ->Unit(benchmark::kMillisecond);

void BM_Recolour(benchmark::State& state) {
  const std::size_t extenders = static_cast<std::size_t>(state.range(0));
  const model::Network net = FloorNet(1, extenders);
  util::Rng rng(0xC0107ULL);
  std::vector<double> weights(extenders);
  for (double& w : weights) w = rng.Uniform(0.0, 50.0);
  wifi::ChannelPlanParams params;
  params.num_channels = 3;
  params.interference_range_m = 60.0;
  for (auto _ : state) {
    const std::vector<int> plan =
        wifi::AssignChannelsWeighted(net, weights, params);
    benchmark::DoNotOptimize(plan.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(extenders));
}
BENCHMARK(BM_Recolour)
    ->ArgName("extenders")
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): --trace=/--metrics= are consumed
// by the ObsSession and stripped before google-benchmark's flag parser (which
// rejects unknown flags) sees argv.
int main(int argc, char** argv) {
  wolt::bench::ObsSession obs(argc, argv);
  wolt::bench::ObsSession::Strip(argc, argv);
#ifdef WOLT_BENCH_BUILD_TYPE
  benchmark::AddCustomContext("wolt_build_type", WOLT_BENCH_BUILD_TYPE);
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
