// Microbenchmarks for the trace-driven dynamic scenario engine
// (google-benchmark): raw trace generation per mobility model
// (BM_WorkloadGenerate), the frontier replay at each rung of the
// reoptimization budget ladder (BM_DynamicsFrontier — its regret /
// reassociation-rate counters are the stickiness-vs-throughput frontier),
// and the sweep engine over a dynamic grid at 1/2/4/8 threads
// (BM_DynamicsSweep), which also asserts in-process that the per-task CSV
// is byte-identical at every thread count.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench_util.h"
#include "core/controller.h"
#include "core/wolt.h"
#include "model/network.h"
#include "sim/dynamics.h"
#include "sim/scenario.h"
#include "sim/workload.h"
#include "sweep/engine.h"
#include "sweep/grid.h"
#include "sweep/report.h"
#include "util/rng.h"

namespace {

using namespace wolt;

sim::ScenarioParams FloorScenario(std::size_t extenders) {
  sim::ScenarioParams p;
  p.width_m = 120.0;
  p.height_m = 80.0;
  p.num_users = 0;
  p.num_extenders = extenders;
  return p;
}

sim::WorkloadParams DynamicWorkload(sim::MobilityModel model,
                                    double horizon) {
  sim::WorkloadParams wp;
  wp.horizon = horizon;
  wp.initial_users = 24;
  wp.arrival_rate = 1.0;
  wp.mean_session = horizon / 2.0;
  wp.mobility.model = model;
  wp.move_tick = 1.0;
  wp.load = sim::LoadCurve::kDiurnal;
  wp.load_period = horizon / 2.0;
  wp.background_share = 0.3;
  return wp;
}

// Trace generation alone: the DES walk over mobility, churn, diurnal load
// and background flips, per mobility model.
void BM_WorkloadGenerate(benchmark::State& state) {
  const auto model = static_cast<sim::MobilityModel>(state.range(0));
  const sim::ScenarioGenerator gen(FloorScenario(15));
  util::Rng topo_rng(0xD15C0ULL);
  const model::Network base = gen.Generate(topo_rng);
  const sim::WorkloadParams wp = DynamicWorkload(model, 48.0);
  std::int64_t events = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const sim::WorkloadTrace trace = sim::GenerateTrace(gen, base, wp, seed++);
    events += static_cast<std::int64_t>(trace.events.size());
    benchmark::DoNotOptimize(trace.events.data());
  }
  state.SetItemsProcessed(events);
  state.counters["events"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_WorkloadGenerate)
    ->ArgName("model")
    ->Arg(static_cast<int>(sim::MobilityModel::kTeleport))
    ->Arg(static_cast<int>(sim::MobilityModel::kWaypoint))
    ->Arg(static_cast<int>(sim::MobilityModel::kHotspot))
    ->Unit(benchmark::kMillisecond);

// Frontier replay of one fixed trace at each budget rung (1 = hold-last-
// good ... 4 = full policy). The regret / reassociation counters trace out
// the stickiness-vs-throughput frontier that the recorded run archives.
void BM_DynamicsFrontier(benchmark::State& state) {
  const int units = static_cast<int>(state.range(0));
  const sim::ScenarioGenerator gen(FloorScenario(10));
  util::Rng topo_rng(0xF107ULL);
  const model::Network base = gen.Generate(topo_rng);
  const sim::WorkloadTrace trace =
      sim::GenerateTrace(gen, base, DynamicWorkload(
                                        sim::MobilityModel::kWaypoint, 36.0),
                         7);
  sim::FrontierParams params;
  params.epoch_length = 12.0;
  params.epochs = 3;
  params.tier = core::TierForBudgetUnits(units);
  sim::FrontierResult last;
  for (auto _ : state) {
    core::WoltOptions wopt;
    wopt.subset_search = true;
    last = sim::RunTraceFrontier(
        base, trace, std::make_unique<core::WoltPolicy>(wopt), params);
    benchmark::DoNotOptimize(last.mean_aggregate_mbps);
  }
  state.counters["aggregate_mbps"] = last.mean_aggregate_mbps;
  state.counters["regret"] = last.regret;
  state.counters["reassoc_rate"] = last.reassoc_per_user_epoch;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(params.epochs));
}
BENCHMARK(BM_DynamicsFrontier)
    ->ArgName("budget")
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

sweep::SweepGrid DynamicGrid() {
  sweep::SweepGrid grid;
  grid.master_seed = 6021;
  grid.SeedRange(4);
  grid.users = {12};
  grid.extenders = {8};
  grid.sharing = {model::PlcSharing::kMaxMinActive};
  grid.policies = {sweep::PolicyKind::kWolt, sweep::PolicyKind::kGreedy};
  grid.mobility = {sim::MobilityModel::kWaypoint,
                   sim::MobilityModel::kHotspot};
  grid.churn_rates = {0.5};
  grid.load_curves = {sim::LoadCurve::kDiurnal};
  grid.reopt_budgets = {2, 4};
  grid.workload.load_period = 12.0;
  grid.frontier_epoch_length = 8.0;
  grid.frontier_epochs = 2;
  return grid;
}

// Dynamic-grid sweep wall-clock scaling with thread count. The work is
// bit-identical at every thread count; this benchmark *asserts* that (the
// acceptance gate for the frontier sweep) by diffing the per-task CSV of
// every run against a single-threaded reference.
void BM_DynamicsSweep(benchmark::State& state) {
  const sweep::SweepGrid grid = DynamicGrid();
  static const std::string* reference = [] {
    sweep::SweepOptions one;
    one.threads = 1;
    const sweep::SweepResult r = sweep::SweepEngine(one).Run(DynamicGrid());
    return new std::string(sweep::TaskCsvString(r));
  }();
  sweep::SweepOptions options;
  options.threads = static_cast<int>(state.range(0));
  sweep::SweepEngine engine(options);
  double regret = 0.0;
  for (auto _ : state) {
    const sweep::SweepResult result = engine.Run(grid);
    const std::string csv = sweep::TaskCsvString(result);
    if (csv != *reference) {
      std::fprintf(stderr,
                   "FATAL: dynamic sweep CSV diverged at %d threads\n",
                   options.threads);
      std::abort();
    }
    regret = result.groups[0].regret.Mean();
    benchmark::DoNotOptimize(csv.data());
  }
  state.counters["tasks"] = static_cast<double>(grid.NumTasks());
  state.counters["mean_regret"] = regret;
}
BENCHMARK(BM_DynamicsSweep)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): --trace=/--metrics= are consumed
// by the ObsSession and stripped before google-benchmark's flag parser
// (which rejects unknown flags) sees argv.
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
