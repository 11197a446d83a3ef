// The sweep engine computes each distinct input of a run once — scenario
// networks, plan-blind associations, workload traces and each epoch's
// frontier oracle — and this must change no byte of its output. Every task
// of four grids is re-derived here from the public parts with no memo
// (ScenarioGenerator, MakePolicy + sim::EvaluateTrial, the joint solvers,
// GenerateTrace + RunTraceFrontier solving every oracle in place). The
// re-derived records are journaled and restored by a resume run that
// executes no task, so the engine's own fold builds the reference groups.
// The engine's task CSV, group CSV and JSON at 1, 2 and 4 threads, and at 4
// threads with chunk 1 and per-task sleeps, must equal that reference byte
// for byte, its deterministic metrics must agree across those runs, and no
// shared oracle may meet a snapshot other than the one it was solved on
// (sweep.shared.mismatched never appears).
//
// The grids: a static one crossing channels {0, 2}, all five policies, two
// sharing modes and two user counts; a dynamic one over three reopt
// budgets; a dynamic one whose background traffic trips the flap
// quarantine, so the scoring snapshots carry quarantine-pinned capacities;
// and a static one whose shared EvalOptions carry contention domains, where
// the plan-blind association differs from the channels = 0 one and must not
// be shared. The sharing counters and, with observability compiled in, the
// solver work counters pin that sharing happens at all.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "assign/joint.h"
#include "core/wolt.h"
#include "fault/storage.h"
#include "model/evaluator.h"
#include "obs/obs.h"
#include "recover/journal.h"
#include "sim/dynamics.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/workload.h"
#include "sweep/engine.h"
#include "sweep/grid.h"
#include "sweep/report.h"
#include "util/rng.h"
#include "util/stats.h"

namespace wolt::sweep {
namespace {

// 3 seeds x 2 users x 2 sharing x 2 channel counts x 5 policies = 120.
SweepGrid StaticGrid() {
  SweepGrid grid;
  grid.master_seed = 0x5AA7EDULL;
  grid.SeedRange(3);
  grid.users = {8, 14};
  grid.extenders = {4};
  grid.sharing = {model::PlcSharing::kMaxMinActive,
                  model::PlcSharing::kEqualAll};
  grid.num_channels = {0, 2};
  grid.policies = {PolicyKind::kWolt, PolicyKind::kWoltSubset,
                   PolicyKind::kGreedy, PolicyKind::kRssi,
                   PolicyKind::kJointWolt};
  grid.base.width_m = 60.0;
  grid.base.height_m = 60.0;
  return grid;
}

// 2 seeds x 3 budgets x 2 policies = 12 trace-frontier tasks; a trace is
// shared by the 6 tasks of its scenario.
SweepGrid DynamicGrid() {
  SweepGrid grid;
  grid.master_seed = 0xD1A75AAEULL;
  grid.SeedRange(2);
  grid.users = {10};
  grid.extenders = {4};
  grid.sharing = {model::PlcSharing::kMaxMinActive};
  grid.policies = {PolicyKind::kWolt, PolicyKind::kGreedy};
  grid.mobility = {sim::MobilityModel::kWaypoint};
  grid.churn_rates = {0.5};
  grid.reopt_budgets = {1, 2, 4};
  grid.frontier_oracle_bf_max_users = 5;  // keeps the brute force small
  grid.base.width_m = 60.0;
  grid.base.height_m = 60.0;
  return grid;
}

// DynamicGrid() over two sharing modes (24 tasks), with background traffic
// that silences each PLC domain now and then and a flap quarantine that
// keeps a flapping backhaul at zero for a while after the traffic stops.
// The sharing mode enters the oracle's scoring but not the snapshot.
SweepGrid QuarantineGrid() {
  SweepGrid grid = DynamicGrid();
  grid.master_seed = 0x0A7C1EULL;
  grid.sharing = {model::PlcSharing::kMaxMinActive,
                  model::PlcSharing::kEqualAll};
  grid.workload.background_share = 1.0;
  grid.workload.background_flip_rate = 1.0;
  grid.frontier_quarantine.flap_threshold = 2;
  grid.frontier_quarantine.hold = 12.0;
  return grid;
}

// 3 seeds x 2 channel counts x 3 policies = 18, scored with the contention
// domains of ContentionEval().
SweepGrid ContentionGrid() {
  SweepGrid grid;
  grid.master_seed = 0xC0DE5ULL;
  grid.SeedRange(3);
  grid.users = {12};
  grid.extenders = {4};
  grid.sharing = {model::PlcSharing::kMaxMinActive};
  grid.num_channels = {0, 2};
  grid.policies = {PolicyKind::kWolt, PolicyKind::kWoltSubset,
                   PolicyKind::kGreedy};
  grid.base.width_m = 60.0;
  grid.base.height_m = 60.0;
  return grid;
}

model::EvalOptions ContentionEval() {
  model::EvalOptions eval;
  eval.wifi_contention_domain = {0, 0, 1, 1};
  return eval;
}

model::Network ScenarioNetwork(const SweepGrid& grid, const TaskSpec& spec) {
  util::Rng rng = util::Rng::Substream(
      util::HashCombine64(grid.master_seed, spec.seed), spec.scenario_ordinal);
  sim::ScenarioParams params = grid.base;
  params.num_users = spec.IsDynamic() ? 0 : spec.num_users;
  params.num_extenders = spec.num_extenders;
  return sim::ScenarioGenerator(params).Generate(rng);
}

void Fill(const sim::TrialRecord& record, TaskResult* task) {
  task->aggregate_mbps = record.aggregate_mbps;
  task->jain_fairness = record.jain_fairness;
  for (double x : record.user_throughput_mbps) task->user_throughput.Add(x);
}

// A dynamic task's trace and frontier parameters, as the engine's task
// body defines them (no oracle hook: every oracle is solved in place).
sim::WorkloadTrace TaskTrace(const SweepGrid& grid, const TaskSpec& spec,
                             const model::Network& net) {
  sim::WorkloadParams wp = grid.workload;
  wp.mobility.model = spec.mobility;
  wp.arrival_rate = spec.churn_rate;
  wp.load = spec.load;
  wp.initial_users = spec.num_users;
  wp.horizon =
      grid.frontier_epoch_length * static_cast<double>(grid.frontier_epochs);
  sim::ScenarioParams params = grid.base;
  params.num_users = 0;
  params.num_extenders = spec.num_extenders;
  return sim::GenerateTrace(
      sim::ScenarioGenerator(params), net, wp,
      util::HashCombine64(util::HashCombine64(grid.master_seed, spec.seed),
                          0x544b4c4f57545243ULL + spec.scenario_ordinal));
}

sim::FrontierParams TaskFrontierParams(const SweepGrid& grid,
                                       const TaskSpec& spec,
                                       const model::EvalOptions& eval) {
  sim::FrontierParams fp;
  fp.epoch_length = grid.frontier_epoch_length;
  fp.epochs = grid.frontier_epochs;
  fp.tier = core::TierForBudgetUnits(spec.reopt_budget);
  fp.compute_oracle = grid.frontier_oracle;
  fp.oracle_bf_max_users = grid.frontier_oracle_bf_max_users;
  fp.quarantine = grid.frontier_quarantine;
  fp.eval = eval;
  return fp;
}

// One task computed afresh, as the engine's task body defines it.
TaskResult Rederive(const SweepGrid& grid, const model::EvalOptions& shared,
                    std::size_t index) {
  TaskResult task;
  task.spec = grid.TaskAt(index);
  task.completed = true;
  const TaskSpec& spec = task.spec;
  const model::Network net = ScenarioNetwork(grid, spec);
  model::EvalOptions eval = shared;
  eval.plc_sharing = spec.sharing;

  if (spec.IsDynamic()) {
    const sim::FrontierResult fr = sim::RunTraceFrontier(
        net, TaskTrace(grid, spec, net), MakePolicy(spec.policy, eval),
        TaskFrontierParams(grid, spec, eval));
    sim::TrialRecord record;
    record.aggregate_mbps = fr.mean_aggregate_mbps;
    record.jain_fairness = fr.mean_jain;
    record.user_throughput_mbps = fr.final_user_throughput_mbps;
    Fill(record, &task);
    task.oracle_mbps = fr.mean_oracle_mbps;
    task.regret = fr.regret;
    task.reassoc_per_user_epoch = fr.reassoc_per_user_epoch;
    task.quarantine_trips = fr.quarantine_trips;
  } else if (spec.num_channels > 0) {
    assign::JointOptions jopt;
    jopt.num_channels = spec.num_channels;
    jopt.carrier_sense_range_m = grid.carrier_sense_range_m;
    jopt.eval = eval;
    assign::JointResult jr;
    if (spec.policy == PolicyKind::kJointWolt) {
      jr = assign::SolveJointAlternating(net, core::WoltJointAssociator(),
                                         jopt);
    } else {
      const auto associate = [&spec](const model::Network& n,
                                     const model::EvalOptions& e,
                                     const model::Assignment& previous,
                                     const util::Deadline* deadline) {
        const core::PolicyPtr policy = MakePolicy(spec.policy, e);
        policy->SetDeadline(deadline);
        return policy->Associate(n, previous);
      };
      jr = assign::SolveJointNaive(net, associate, jopt);
    }
    model::EvalOptions overlap = eval;
    overlap.wifi_contention_domain.clear();
    overlap.wifi_channel = jr.channels;
    overlap.carrier_sense_range_m = grid.carrier_sense_range_m;
    const model::EvalResult res =
        model::Evaluator(overlap).Evaluate(net, jr.assignment);
    sim::TrialRecord record;
    record.aggregate_mbps = res.aggregate_mbps;
    record.jain_fairness = util::JainFairnessIndex(res.user_throughput_mbps);
    record.user_throughput_mbps = res.user_throughput_mbps;
    Fill(record, &task);
  } else {
    const core::PolicyPtr policy = MakePolicy(spec.policy, eval);
    Fill(sim::EvaluateTrial(model::Evaluator(eval), net, *policy), &task);
  }
  return task;
}

// The reference result: every task re-derived, then restored through a
// journal so that the engine's own merge folds the groups.
SweepResult Reference(const SweepGrid& grid, const model::EvalOptions& eval) {
  fault::MemVfs vfs;
  recover::JournalHeader header;
  header.fingerprint = Fingerprint(grid, eval);
  header.num_tasks = grid.NumTasks();
  {
    recover::JournalWriter::Options jopts;
    jopts.vfs = &vfs;
    recover::JournalWriter journal("ref.wjl", header, jopts);
    for (std::size_t i = 0; i < grid.NumTasks(); ++i) {
      const TaskResult task = Rederive(grid, eval, i);
      recover::TaskRecord rec;
      rec.index = i;
      rec.aggregate_mbps = task.aggregate_mbps;
      rec.jain_fairness = task.jain_fairness;
      rec.oracle_mbps = task.oracle_mbps;
      rec.regret = task.regret;
      rec.reassoc_per_user_epoch = task.reassoc_per_user_epoch;
      rec.quarantine_trips = task.quarantine_trips;
      rec.user_throughput = task.user_throughput.Samples();
      journal.Append(rec);
    }
  }
  SweepOptions opt;
  opt.eval = eval;
  opt.vfs = &vfs;
  opt.journal_path = "ref.wjl";
  opt.resume = true;
  std::size_t executed = 0;
  opt.before_task = [&executed](std::size_t) { ++executed; };
  SweepResult result = SweepEngine(opt).Run(grid);
  EXPECT_EQ(executed, 0u) << "the reference must restore every task";
  EXPECT_EQ(result.resumed_tasks, grid.NumTasks());
  return result;
}

SweepResult RunEngine(const SweepGrid& grid, const model::EvalOptions& eval,
                      int threads, std::size_t chunk = 0,
                      bool jitter = false) {
  SweepOptions opt;
  opt.threads = threads;
  opt.chunk = chunk;
  opt.eval = eval;
  opt.collect_metrics = true;
  if (jitter) {
    // Sleeps keyed on the task index scramble which executor claims which
    // task, and so which user of a slot computes it.
    opt.before_task = [](std::size_t index) {
      const std::uint64_t h = util::HashCombine64(index, 0x5A4EDULL);
      std::this_thread::sleep_for(std::chrono::microseconds(h % 500));
    };
  }
  return SweepEngine(opt).Run(grid);
}

std::uint64_t CounterValue(const obs::MetricsSnapshot& snap,
                           const std::string& name) {
  for (const obs::CounterSample& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

bool HasCounter(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const obs::CounterSample& c : snap.counters) {
    if (c.name == name) return true;
  }
  return false;
}

// Runs `grid` through the engine in every configuration and expects the
// reference's report bytes from each, and one deterministic metrics
// document across them. Returns the 1-thread run.
SweepResult ExpectMatchesRederivation(const SweepGrid& grid,
                                      const model::EvalOptions& eval) {
  const SweepResult want = Reference(grid, eval);
  for (const TaskResult& task : want.tasks) {
    EXPECT_TRUE(task.completed);
    EXPECT_TRUE(task.error.empty()) << task.error;
  }
  const SweepResult one = RunEngine(grid, eval, 1);
  const std::string metrics = one.metrics.DeterministicJson();
  struct Run {
    std::string what;
    SweepResult result;
  };
  std::vector<Run> runs;
  runs.push_back({"threads=1", one});
  runs.push_back({"threads=2", RunEngine(grid, eval, 2)});
  runs.push_back({"threads=4", RunEngine(grid, eval, 4)});
  runs.push_back({"threads=4 chunk=1 jitter", RunEngine(grid, eval, 4, 1,
                                                        /*jitter=*/true)});
  for (const Run& run : runs) {
    for (const TaskResult& task : run.result.tasks) {
      EXPECT_TRUE(task.error.empty()) << run.what << ": " << task.error;
    }
    EXPECT_EQ(TaskCsvString(run.result), TaskCsvString(want)) << run.what;
    EXPECT_EQ(GroupCsvString(run.result), GroupCsvString(want)) << run.what;
    EXPECT_EQ(JsonString(run.result), JsonString(want)) << run.what;
    EXPECT_EQ(run.result.metrics.DeterministicJson(), metrics) << run.what;
    EXPECT_FALSE(HasCounter(run.result.metrics, "sweep.shared.mismatched"))
        << run.what;
  }
  return one;
}

TEST(SweepSharedTest, StaticGridMatchesRederivation) {
  const SweepGrid grid = StaticGrid();
  ASSERT_EQ(grid.NumTasks(), 120u);
  const SweepResult one = ExpectMatchesRederivation(grid, {});
  // 6 scenarios of 20 tasks share a network: 6 owners, 114 reusers. Per
  // (scenario, sharing), 9 tasks share 4 plan-blind associations: WOLT's
  // (WOLT and WOLT-J at 0 channels, WOLT at 2), WOLT-S's, Greedy's and
  // RSSI's (each at 0 and 2 channels); 12 pairs give 48 owners and 60
  // reusers. WOLT-J at 2 channels solves on its own.
  EXPECT_EQ(CounterValue(one.metrics, "sweep.shared.computed"), 54u);
  EXPECT_EQ(CounterValue(one.metrics, "sweep.shared.reused"), 174u);
}

TEST(SweepSharedTest, DynamicGridMatchesRederivation) {
  const SweepGrid grid = DynamicGrid();
  ASSERT_EQ(grid.NumTasks(), 12u);
  const SweepResult one = ExpectMatchesRederivation(grid, {});
  // 2 scenarios of 6 tasks share a network, a trace and 3 epoch oracles
  // each: 10 slots of 6 users, so 10 owners and 50 reusers.
  EXPECT_EQ(CounterValue(one.metrics, "sweep.shared.computed"), 10u);
  EXPECT_EQ(CounterValue(one.metrics, "sweep.shared.reused"), 50u);
#if WOLT_OBS_ENABLED
  EXPECT_EQ(CounterValue(one.metrics, "workload.traces"), 2u);
  // 12 tasks score 3 epochs each against 6 oracles, one per scenario
  // epoch.
  EXPECT_EQ(CounterValue(one.metrics, "workload.frontier.epochs"), 36u);
  EXPECT_EQ(CounterValue(one.metrics, "workload.oracle.solves"), 6u);
#endif
}

// The PLC capacities of every scoring snapshot of `spec`'s replay, with the
// grid's quarantine or none. The oracle hook reads each snapshot and
// returns the in-place solve.
std::vector<std::vector<double>> SnapshotCapacities(
    const SweepGrid& grid, const TaskSpec& spec, bool quarantine) {
  const model::Network net = ScenarioNetwork(grid, spec);
  model::EvalOptions eval;
  eval.plc_sharing = spec.sharing;
  sim::FrontierParams fp = TaskFrontierParams(grid, spec, eval);
  if (!quarantine) fp.quarantine = {};
  std::vector<std::vector<double>> capacities;
  fp.oracle = [&](int, const model::Network& snapshot) {
    std::vector<double>& c = capacities.emplace_back();
    for (std::size_t j = 0; j < snapshot.NumExtenders(); ++j) {
      c.push_back(snapshot.PlcRate(j));
    }
    return sim::SolveFrontierOracle(snapshot, fp);
  };
  sim::RunTraceFrontier(net, TaskTrace(grid, spec, net),
                        MakePolicy(spec.policy, eval), fp);
  return capacities;
}

TEST(SweepSharedTest, QuarantinedSnapshotsShareOracles) {
  const SweepGrid grid = QuarantineGrid();
  ASSERT_EQ(grid.NumTasks(), 24u);
  const SweepResult one = ExpectMatchesRederivation(grid, {});
  // Per scenario, 12 tasks share a network and a trace, and each sharing
  // mode's 6 tasks share 3 epoch oracles: 2 scenarios x (2 + 6) slots
  // give 16 owners and 2 x (2 x 11 + 6 x 5) = 104 reusers.
  EXPECT_EQ(CounterValue(one.metrics, "sweep.shared.computed"), 16u);
  EXPECT_EQ(CounterValue(one.metrics, "sweep.shared.reused"), 104u);
#if WOLT_OBS_ENABLED
  EXPECT_EQ(CounterValue(one.metrics, "workload.oracle.solves"), 12u);
#endif

  // The quarantine trips, and it holds some snapshot's capacity at zero
  // where the replay without it would have restored the link.
  std::uint64_t trips = 0;
  for (const TaskResult& task : one.tasks) trips += task.quarantine_trips;
  EXPECT_GT(trips, 0u);
  std::size_t pinned = 0;
  for (std::size_t i = 0; i < grid.NumTasks(); ++i) {
    const TaskSpec spec = grid.TaskAt(i);
    const auto with = SnapshotCapacities(grid, spec, /*quarantine=*/true);
    const auto without = SnapshotCapacities(grid, spec, /*quarantine=*/false);
    ASSERT_EQ(with.size(), without.size());
    for (std::size_t e = 0; e < with.size(); ++e) {
      for (std::size_t j = 0; j < with[e].size(); ++j) {
        if (with[e][j] == 0.0 && without[e][j] > 0.0) ++pinned;
      }
    }
  }
  EXPECT_GT(pinned, 0u);
}

TEST(SweepSharedTest, ContentionDomainsKeepAssociationsPerTask) {
  const SweepGrid grid = ContentionGrid();
  const model::EvalOptions eval = ContentionEval();
  ASSERT_EQ(grid.NumTasks(), 18u);
  const SweepResult one = ExpectMatchesRederivation(grid, eval);
  // Only the 3 networks are shared (3 owners, 15 reusers).
  EXPECT_EQ(CounterValue(one.metrics, "sweep.shared.computed"), 3u);
  EXPECT_EQ(CounterValue(one.metrics, "sweep.shared.reused"), 15u);

  // The grid can tell: on some scenario WOLT-S's association under the
  // domains differs from the plan-blind one its channels = 2 task uses.
  std::size_t differing = 0;
  for (std::size_t i = 0; i < grid.NumTasks(); ++i) {
    const TaskSpec spec = grid.TaskAt(i);
    if (spec.num_channels != 0 || spec.policy != PolicyKind::kWoltSubset) {
      continue;
    }
    const model::Network net = ScenarioNetwork(grid, spec);
    const model::Assignment aware =
        MakePolicy(spec.policy, eval)->AssociateFresh(net);
    const model::Assignment blind =
        MakePolicy(spec.policy, {})->AssociateFresh(net);
    if (aware != blind) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

// The plan-blind association is solved once per (scenario, policy,
// sharing): adding the channels = 2 tasks, which read it, adds no
// association work. WOLT-J is left out because it solves on its own.
TEST(SweepSharedTest, ChannelTasksAddNoAssociationWork) {
#if WOLT_OBS_ENABLED
  SweepGrid both = StaticGrid();
  both.policies = {PolicyKind::kWolt, PolicyKind::kWoltSubset,
                   PolicyKind::kGreedy, PolicyKind::kRssi};
  SweepGrid orthogonal = both;
  orthogonal.num_channels = {0};
  const obs::MetricsSnapshot with = RunEngine(both, {}, 2).metrics;
  const obs::MetricsSnapshot without = RunEngine(orthogonal, {}, 2).metrics;
  for (const char* name :
       {"hungarian.solves", "hungarian.augment_steps", "ls.starts",
        "ls.relocate.generated", "ls.swap.generated"}) {
    EXPECT_GT(CounterValue(without, name), 0u) << name;
    EXPECT_EQ(CounterValue(with, name), CounterValue(without, name)) << name;
  }
#else
  GTEST_SKIP() << "WOLT_OBS=OFF: solver work counters compiled out";
#endif
}

}  // namespace
}  // namespace wolt::sweep
