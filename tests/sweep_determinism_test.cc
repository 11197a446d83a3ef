// The sweep engine's determinism contract: over a 200-task grid, the merged
// results of 1-, 2-, 4- and 8-thread runs are bit-identical (exact double
// equality, not tolerance comparison) — including when task completion
// order is deliberately shuffled with per-task sleeps — and reporter output
// is byte-identical across thread counts. The same holds for a grid on the
// channels axis (the joint task body, WOLT-J included) and for a grid on
// the dynamic-workload axes (the trace-frontier task body). Cancellation
// stops claiming work but never corrupts the tasks that did run.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sweep/engine.h"
#include "sweep/grid.h"
#include "sim/workload.h"
#include "sweep/report.h"
#include "util/rng.h"

namespace wolt::sweep {
namespace {

// 25 seeds x 2 users x 1 extenders x 2 sharing x 2 policies = 200 tasks.
SweepGrid TestGrid() {
  SweepGrid grid;
  grid.master_seed = 0xD5EEDULL;
  grid.SeedRange(25);
  grid.users = {16, 24};
  grid.extenders = {8};
  grid.sharing = {model::PlcSharing::kMaxMinActive, model::PlcSharing::kEqualAll};
  grid.policies = {PolicyKind::kWolt, PolicyKind::kRssi};
  return grid;
}

// 4 seeds x 2 channel counts x 3 policies = 24 tasks. With 3 channels every
// task goes through the joint task body: WOLT-J runs the alternating joint
// solver, the others a plan-blind solve paired with a naive colouring.
SweepGrid JointGrid() {
  SweepGrid grid;
  grid.master_seed = 0x101E7ULL;
  grid.SeedRange(4);
  grid.users = {20};
  grid.extenders = {8};
  grid.sharing = {model::PlcSharing::kMaxMinActive};
  grid.num_channels = {0, 3};
  grid.policies = {PolicyKind::kWolt, PolicyKind::kRssi,
                   PolicyKind::kJointWolt};
  return grid;
}

// 3 seeds x 2 budgets x 2 policies = 12 trace-frontier tasks. 12 initial
// users is above frontier_oracle_bf_max_users (9), so the per-epoch oracle
// falls back to WOLT-S; the diurnal curve replays load events; background
// traffic that silences the PLC domain now and then trips the flap
// quarantine.
SweepGrid DynamicGrid() {
  SweepGrid grid;
  grid.master_seed = 0xD1A7ULL;
  grid.SeedRange(3);
  grid.users = {12};
  grid.extenders = {8};
  grid.sharing = {model::PlcSharing::kMaxMinActive};
  grid.policies = {PolicyKind::kWolt, PolicyKind::kGreedy};
  grid.mobility = {sim::MobilityModel::kWaypoint};
  grid.churn_rates = {0.5};
  grid.load_curves = {sim::LoadCurve::kDiurnal};
  grid.reopt_budgets = {1, 4};
  grid.workload.background_share = 1.0;
  grid.workload.background_flip_rate = 0.1;
  grid.frontier_quarantine.flap_threshold = 2;
  grid.frontier_quarantine.hold = 3.0;
  return grid;
}

SweepResult RunGrid(const SweepGrid& grid, int threads, std::size_t chunk = 0,
                    std::function<void(std::size_t)> before_task = {}) {
  SweepOptions opt;
  opt.threads = threads;
  opt.chunk = chunk;
  opt.before_task = std::move(before_task);
  SweepEngine engine(opt);
  return engine.Run(grid);
}

void ExpectAccumBitIdentical(const util::Accumulator& a,
                             const util::Accumulator& b,
                             const std::string& what) {
  EXPECT_EQ(a.Count(), b.Count()) << what;
  EXPECT_EQ(a.Mean(), b.Mean()) << what;
  EXPECT_EQ(a.Variance(), b.Variance()) << what;
  EXPECT_EQ(a.Min(), b.Min()) << what;
  EXPECT_EQ(a.Max(), b.Max()) << what;
  EXPECT_EQ(a.Sum(), b.Sum()) << what;
  EXPECT_EQ(a.SumSquares(), b.SumSquares()) << what;
  ASSERT_EQ(a.Samples().size(), b.Samples().size()) << what;
  for (std::size_t i = 0; i < a.Samples().size(); ++i) {
    EXPECT_EQ(a.Samples()[i], b.Samples()[i]) << what << " sample " << i;
  }
}

void ExpectBitIdentical(const SweepResult& a, const SweepResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.cancelled, b.cancelled) << what;
  ASSERT_EQ(a.tasks.size(), b.tasks.size()) << what;
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    const std::string where = what + " task " + std::to_string(i);
    EXPECT_EQ(a.tasks[i].completed, b.tasks[i].completed) << where;
    EXPECT_EQ(a.tasks[i].error, b.tasks[i].error) << where;
    EXPECT_EQ(a.tasks[i].aggregate_mbps, b.tasks[i].aggregate_mbps) << where;
    EXPECT_EQ(a.tasks[i].jain_fairness, b.tasks[i].jain_fairness) << where;
    EXPECT_EQ(a.tasks[i].oracle_mbps, b.tasks[i].oracle_mbps) << where;
    EXPECT_EQ(a.tasks[i].regret, b.tasks[i].regret) << where;
    EXPECT_EQ(a.tasks[i].reassoc_per_user_epoch,
              b.tasks[i].reassoc_per_user_epoch)
        << where;
    EXPECT_EQ(a.tasks[i].quarantine_trips, b.tasks[i].quarantine_trips)
        << where;
    ExpectAccumBitIdentical(a.tasks[i].user_throughput,
                            b.tasks[i].user_throughput, where);
  }
  ASSERT_EQ(a.groups.size(), b.groups.size()) << what;
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    const std::string where = what + " group " + std::to_string(g);
    ExpectAccumBitIdentical(a.groups[g].aggregate_mbps,
                            b.groups[g].aggregate_mbps, where + " aggregate");
    ExpectAccumBitIdentical(a.groups[g].jain, b.groups[g].jain,
                            where + " jain");
    ExpectAccumBitIdentical(a.groups[g].user_throughput,
                            b.groups[g].user_throughput, where + " users");
  }
  // The reporters must emit the same bytes (timings excluded by default).
  EXPECT_EQ(TaskCsvString(a), TaskCsvString(b)) << what;
  EXPECT_EQ(GroupCsvString(a), GroupCsvString(b)) << what;
  EXPECT_EQ(JsonString(a), JsonString(b)) << what;
}

// Runs `grid` at 1 thread into `baseline`, requires every task to have
// completed without error, and expects 2-, 4- and 8-thread runs to
// reproduce it bit for bit.
void ExpectThreadCountInvariant(const SweepGrid& grid, SweepResult* baseline) {
  *baseline = RunGrid(grid, 1);
  ASSERT_FALSE(baseline->cancelled);
  for (const TaskResult& task : baseline->tasks) {
    ASSERT_TRUE(task.completed);
    ASSERT_TRUE(task.error.empty()) << task.error;
  }
  for (int threads : {2, 4, 8}) {
    const SweepResult parallel = RunGrid(grid, threads);
    ExpectBitIdentical(*baseline, parallel,
                       "threads=" + std::to_string(threads));
  }
}

TEST(SweepDeterminismTest, ThreadCountNeverChangesResults) {
  const SweepGrid grid = TestGrid();
  ASSERT_EQ(grid.NumTasks(), 200u);
  SweepResult baseline;
  ExpectThreadCountInvariant(grid, &baseline);
  for (const TaskResult& task : baseline.tasks) {
    EXPECT_GT(task.aggregate_mbps, 0.0);
  }
}

TEST(SweepDeterminismTest, JointChannelAxisIsThreadCountInvariant) {
  const SweepGrid grid = JointGrid();
  ASSERT_EQ(grid.NumTasks(), 24u);
  SweepResult baseline;
  ExpectThreadCountInvariant(grid, &baseline);
  for (const TaskResult& task : baseline.tasks) {
    EXPECT_GT(task.aggregate_mbps, 0.0);
  }
}

TEST(SweepDeterminismTest, DynamicAxesAreThreadCountInvariant) {
  const SweepGrid grid = DynamicGrid();
  ASSERT_EQ(grid.NumTasks(), 12u);
  SweepResult baseline;
  ExpectThreadCountInvariant(grid, &baseline);
  std::uint64_t trips = 0;
  for (const TaskResult& task : baseline.tasks) {
    ASSERT_TRUE(task.spec.IsDynamic());
    EXPECT_GT(task.oracle_mbps, 0.0);
    trips += task.quarantine_trips;
  }
  EXPECT_GT(trips, 0u) << "no task exercised the flap quarantine";
}

TEST(SweepDeterminismTest, ShuffledCompletionOrderChangesNothing) {
  const SweepGrid grid = TestGrid();
  const SweepResult baseline = RunGrid(grid, 1);

  // chunk=1 + deterministic per-task sleeps (keyed on the hashed task index,
  // NOT thread identity) scrambles which executor claims which task and the
  // order results land in memory.
  const auto jitter = [](std::size_t index) {
    const std::uint64_t h = util::HashCombine64(index, 0x5117F1EULL);
    std::this_thread::sleep_for(std::chrono::microseconds(h % 700));
  };
  const SweepResult shuffled = RunGrid(grid, 4, /*chunk=*/1, jitter);
  ExpectBitIdentical(baseline, shuffled, "shuffled");
}

TEST(SweepDeterminismTest, RepeatedRunsAreIdentical) {
  const SweepGrid grid = TestGrid();
  SweepOptions options;
  options.threads = 4;
  SweepEngine engine(options);
  const SweepResult first = engine.Run(grid);
  const SweepResult second = engine.Run(grid);  // engine state must not leak
  ExpectBitIdentical(first, second, "rerun");
}

TEST(SweepDeterminismTest, CancellationPreservesCompletedTasks) {
  const SweepGrid grid = TestGrid();
  const SweepResult baseline = RunGrid(grid, 1);

  SweepEngine* live = nullptr;
  SweepOptions opt;
  opt.threads = 4;
  opt.chunk = 1;
  opt.before_task = [&live](std::size_t index) {
    if (index == 60) live->Cancel();
  };
  SweepEngine engine(opt);
  live = &engine;
  const SweepResult cancelled = engine.Run(grid);

  EXPECT_TRUE(cancelled.cancelled);
  std::size_t completed = 0;
  for (std::size_t i = 0; i < cancelled.tasks.size(); ++i) {
    if (!cancelled.tasks[i].completed) continue;
    ++completed;
    EXPECT_EQ(cancelled.tasks[i].aggregate_mbps,
              baseline.tasks[i].aggregate_mbps)
        << "task " << i;
    EXPECT_EQ(cancelled.tasks[i].jain_fairness, baseline.tasks[i].jain_fairness)
        << "task " << i;
  }
  EXPECT_GE(completed, 1u);
  EXPECT_LT(completed, grid.NumTasks());
}

TEST(SweepDeterminismTest, ToPolicyTrialsStableAcrossThreads) {
  SweepGrid grid;
  grid.master_seed = 77;
  grid.SeedRange(8);
  grid.users = {12};
  grid.extenders = {6};
  grid.sharing = {model::PlcSharing::kMaxMinActive};
  grid.policies = {PolicyKind::kWolt, PolicyKind::kGreedy, PolicyKind::kRssi};

  const auto seq = ToPolicyTrials(grid, RunGrid(grid, 1));
  const auto par = ToPolicyTrials(grid, RunGrid(grid, 8));
  ASSERT_EQ(seq.size(), par.size());
  ASSERT_EQ(seq.size(), grid.policies.size());
  for (std::size_t p = 0; p < seq.size(); ++p) {
    EXPECT_EQ(seq[p].policy, par[p].policy);
    ASSERT_EQ(seq[p].trials.size(), par[p].trials.size());
    ASSERT_EQ(seq[p].trials.size(), grid.seeds.size());
    for (std::size_t t = 0; t < seq[p].trials.size(); ++t) {
      EXPECT_EQ(seq[p].trials[t].aggregate_mbps,
                par[p].trials[t].aggregate_mbps);
      EXPECT_EQ(seq[p].trials[t].user_throughput_mbps,
                par[p].trials[t].user_throughput_mbps);
    }
  }
}

}  // namespace
}  // namespace wolt::sweep
