// Crash-consistency harness over the storage fault plane (fault/storage.h):
// enumerate EVERY I/O operation a journaled run performs, simulate a power
// cut at each one — in-process, no fork — and assert the PR 5/7 guarantees
// survive: the resumed run's output is byte-identical to an uninterrupted
// run, no task/round is duplicated or lost, and the fingerprint binding
// still rejects foreign journals.
//
// Mechanics: the run journals through FaultVfs(MemVfs) with crash_at_op=k —
// every operation from index k on is silently swallowed (the k-th write
// lands half its bytes: a torn final write), so the process "keeps running
// on a dead disk" exactly like a real power cut it hasn't noticed. The
// run's in-memory result is discarded, MemVfs::SimulateCrash() rolls the
// disk back to its durable image, and a resume run against the survivor
// must reproduce the golden bytes. A second exhaustive sweep injects
// ENOSPC at every op index instead and asserts graceful degradation: the
// run's *results* are byte-identical regardless, journaling just turns
// itself off. Bit-rot tests flip bits in completed journals and assert
// replay truncates to the last good checksum frame (recover.*.rot_truncated)
// instead of aborting. Two more sweep grids share work between tasks
// (networks, plan-blind associations, traces), so a resume recomputes a
// value whose owner it restored; the golden's deterministic metrics then
// catch a shared computation charged twice or to the wrong task.
//
// journal_sync_every_append is on throughout so every append is a distinct
// durable point — the sweep visits resume states that differ record by
// record. Under sanitizers the op grid is strided (process is ~10x slower);
// the ci.sh TSan lane runs the randomized 20-seed test instead.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "fault/storage.h"
#include "fleet/runtime.h"
#include "obs/obs.h"
#include "recover/fleet_journal.h"
#include "recover/journal.h"
#include "sweep/engine.h"
#include "sweep/grid.h"
#include "sweep/report.h"
#include "util/rng.h"

namespace wolt {
namespace {

using fault::FaultVfs;
using fault::MemVfs;
using fault::StorageFaultParams;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr std::uint64_t kStride = 7;  // sampled crash points (slow builds)
#else
constexpr std::uint64_t kStride = 1;  // exhaustive
#endif

const char kSweepJournal[] = "sweep.wal";
const char kFleetJournal[] = "fleet.wal";

// ---------------------------------------------------------------------------
// Sweep side: a 64-task journaled grid

// 2 users x 1 extenders x 1 sharing x 2 policies x 16 seeds = 64 tasks,
// each tiny (4-6 users, 2 extenders) so the exhaustive op sweep stays fast.
sweep::SweepGrid SweepCrashGrid() {
  sweep::SweepGrid grid;
  grid.master_seed = 0x57A6C4A5ULL;
  grid.SeedRange(16);
  grid.users = {4, 6};
  grid.extenders = {2};
  grid.sharing = {model::PlcSharing::kMaxMinActive};
  grid.policies = {sweep::PolicyKind::kWolt, sweep::PolicyKind::kGreedy};
  return grid;
}

// Grids whose tasks share work: 4 seeds x 2 channel counts x 3 policies =
// 24 tasks, where each scenario's network and its WOLT and Greedy
// plan-blind associations are computed once and read by the channels = 2
// tasks (and WOLT-J at 0 channels)...
sweep::SweepGrid SharedStaticCrashGrid() {
  sweep::SweepGrid grid;
  grid.master_seed = 0x5A4EDC4AULL;
  grid.SeedRange(4);
  grid.users = {8};
  grid.extenders = {3};
  grid.sharing = {model::PlcSharing::kMaxMinActive};
  grid.num_channels = {0, 2};
  grid.policies = {sweep::PolicyKind::kWolt, sweep::PolicyKind::kGreedy,
                   sweep::PolicyKind::kJointWolt};
  return grid;
}

// ... and 3 seeds x 2 reopt budgets x 2 policies = 12 trace-frontier tasks,
// where each scenario's network and trace are computed once for 4 tasks.
sweep::SweepGrid SharedDynamicCrashGrid() {
  sweep::SweepGrid grid;
  grid.master_seed = 0x5A4EDD1AULL;
  grid.SeedRange(3);
  grid.users = {6};
  grid.extenders = {3};
  grid.sharing = {model::PlcSharing::kMaxMinActive};
  grid.policies = {sweep::PolicyKind::kWolt, sweep::PolicyKind::kGreedy};
  grid.mobility = {sim::MobilityModel::kWaypoint};
  grid.churn_rates = {0.5};
  grid.reopt_budgets = {1, 2};
  grid.frontier_oracle_bf_max_users = 4;  // keeps the brute force small
  return grid;
}

sweep::SweepOptions SweepCrashOptions(int threads, io::Vfs* vfs,
                                      bool resume) {
  sweep::SweepOptions opt;
  opt.threads = threads;
  opt.collect_metrics = true;
  opt.journal_path = kSweepJournal;
  opt.journal_sync_every_append = true;
  opt.vfs = vfs;
  opt.resume = resume;
  return opt;
}

struct SweepGolden {
  std::string task_csv;
  std::string group_csv;
  std::string metrics_json;
};

SweepGolden RenderSweep(const sweep::SweepResult& result) {
  SweepGolden out;
  out.task_csv = sweep::TaskCsvString(result);
  out.group_csv = sweep::GroupCsvString(result);
  out.metrics_json = result.metrics.DeterministicJson();
  return out;
}

// Shared fixture state, built once per grid: the golden outputs and the op
// count of one clean journaled run (the exclusive crash/fail index bound).
struct SweepHarness {
  sweep::SweepGrid grid;
  SweepGolden golden;
  std::uint64_t ops = 0;

  explicit SweepHarness(sweep::SweepGrid g) : grid(std::move(g)) {
    MemVfs mem;
    FaultVfs counting(mem, StorageFaultParams{}, /*seed=*/0);
    sweep::SweepEngine engine(SweepCrashOptions(1, &counting, false));
    golden = RenderSweep(engine.Run(grid));
    ops = counting.op_count();
  }
};

const SweepHarness& Sweep() {
  static const SweepHarness harness(SweepCrashGrid());
  return harness;
}

const SweepHarness& SharedStaticSweep() {
  static const SweepHarness harness(SharedStaticCrashGrid());
  return harness;
}

const SweepHarness& SharedDynamicSweep() {
  static const SweepHarness harness(SharedDynamicCrashGrid());
  return harness;
}

// One crash point: run-on-dying-disk at `k`, power cut, resume, compare.
void CheckSweepCrashPoint(const SweepHarness& h, std::uint64_t k,
                          int threads) {
  MemVfs mem;
  StorageFaultParams params;
  params.crash_at_op = k;
  FaultVfs dying(mem, params, /*seed=*/k + 1);
  {
    sweep::SweepEngine engine(SweepCrashOptions(threads, &dying, false));
    engine.Run(h.grid);  // completes obliviously; results die with power
  }
  mem.SimulateCrash();

  sweep::SweepEngine engine(SweepCrashOptions(threads, &mem, true));
  const sweep::SweepResult resumed = engine.Run(h.grid);
  const std::size_t num_tasks = h.grid.NumTasks();
  ASSERT_FALSE(resumed.cancelled) << "crash op " << k;
  EXPECT_FALSE(resumed.journal_degraded) << "crash op " << k;
  EXPECT_LE(resumed.resumed_tasks, num_tasks) << "crash op " << k;

  const SweepGolden got = RenderSweep(resumed);
  EXPECT_EQ(got.task_csv, h.golden.task_csv) << "crash op " << k;
  EXPECT_EQ(got.group_csv, h.golden.group_csv) << "crash op " << k;
  EXPECT_EQ(got.metrics_json, h.golden.metrics_json) << "crash op " << k;

  // No lost or duplicated tasks: the healed journal holds exactly one
  // record per task and nothing else.
  const recover::JournalReadResult check =
      recover::ReadJournal(kSweepJournal, &mem);
  ASSERT_TRUE(check.ok) << "crash op " << k << ": " << check.error;
  EXPECT_EQ(check.records.size(), num_tasks) << "crash op " << k;
  EXPECT_EQ(check.torn_bytes, 0u) << "crash op " << k;
}

TEST(StorageCrashSweep, SixtyFourTasks) {
  ASSERT_EQ(Sweep().grid.NumTasks(), 64u);
  ASSERT_GE(Sweep().ops, 64u);  // at least one op per append
}

TEST(StorageCrashSweep, PowerCutAtEveryOpResumesByteIdenticalOneThread) {
  for (std::uint64_t k = 0; k <= Sweep().ops; k += kStride) {
    CheckSweepCrashPoint(Sweep(), k, /*threads=*/1);
  }
}

TEST(StorageCrashSweep, PowerCutAtEveryOpResumesByteIdenticalFourThreads) {
  // At 4 threads the op order is schedule-dependent; crash_at_op=k cuts
  // whatever schedule this run happened to take — the property must hold
  // for any of them. (ops from the 1-thread run bounds the index range;
  // indices past the actual count degenerate to a clean run, also fine.)
  for (std::uint64_t k = 0; k <= Sweep().ops; k += kStride) {
    CheckSweepCrashPoint(Sweep(), k, /*threads=*/4);
  }
}

// With shared work, a resume must charge a shared computation's metrics
// only to a slot owner it re-runs: a restored owner's record already
// carries them, whichever task recomputes the value now.
TEST(StorageCrashSweep, PowerCutWithSharedAssociationsOneThread) {
  const SweepHarness& h = SharedStaticSweep();
  for (std::uint64_t k = 0; k <= h.ops; k += kStride) {
    CheckSweepCrashPoint(h, k, /*threads=*/1);
  }
}

TEST(StorageCrashSweep, PowerCutWithSharedAssociationsFourThreads) {
  const SweepHarness& h = SharedStaticSweep();
  for (std::uint64_t k = 0; k <= h.ops; k += kStride) {
    CheckSweepCrashPoint(h, k, /*threads=*/4);
  }
}

TEST(StorageCrashSweep, PowerCutWithSharedTracesOneThread) {
  const SweepHarness& h = SharedDynamicSweep();
  for (std::uint64_t k = 0; k <= h.ops; k += kStride) {
    CheckSweepCrashPoint(h, k, /*threads=*/1);
  }
}

TEST(StorageCrashSweep, PowerCutWithSharedTracesFourThreads) {
  const SweepHarness& h = SharedDynamicSweep();
  for (std::uint64_t k = 0; k <= h.ops; k += kStride) {
    CheckSweepCrashPoint(h, k, /*threads=*/4);
  }
}

TEST(StorageCrashSweep, EnospcAtEveryOpDegradesGracefully) {
  const SweepHarness& h = Sweep();
  bool saw_degraded = false;
  for (std::uint64_t k = 0; k <= h.ops; k += kStride) {
    MemVfs mem;
    StorageFaultParams params;
    params.fail_at_op = k;  // fail_at_op_err defaults to ENOSPC
    FaultVfs full_disk(mem, params, /*seed=*/k + 1);
    sweep::SweepEngine engine(SweepCrashOptions(1, &full_disk, false));
    const sweep::SweepResult result = engine.Run(h.grid);

    // The run's results never depend on journal health.
    const SweepGolden got = RenderSweep(result);
    EXPECT_EQ(got.task_csv, h.golden.task_csv) << "fail op " << k;
    EXPECT_EQ(got.metrics_json, h.golden.metrics_json) << "fail op " << k;
    saw_degraded = saw_degraded || result.journal_degraded;

    // Whatever survived on disk is a clean prefix — replay never chokes.
    const recover::JournalReadResult check =
        recover::ReadJournal(kSweepJournal, &mem);
    if (check.ok) {
      EXPECT_LE(check.records.size(), h.grid.NumTasks()) << "fail op " << k;
    }
  }
  EXPECT_TRUE(saw_degraded);  // at least the op-0 open failure degrades
}

TEST(StorageCrashSweep, BitRotReplaysToLastGoodFrame) {
  const SweepHarness& h = Sweep();
  MemVfs mem;
  {
    sweep::SweepEngine engine(SweepCrashOptions(1, &mem, false));
    engine.Run(h.grid);
  }
  const std::optional<std::string> bytes = mem.GetFileBytes(kSweepJournal);
  ASSERT_TRUE(bytes.has_value());
  ASSERT_TRUE(mem.FlipBit(kSweepJournal, (bytes->size() - 3) * 8));

  obs::MetricsRegistry reg;
  obs::ScopedMetrics scoped(reg);
  const recover::JournalReadResult rotted =
      recover::ReadJournal(kSweepJournal, &mem);
  ASSERT_TRUE(rotted.ok) << rotted.error;  // truncated, not aborted
  EXPECT_TRUE(rotted.tail_rot);
  EXPECT_LT(rotted.records.size(), h.grid.NumTasks());

  sweep::SweepEngine engine(SweepCrashOptions(1, &mem, true));
  const SweepGolden got = RenderSweep(engine.Run(h.grid));
  EXPECT_EQ(got.task_csv, h.golden.task_csv);
  EXPECT_EQ(got.metrics_json, h.golden.metrics_json);
#if WOLT_OBS_ENABLED
  EXPECT_GE(reg.GetCounter("recover.journal.rot_truncated").Value(), 1u);
#endif
}

TEST(StorageCrashSweep, FingerprintBindingSurvivesCrashes) {
  // Crash a journaled run for grid A, then try to resume grid B over the
  // survivor: the binding must still be enforced on the faulted disk.
  const SweepHarness& h = Sweep();
  MemVfs mem;
  StorageFaultParams params;
  params.crash_at_op = 40;  // past the header: a valid journal survives
  FaultVfs dying(mem, params, /*seed=*/1);
  {
    sweep::SweepEngine engine(SweepCrashOptions(1, &dying, false));
    engine.Run(h.grid);
  }
  mem.SimulateCrash();
  ASSERT_TRUE(recover::ReadJournal(kSweepJournal, &mem).ok);

  sweep::SweepGrid other = h.grid;
  other.master_seed ^= 0xBADF00DULL;
  sweep::SweepEngine engine(SweepCrashOptions(1, &mem, true));
  EXPECT_THROW(engine.Run(other), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Fleet side: a 16-shard journaled run

constexpr std::size_t kFleetShards = 16;
constexpr std::uint64_t kFleetRounds = 4;
constexpr std::uint64_t kFleetSeed = 0xF1EE7D15CULL;

fleet::FleetParams FleetCrashParams(int threads, io::Vfs* vfs, bool resume) {
  fleet::FleetParams p;
  p.num_shards = kFleetShards;
  p.rounds = kFleetRounds;
  p.threads = threads;
  p.queue_capacity = kFleetShards * 6;
  p.batch_per_shard = 8;
  p.chaos_from = 1;
  p.chaos_to = 3;
  fault::WireFaults w;
  w.loss = 0.05;
  w.corrupt = 0.15;
  p.shard.wire = fault::FaultPlaneParams::Uniform(w);
  p.shard.plc_crash_prob = 0.12;
  p.shard.departure_prob = 0.08;
  p.poison_shards = {5};
  p.poison_from = 1;
  p.poison_to = ~std::uint64_t{0};
  p.supervisor.backoff_initial = 1;
  p.supervisor.crash_loop_threshold = 2;
  p.supervisor.crash_loop_window = 8;
  p.supervisor.probe_after = 5;
  p.reopt_units_per_round = kFleetShards * 2;
  p.journal_path = kFleetJournal;
  p.snapshot_every = 2;
  p.journal_sync_every_append = true;
  p.vfs = vfs;
  p.resume = resume;
  return p;
}

struct FleetHarness {
  std::string golden;
  std::uint64_t ops = 0;

  FleetHarness() {
    MemVfs mem;
    FaultVfs counting(mem, StorageFaultParams{}, /*seed=*/0);
    fleet::FleetRuntime fleet(FleetCrashParams(1, &counting, false),
                              kFleetSeed);
    const fleet::FleetResult result = fleet.Run();
    EXPECT_TRUE(result.completed) << result.error;
    golden = result.Report();
    ops = counting.op_count();
  }
};

const FleetHarness& Fleet() {
  static const FleetHarness harness;
  return harness;
}

void CheckFleetCrashPoint(std::uint64_t k, int threads) {
  const FleetHarness& h = Fleet();
  MemVfs mem;
  StorageFaultParams params;
  params.crash_at_op = k;
  FaultVfs dying(mem, params, /*seed=*/k + 1);
  {
    fleet::FleetRuntime fleet(FleetCrashParams(threads, &dying, false),
                              kFleetSeed);
    const fleet::FleetResult doomed = fleet.Run();
    ASSERT_TRUE(doomed.completed) << "crash op " << k << ": " << doomed.error;
  }
  mem.SimulateCrash();

  fleet::FleetRuntime fleet(FleetCrashParams(threads, &mem, true),
                            kFleetSeed);
  const fleet::FleetResult resumed = fleet.Run();
  ASSERT_TRUE(resumed.completed) << "crash op " << k << ": " << resumed.error;
  EXPECT_FALSE(resumed.journal_degraded) << "crash op " << k;
  EXPECT_EQ(resumed.Report(), h.golden) << "crash op " << k;
  EXPECT_LE(resumed.resumed_rounds, kFleetRounds) << "crash op " << k;

  const recover::FleetJournalReadResult check =
      recover::ReadFleetJournal(kFleetJournal, &mem);
  ASSERT_TRUE(check.ok) << "crash op " << k << ": " << check.error;
  EXPECT_TRUE(check.has_checkpoint) << "crash op " << k;
  EXPECT_EQ(check.checkpoint_round, kFleetRounds - 1) << "crash op " << k;
}

TEST(StorageCrashFleet, GoldenIsThreadCountIndependent) {
  MemVfs mem;
  fleet::FleetRuntime fleet(FleetCrashParams(4, &mem, false), kFleetSeed);
  const fleet::FleetResult result = fleet.Run();
  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_EQ(result.Report(), Fleet().golden);
}

TEST(StorageCrashFleet, PowerCutAtEveryOpResumesByteIdenticalOneThread) {
  for (std::uint64_t k = 0; k <= Fleet().ops; k += kStride) {
    CheckFleetCrashPoint(k, /*threads=*/1);
  }
}

TEST(StorageCrashFleet, PowerCutAtEveryOpResumesByteIdenticalFourThreads) {
  for (std::uint64_t k = 0; k <= Fleet().ops; k += kStride) {
    CheckFleetCrashPoint(k, /*threads=*/4);
  }
}

TEST(StorageCrashFleet, BitRotReplaysToLastValidFrame) {
  const FleetHarness& h = Fleet();
  MemVfs mem;
  {
    fleet::FleetRuntime fleet(FleetCrashParams(1, &mem, false), kFleetSeed);
    ASSERT_TRUE(fleet.Run().completed);
  }
  const std::optional<std::string> bytes = mem.GetFileBytes(kFleetJournal);
  ASSERT_TRUE(bytes.has_value());
  ASSERT_TRUE(mem.FlipBit(kFleetJournal, (bytes->size() - 3) * 8));

  obs::MetricsRegistry reg;
  obs::ScopedMetrics scoped(reg);
  const recover::FleetJournalReadResult rotted =
      recover::ReadFleetJournal(kFleetJournal, &mem);
  ASSERT_TRUE(rotted.ok) << rotted.error;  // truncated, not aborted
  EXPECT_TRUE(rotted.tail_rot);

  fleet::FleetRuntime fleet(FleetCrashParams(1, &mem, true), kFleetSeed);
  const fleet::FleetResult resumed = fleet.Run();
  ASSERT_TRUE(resumed.completed) << resumed.error;
  EXPECT_EQ(resumed.Report(), h.golden);
#if WOLT_OBS_ENABLED
  EXPECT_GE(reg.GetCounter("recover.fleet.rot_truncated").Value(), 1u);
#endif
}

// ---------------------------------------------------------------------------
// Randomized lane (the TSan ci.sh smoke: cheap, schedule-hungry)

TEST(StorageCrashRandomized, TwentyRandomCrashPoints) {
  util::Rng rng(20260807);
  const int threads_cycle[3] = {1, 2, 4};
  for (int i = 0; i < 20; ++i) {
    const int threads = threads_cycle[i % 3];
    if (i % 2 == 0) {
      const std::uint64_t k = static_cast<std::uint64_t>(
          rng.UniformInt(0, static_cast<int>(Sweep().ops)));
      CheckSweepCrashPoint(Sweep(), k, threads);
    } else {
      const std::uint64_t k = static_cast<std::uint64_t>(
          rng.UniformInt(0, static_cast<int>(Fleet().ops)));
      CheckFleetCrashPoint(k, threads);
    }
  }
}

}  // namespace
}  // namespace wolt
