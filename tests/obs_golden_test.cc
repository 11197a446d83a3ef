// Golden lockdown of the deterministic metrics contract: one fixed sweep
// scenario run at 1/2/4/8 threads must produce a merged deterministic
// snapshot (MetricsSnapshot::DeterministicJson — the timing-quarantined
// section excluded) that is byte-identical across every thread count AND
// byte-identical to the committed golden under tests/data/obs_golden/.
//
// The golden pins the exact solver work profile (Hungarian augment steps,
// local-search candidates generated/pruned/evaluated/accepted, insertion
// counts, ...) of the scenario: any change to solver behaviour — intended
// or not — shows up as a golden diff that must be reviewed and re-recorded.
//
// Re-record after an intentional solver change with:
//   WOLT_REGEN_OBS_GOLDEN=1 ./obs_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "sweep/engine.h"
#include "sweep/grid.h"

#ifndef WOLT_TEST_DATA_DIR
#error "WOLT_TEST_DATA_DIR must point at tests/data"
#endif

namespace wolt {
namespace {

namespace fs = std::filesystem;

// Fixed scenario: 2 sharing modes x 4 policies x 25 replicates = 200 tasks
// on a 14-user / 4-extender floor (big enough to exercise every solver
// stage, small enough for four full runs in seconds).
sweep::SweepGrid GoldenGrid() {
  sweep::SweepGrid grid;
  grid.master_seed = 0x601d;
  grid.SeedRange(25);
  grid.users = {14};
  grid.extenders = {4};
  grid.sharing = {model::PlcSharing::kMaxMinActive,
                  model::PlcSharing::kEqualAll};
  grid.policies = {sweep::PolicyKind::kWolt, sweep::PolicyKind::kWoltSubset,
                   sweep::PolicyKind::kGreedy, sweep::PolicyKind::kRssi};
  grid.base.width_m = 60.0;
  grid.base.height_m = 60.0;
  return grid;
}

std::string RunAtThreads(int threads) {
  sweep::SweepOptions options;
  options.threads = threads;
  options.collect_metrics = true;
  sweep::SweepEngine engine(options);
  const sweep::SweepResult result = engine.Run(GoldenGrid());
  EXPECT_FALSE(result.cancelled);
  for (const auto& task : result.tasks) {
    EXPECT_TRUE(task.error.empty()) << task.error;
  }
  return result.metrics.DeterministicJson();
}

TEST(ObsGoldenTest, DeterministicSnapshotIdenticalAcrossThreadCounts) {
  const std::string at1 = RunAtThreads(1);
  EXPECT_FALSE(at1.empty());
  // The deterministic section must carry real content: at minimum the task
  // accounting counter.
  EXPECT_NE(at1.find("\"sweep.tasks.completed\":200"), std::string::npos)
      << at1;
  // And must not leak any timing-quarantined metric.
  EXPECT_EQ(at1.find("\"timing\""), std::string::npos);
  EXPECT_EQ(at1.find("sweep.task_latency_us"), std::string::npos);
  EXPECT_EQ(at1.find("sweep.wall_seconds"), std::string::npos);
  EXPECT_EQ(at1.find("sweep.threads"), std::string::npos);
  EXPECT_EQ(at1.find("sweep.steals"), std::string::npos);

  for (const int threads : {2, 4, 8}) {
    const std::string at_n = RunAtThreads(threads);
    EXPECT_EQ(at1, at_n) << "deterministic snapshot diverged at threads="
                         << threads;
  }

#if WOLT_OBS_ENABLED
  // Solver hooks are compiled in: the full per-stage work profile must be
  // present and match the committed golden byte-for-byte.
  EXPECT_NE(at1.find("\"hungarian.solves\""), std::string::npos);
  EXPECT_NE(at1.find("\"ls.relocate.generated\""), std::string::npos);

  const fs::path golden_path = fs::path(WOLT_TEST_DATA_DIR) / "obs_golden" /
                                "sweep_metrics_deterministic.json";
  if (std::getenv("WOLT_REGEN_OBS_GOLDEN") != nullptr) {
    fs::create_directories(golden_path.parent_path());
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out) << golden_path;
    out << at1 << "\n";
    GTEST_SKIP() << "golden re-recorded at " << golden_path;
  }

  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << golden_path
                  << " — record it with WOLT_REGEN_OBS_GOLDEN=1";
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(at1 + "\n", buf.str())
      << "deterministic metrics diverged from the committed golden; if the "
         "solver change is intentional, re-record with "
         "WOLT_REGEN_OBS_GOLDEN=1";
#else
  GTEST_SKIP() << "WOLT_OBS=OFF: hook counters compiled out; thread-count "
                  "invariance checked, golden comparison skipped";
#endif
}

// The engine's timing telemetry must still exist in the full snapshot —
// quarantined, not dropped.
TEST(ObsGoldenTest, TimingSectionCarriesQuarantinedMetrics) {
  sweep::SweepOptions options;
  options.threads = 2;
  options.collect_metrics = true;
  sweep::SweepEngine engine(options);
  const sweep::SweepResult result = engine.Run(GoldenGrid());
  const std::string full = result.metrics.Json(/*include_timing=*/true);
  EXPECT_NE(full.find("\"timing\""), std::string::npos);
  EXPECT_NE(full.find("\"sweep.task_latency_us\""), std::string::npos);
  EXPECT_NE(full.find("\"sweep.wall_seconds\""), std::string::npos);
  EXPECT_NE(full.find("\"sweep.threads\""), std::string::npos);
}

}  // namespace
}  // namespace wolt
