// Kill-anywhere crash/resume property for the journaled sweep engine.
//
// Each round forks this binary (fork + execve of /proc/self/exe; a static
// initializer in the child detects the WOLT_CRASH_* environment and runs a
// journaled sweep instead of gtest), SIGKILLs the child from inside the
// after-append hook at a randomized task count, then resumes the journal
// in-process and byte-compares every reporter output (task CSV, group CSV,
// JSON, deterministic metrics JSON) against an uninterrupted golden run.
// Rounds cycle thread counts 1/2/4/8 and some rounds additionally tear the
// journal tail (truncation or appended garbage) or crash a second time
// during the resume itself.
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "recover/journal.h"
#include "sweep/engine.h"
#include "sweep/grid.h"
#include "sweep/report.h"
#include "util/rng.h"

namespace wolt::sweep {
namespace {

namespace fs = std::filesystem;

// Small but heterogeneous: 2 users x 1 extenders x 1 sharing x 2 policies
// x 6 seeds = 24 tasks.
SweepGrid CrashGrid() {
  SweepGrid grid;
  grid.master_seed = 0xC4A54ULL;
  grid.SeedRange(6);
  grid.users = {8, 12};
  grid.extenders = {3};
  grid.sharing = {model::PlcSharing::kMaxMinActive};
  grid.policies = {PolicyKind::kWolt, PolicyKind::kGreedy};
  return grid;
}

SweepOptions CrashOptions(int threads) {
  SweepOptions opt;
  opt.threads = threads;
  opt.collect_metrics = true;
  return opt;
}

// Crash-child mode: when WOLT_CRASH_JOURNAL is set, this process is a
// forked copy meant to run the journaled sweep and die. The static
// initializer runs before gtest's main, so the child never prints gtest
// output or runs tests.
const bool kCrashChildRan = [] {
  const char* journal = std::getenv("WOLT_CRASH_JOURNAL");
  if (journal == nullptr) return false;
  const char* kill_at_env = std::getenv("WOLT_CRASH_KILL_AT");
  const char* threads_env = std::getenv("WOLT_CRASH_THREADS");
  const std::size_t kill_at =
      kill_at_env ? std::strtoull(kill_at_env, nullptr, 10) : 1;
  const int threads = threads_env ? std::atoi(threads_env) : 1;

  SweepOptions opt = CrashOptions(threads);
  opt.journal_path = journal;
  opt.resume = std::getenv("WOLT_CRASH_RESUME") != nullptr;
  opt.after_journal_append = [kill_at](std::size_t appends) {
    if (appends == kill_at) {
      // Die with no warning, mid-sweep: exactly what a power-user's OOM
      // killer does.
      kill(getpid(), SIGKILL);
    }
  };
  SweepEngine engine(opt);
  try {
    engine.Run(CrashGrid());
  } catch (...) {
    std::_Exit(3);  // resume rejected — the parent asserts on this
  }
  std::_Exit(0);  // kill point not reached (fewer tasks left than kill_at)
}();

// Fork + exec ourselves in crash-child mode. Returns the child pid.
pid_t SpawnCrashChild(const std::string& journal, std::size_t kill_at,
                      int threads, bool resume) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  setenv("WOLT_CRASH_JOURNAL", journal.c_str(), 1);
  setenv("WOLT_CRASH_KILL_AT", std::to_string(kill_at).c_str(), 1);
  setenv("WOLT_CRASH_THREADS", std::to_string(threads).c_str(), 1);
  if (resume) {
    setenv("WOLT_CRASH_RESUME", "1", 1);
  } else {
    unsetenv("WOLT_CRASH_RESUME");
  }
  // execve a fresh copy: the child re-runs static initializers (where the
  // crash-mode branch lives) with a clean runtime — required under TSan,
  // which does not support running threads in a forked child otherwise.
  execl("/proc/self/exe", "/proc/self/exe", static_cast<char*>(nullptr));
  _exit(127);
}

// Waits for the child and asserts it died by SIGKILL (kill point reached)
// or exited 0 (sweep finished before the kill point). Returns true iff it
// was killed.
bool AwaitChild(pid_t pid) {
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  if (WIFSIGNALED(status)) {
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
    return true;
  }
  EXPECT_TRUE(WIFEXITED(status)) << "child neither exited nor was killed";
  EXPECT_EQ(WEXITSTATUS(status), 0) << "crash child failed outright";
  return false;
}

struct GoldenOutputs {
  std::string task_csv;
  std::string group_csv;
  std::string json;
  std::string metrics_json;
};

GoldenOutputs Render(const SweepResult& result) {
  GoldenOutputs out;
  out.task_csv = TaskCsvString(result);
  out.group_csv = GroupCsvString(result);
  out.json = JsonString(result);
  out.metrics_json = result.metrics.DeterministicJson();
  return out;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr int kRounds = 24;  // process spawns are slow under sanitizers
#else
constexpr int kRounds = 100;
#endif

TEST(CrashResume, KillAnywhereResumesByteIdentical) {
  const SweepGrid grid = CrashGrid();
  const std::size_t num_tasks = grid.NumTasks();
  ASSERT_EQ(num_tasks, 24u);

  const int thread_cycle[4] = {1, 2, 4, 8};
  GoldenOutputs golden[4];
  for (int t = 0; t < 4; ++t) {
    SweepEngine engine(CrashOptions(thread_cycle[t]));
    golden[t] = Render(engine.Run(grid));
    // Thread-count independence of the golden itself (belt and braces; the
    // determinism suite owns this property).
    EXPECT_EQ(golden[t].task_csv, golden[0].task_csv);
    EXPECT_EQ(golden[t].metrics_json, golden[0].metrics_json);
  }

  util::Rng rng(20260806);
  const std::string dir =
      (fs::temp_directory_path() / "wolt_crash_resume").string();
  fs::create_directories(dir);

  for (int round = 0; round < kRounds; ++round) {
    const int threads = thread_cycle[round % 4];
    const std::string journal =
        dir + "/round_" + std::to_string(round) + ".wal";
    const std::size_t kill_at = static_cast<std::size_t>(
        rng.UniformInt(1, static_cast<int>(num_tasks)));

    // Phase 1: fresh journaled run, SIGKILLed at the kill_at-th append.
    const bool killed =
        AwaitChild(SpawnCrashChild(journal, kill_at, threads, false));
    ASSERT_TRUE(killed) << "fresh run must reach its kill point";

    // Phase 2 (some rounds): hand-tear the journal tail — a mid-record
    // crash the SIGKILL-between-records hook cannot produce on its own.
    if (round % 3 == 1) {
      std::error_code ec;
      const std::uint64_t size = fs::file_size(journal, ec);
      ASSERT_FALSE(ec);
      if (size > 5) fs::resize_file(journal, size - 5, ec);
    } else if (round % 3 == 2) {
      std::ofstream out(journal, std::ios::binary | std::ios::app);
      out << "torn-garbage-from-a-dying-disk";
    }

    // Phase 3 (every other round): crash again, this time mid-resume.
    if (round % 2 == 1) {
      const std::size_t kill_again =
          static_cast<std::size_t>(rng.UniformInt(1, 4));
      AwaitChild(SpawnCrashChild(journal, kill_again, threads, true));
    }

    // Phase 4: resume to completion in-process and byte-compare.
    SweepOptions opt = CrashOptions(threads);
    opt.journal_path = journal;
    opt.resume = true;
    SweepEngine engine(opt);
    const SweepResult resumed = engine.Run(grid);
    // The tail-truncation rounds can legitimately destroy the single
    // journaled record of a kill_at=1 run; every other shape restores >= 1.
    if (round % 3 != 1) {
      EXPECT_GT(resumed.resumed_tasks, 0u) << "round " << round;
    }
    EXPECT_LE(resumed.resumed_tasks, num_tasks) << "round " << round;

    const GoldenOutputs got = Render(resumed);
    const GoldenOutputs& want = golden[round % 4];
    EXPECT_EQ(got.task_csv, want.task_csv) << "round " << round;
    EXPECT_EQ(got.group_csv, want.group_csv) << "round " << round;
    EXPECT_EQ(got.json, want.json) << "round " << round;
    EXPECT_EQ(got.metrics_json, want.metrics_json) << "round " << round;

    // The final journal must itself be a complete, clean record of the
    // sweep: resumable once more with nothing left to run.
    const recover::JournalReadResult check = recover::ReadJournal(journal);
    ASSERT_TRUE(check.ok) << "round " << round << ": " << check.error;
    EXPECT_EQ(check.records.size(), num_tasks) << "round " << round;
    EXPECT_EQ(check.torn_bytes, 0u) << "round " << round;

    fs::remove(journal);
  }
  fs::remove_all(dir);
}

TEST(CrashResume, ResumeRejectsForeignJournal) {
  const std::string path =
      (fs::temp_directory_path() / "wolt_crash_foreign.wal").string();
  // Journal a different grid (different seed => different fingerprint).
  SweepGrid other = CrashGrid();
  other.master_seed = 0xBADF00DULL;
  {
    SweepOptions opt = CrashOptions(1);
    opt.journal_path = path;
    SweepEngine engine(opt);
    engine.Run(other);
  }
  SweepOptions opt = CrashOptions(1);
  opt.journal_path = path;
  opt.resume = true;
  SweepEngine engine(opt);
  EXPECT_THROW(engine.Run(CrashGrid()), std::runtime_error);
  fs::remove(path);
}

// The rate table and the evaluation options change every task's result, so
// a journal written under one must not resume under another.
TEST(CrashResume, ResumeRejectsOtherRateTableOrEvalOptions) {
  const std::string path =
      (fs::temp_directory_path() / "wolt_crash_eval.wal").string();
  {
    SweepOptions opt = CrashOptions(1);
    opt.journal_path = path;
    SweepEngine(opt).Run(CrashGrid());
  }
  const auto resume = [&path](const SweepGrid& grid,
                              const model::EvalOptions& eval) {
    SweepOptions opt = CrashOptions(1);
    opt.journal_path = path;
    opt.resume = true;
    opt.eval = eval;
    return SweepEngine(opt).Run(grid);
  };

  SweepGrid g80211g = CrashGrid();
  g80211g.base.rate_table = wifi::RateTable::CiscoAironet80211g();
  EXPECT_THROW(resume(g80211g, {}), std::runtime_error);
  SweepGrid mac = CrashGrid();
  mac.base.rate_table = wifi::RateTable::Ieee80211nHt20(0.7);
  EXPECT_THROW(resume(mac, {}), std::runtime_error);

  model::EvalOptions channels;
  channels.wifi_channel = {0, 1, 0};
  EXPECT_THROW(resume(CrashGrid(), channels), std::runtime_error);
  model::EvalOptions domains;
  domains.wifi_contention_domain = {0, 0, 1};
  EXPECT_THROW(resume(CrashGrid(), domains), std::runtime_error);
  model::EvalOptions range;
  range.carrier_sense_range_m = 45.0;
  EXPECT_THROW(resume(CrashGrid(), range), std::runtime_error);

  // The same grid and options still resume (and restore every task).
  EXPECT_EQ(resume(CrashGrid(), {}).resumed_tasks, CrashGrid().NumTasks());
  fs::remove(path);
}

TEST(CrashResume, ResumeOfCompletedSweepRunsNothing) {
  const std::string path =
      (fs::temp_directory_path() / "wolt_crash_complete.wal").string();
  const SweepGrid grid = CrashGrid();
  GoldenOutputs want;
  {
    SweepOptions opt = CrashOptions(2);
    opt.journal_path = path;
    SweepEngine engine(opt);
    want = Render(engine.Run(grid));
  }
  SweepOptions opt = CrashOptions(2);
  opt.journal_path = path;
  opt.resume = true;
  std::atomic<int> executed{0};
  opt.before_task = [&](std::size_t) { ++executed; };
  SweepEngine engine(opt);
  const SweepResult resumed = engine.Run(grid);
  EXPECT_EQ(executed.load(), 0);  // every task restored, none re-run
  EXPECT_EQ(resumed.resumed_tasks, grid.NumTasks());
  const GoldenOutputs got = Render(resumed);
  EXPECT_EQ(got.task_csv, want.task_csv);
  EXPECT_EQ(got.metrics_json, want.metrics_json);
  fs::remove(path);
}

}  // namespace
}  // namespace wolt::sweep
