// Fleet-runtime microbenchmarks (google-benchmark): sustained control-plane
// message throughput of the sharded round loop at increasing fleet sizes and
// thread counts (reoptimization priced in virtual TierCost units), and
// crash-recovery latency (journal replay + state restore).
// --benchmark_format=json prints a machine-readable run; the repository's
// benchmark record is perfbench/.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

#include "bench_util.h"
#include "fault/storage.h"
#include "fleet/runtime.h"
#include "recover/fleet_journal.h"
#include "util/codec.h"

namespace {

using namespace wolt;

fleet::FleetParams BenchParams(std::size_t shards, std::uint64_t rounds,
                               int threads) {
  fleet::FleetParams p;
  p.num_shards = shards;
  p.rounds = rounds;
  p.threads = threads;
  p.queue_capacity = shards * 6;  // sustained mild overload: shedding active
  p.batch_per_shard = 8;
  p.chaos_from = 1;
  p.chaos_to = rounds;
  fault::WireFaults w;
  w.loss = 0.05;
  w.duplicate = 0.05;
  w.corrupt = 0.1;
  p.shard.wire = fault::FaultPlaneParams::Uniform(w);
  p.shard.plc_crash_prob = 0.05;
  p.shard.departure_prob = 0.05;
  p.reopt_units_per_round = shards + 2;  // budget-starved ladder scheduling
  return p;
}

// Sustained fleet throughput: construct + run a whole fleet per iteration,
// reporting control-plane messages ingested per second of wall time. The
// parallel phase scales with threads; the serial phases (queue, scheduler,
// supervisor, journal-less bookkeeping) are the Amdahl floor this benchmark
// makes visible.
void BM_FleetRound(benchmark::State& state) {
  const std::size_t shards = static_cast<std::size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  constexpr std::uint64_t kRounds = 6;
  std::uint64_t messages = 0;
  double shed_fraction = 0.0;
  for (auto _ : state) {
    fleet::FleetRuntime fleet(BenchParams(shards, kRounds, threads),
                              0xBE7CF1EE7ULL);
    const fleet::FleetResult result = fleet.Run();
    messages += result.queue.enqueued;
    shed_fraction = result.queue.enqueued
                        ? static_cast<double>(result.queue.shed) /
                              static_cast<double>(result.queue.enqueued)
                        : 0.0;
    benchmark::DoNotOptimize(result.shard_records.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
  state.counters["shed_fraction"] = shed_fraction;
}
BENCHMARK(BM_FleetRound)
    ->ArgNames({"shards", "threads"})
    ->Args({64, 1})
    ->Args({64, 8})
    ->Args({256, 1})
    ->Args({256, 8})
    ->Args({1024, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Crash-recovery latency: replay a completed fleet journal (read, validate,
// restore the snapshot into a fresh fleet). This is the time-to-first-round
// a resumed fleet pays after a SIGKILL.
void BM_FleetJournalReplay(benchmark::State& state) {
  namespace fs = std::filesystem;
  const std::size_t shards = static_cast<std::size_t>(state.range(0));
  const std::string path =
      (fs::temp_directory_path() / "wolt_bench_fleet_replay.wal").string();
  fleet::FleetParams p = BenchParams(shards, 6, 8);
  p.journal_path = path;
  {
    fleet::FleetRuntime fleet(p, 0xBE7CF1EE7ULL);
    fleet.Run();
  }
  for (auto _ : state) {
    const recover::FleetJournalReadResult read =
        recover::ReadFleetJournal(path);
    fleet::FleetRuntime fleet(p, 0xBE7CF1EE7ULL);
    util::ByteCursor cur(read.checkpoint_blob);
    const bool ok = fleet.RestoreState(&cur);
    benchmark::DoNotOptimize(ok);
  }
  fs::remove(path);
}
BENCHMARK(BM_FleetJournalReplay)
    ->ArgName("shards")
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

// Rot-recovery latency: the same replay when the journal's tail frame is
// bit-rotted. The reader walks to the damage, classifies it against the
// per-frame checksum, truncates to the last good frame, and the fleet
// restores from the surviving snapshot — the degraded-media analog of
// BM_FleetJournalReplay. Runs against an in-memory disk image (MemVfs) so
// the numbers isolate frame walking + checksum validation from page-cache
// luck.
void BM_FleetJournalRotReplay(benchmark::State& state) {
  const std::size_t shards = static_cast<std::size_t>(state.range(0));
  const std::string path = "fleet_rot.wal";
  fault::MemVfs mem;
  fleet::FleetParams p = BenchParams(shards, 6, 8);
  p.journal_path = path;
  p.vfs = &mem;
  {
    fleet::FleetRuntime fleet(p, 0xBE7CF1EE7ULL);
    fleet.Run();
  }
  const std::optional<std::string> bytes = mem.GetFileBytes(path);
  if (!bytes || bytes->size() < 8) {
    state.SkipWithError("journaled run left no journal");
    return;
  }
  mem.FlipBit(path, (bytes->size() - 3) * 8);
  std::size_t truncated = 0;
  for (auto _ : state) {
    const recover::FleetJournalReadResult read =
        recover::ReadFleetJournal(path, &mem);
    truncated += read.tail_rot ? 1 : 0;
    fleet::FleetRuntime fleet(p, 0xBE7CF1EE7ULL);
    util::ByteCursor cur(read.checkpoint_blob);
    const bool ok = fleet.RestoreState(&cur);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["rot_truncated"] =
      static_cast<double>(truncated) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_FleetJournalRotReplay)
    ->ArgName("shards")
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

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
