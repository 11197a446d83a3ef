// The fleet runtime: hundreds-to-thousands of per-building controllers
// (shards) driven through a shared round loop on a util::ThreadPool, with
// bounded ingestion (fleet/queue.h), per-shard supervision
// (fleet/supervisor.h) and crash-safe journaling (recover/fleet_journal.h).
//
// Round structure — the alternation that makes the fleet deterministic at
// any thread count:
//
//   serial   (a) supervisor BeginRound: execute due restarts and probes
//   serial   (b) every shard emits its round traffic into the bounded queue
//   serial   (c) drain a batch per live shard; discard lanes of parked ones
//   serial   (d) virtual-budget reopt scheduling (staleness-priority ladder)
//   parallel (e) per-shard ProcessBatch + scheduled ReoptimizeAtTier, each
//                writing into its own index-addressed slot
//   serial   (f) supervisor ObserveFailures; circuit breaks capture the
//                shard's held directives, recoveries release them
//   serial   (g) invariants, ack re-enqueue, journal append, snapshot
//
// Every cross-shard decision (queue order, shedding, scheduling,
// supervision, journaling) happens in the serial phases in shard-id order;
// the parallel phase touches only per-shard state. All randomness is drawn
// from stateless (seed, shard, round, salt) substreams. Consequence: the
// journal byte stream and the fleet report are identical at 1/2/4/8 threads,
// and identical across SIGKILL + resume — the property the crash soak and
// the ci.sh kill-and-resume smoke assert.
//
// The reoptimize scheduler spends a *virtual* unit budget (core::TierCost,
// never wall clock) across shards by staleness priority, mapping leftover
// budget onto the degradation ladder: kFull costs 4 units, kHungarianOnly 3,
// kGreedy 2, kHoldLastGood 1. An unbudgeted fleet takes the same walk with
// enough units for every live shard to get kFull.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fleet/queue.h"
#include "fleet/shard.h"
#include "fleet/supervisor.h"
#include "recover/fleet_journal.h"

namespace wolt::util {
class ByteCursor;
class ThreadPool;
}  // namespace wolt::util

namespace wolt::fleet {

struct FleetParams {
  std::size_t num_shards = 4;
  std::uint64_t rounds = 10;
  // Executor count for the parallel phase (1 = fully serial). Not part of
  // the fingerprint: results are thread-count-independent by construction.
  int threads = 1;

  // Bounded-queue capacity across all shards; 0 = unbounded (no shedding).
  std::size_t queue_capacity = 0;
  // Max messages drained per shard per round; 0 = everything queued.
  std::size_t batch_per_shard = 0;

  ShardParams shard;          // template applied to every shard
  SupervisorParams supervisor;

  // Chaos window [chaos_from, chaos_to): wire faults, PLC crashes and
  // client churn are active on these rounds only.
  std::uint64_t chaos_from = 0;
  std::uint64_t chaos_to = 0;

  // Shards whose ShardParams get the poison window installed (forced
  // ProcessBatch throws — the crash-loop fodder of the soak).
  std::vector<std::uint32_t> poison_shards;
  std::uint64_t poison_from = ~std::uint64_t{0};
  std::uint64_t poison_to = 0;

  // Virtual reopt budget per round (see file comment); 0 = every live shard
  // reoptimizes at kFull every round.
  std::size_t reopt_units_per_round = 0;

  // Crash-safe journal; empty = no journal. `resume` replays the journal's
  // last snapshot and continues; an unreadable journal restarts the run
  // fresh (with a stderr warning) rather than failing it — only a *valid*
  // journal from a different configuration is refused. `snapshot_every` is
  // in rounds (the final round always snapshots).
  std::string journal_path;
  bool resume = false;
  std::uint64_t snapshot_every = 1;
  // Forwarded to the journal writer (crash-harness hook).
  std::function<void(std::size_t)> after_journal_append;
  // Storage backend for the journal; nullptr = the real filesystem. Not
  // part of the fingerprint (plumbing, not configuration).
  io::Vfs* vfs = nullptr;
  // fsync the journal after every append (see JournalWriter::Options).
  bool journal_sync_every_append = false;

  // Cooperative cancellation: polled between rounds (never mid-round, so
  // the journal stays round-aligned). A set token stops the loop after the
  // current round; the journal is snapshotted, flushed and closed, and the
  // result has cancelled=true — resumable like any crash. Not part of the
  // fingerprint. The soak bench flips this from its SIGINT handler.
  std::atomic<bool>* cancel = nullptr;
};

// Configuration identity: resuming a journal written under any other
// (params, seed) is refused. Thread count and journal plumbing excluded.
std::uint64_t Fingerprint(const FleetParams& params, std::uint64_t seed);

struct FleetResult {
  bool completed = false;
  std::string error;
  // FleetParams::cancel was observed set; the run stopped early at a round
  // boundary with the journal flushed (resume picks up from there).
  bool cancelled = false;
  // The journal writer hit an I/O failure and disabled itself mid-run; the
  // results are complete but the journal is not resumable past that point.
  bool journal_degraded = false;

  std::vector<recover::ShardRoundRecord> shard_records;
  std::vector<recover::FleetRoundRecord> fleet_records;
  std::uint64_t resumed_rounds = 0;  // rounds restored from the journal

  QueueStats queue;
  std::uint64_t restarts = 0;
  std::uint64_t circuit_breaks = 0;
  std::uint64_t probes = 0;

  // Soak invariants, folded over the whole run:
  bool isolation_ok = true;      // no shard ever held a foreign user id
  bool accounting_ok = true;     // enqueued == delivered+shed+discarded+depth
  bool degraded_held_ok = true;  // parked shards only held or shed clients

  // Deterministic text rendering of the records and invariants — the byte-
  // compare artefact of the resume tests and the ci.sh smoke. Identical
  // across thread counts and across SIGKILL + resume.
  std::string Report() const;
};

class FleetRuntime {
 public:
  FleetRuntime(FleetParams params, std::uint64_t seed);
  ~FleetRuntime();

  // Execute the configured run (or its resumed tail) to completion.
  FleetResult Run();

  const Supervisor& supervisor() const { return *supervisor_; }
  const BoundedFleetQueue& queue() const { return *queue_; }
  const ShardRuntime& shard(std::size_t s) const { return *shards_[s]; }

  // Whole-fleet state snapshot (queue, supervisor, every shard, scheduler
  // bookkeeping) — the payload of the journal's snapshot records.
  void SaveState(std::string* out) const;
  bool RestoreState(util::ByteCursor* cur);

 private:
  struct PerShardScratch;

  ShardParams ShardParamsFor(std::uint32_t shard) const;
  void RunRound(std::uint64_t round, util::ThreadPool& pool,
                recover::FleetJournalWriter* journal, FleetResult* result);

  FleetParams params_;
  std::uint64_t seed_;
  std::uint64_t fingerprint_;
  std::vector<std::unique_ptr<ShardRuntime>> shards_;
  std::unique_ptr<Supervisor> supervisor_;
  std::unique_ptr<BoundedFleetQueue> queue_;
  // Captured ClientExtenders of circuit-broken shards (empty = not held).
  std::vector<std::vector<int>> held_extenders_;
  std::vector<std::uint64_t> last_reopt_round_;
  QueueStats prev_stats_;  // for per-round deltas in FleetRoundRecords
};

}  // namespace wolt::fleet
