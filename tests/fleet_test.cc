// Unit and integration coverage for the fleet runtime's three pillars:
// the bounded ingestion queue (backpressure + exact shed accounting), the
// shard supervisor (restart backoff, crash-loop circuit breaker, half-open
// probes), and the sharded round loop itself (thread-count-invariant
// reports, fault isolation of a poisoned shard, degraded hold-last-good,
// virtual-budget reopt degradation down the tier ladder), plus pins of
// the journal's on-disk fingerprint and supervisor snapshot bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/controller.h"
#include "fleet/queue.h"
#include "fleet/runtime.h"
#include "fleet/shard.h"
#include "fleet/supervisor.h"
#include "util/codec.h"

namespace wolt::fleet {
namespace {

FleetMessage Msg(std::uint32_t shard, fault::MessageClass cls,
                 std::string bytes = "x") {
  FleetMessage m;
  m.shard = shard;
  m.cls = cls;
  m.bytes = std::move(bytes);
  return m;
}

// --- BoundedFleetQueue ---------------------------------------------------

TEST(FleetQueue, AccountingHoldsThroughPushDrainDiscard) {
  BoundedFleetQueue q(/*capacity=*/0, /*num_shards=*/3);
  for (int i = 0; i < 5; ++i) q.Push(Msg(0, fault::MessageClass::kScan));
  for (int i = 0; i < 3; ++i) q.Push(Msg(1, fault::MessageClass::kAck));
  EXPECT_EQ(q.Depth(), 8u);
  EXPECT_EQ(q.DepthOf(0), 5u);

  const std::vector<FleetMessage> got = q.Drain(0, 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_LT(got[0].seq, got[1].seq);  // oldest-first, arrival order

  const std::size_t discarded = q.Discard(1);
  EXPECT_EQ(discarded, 3u);

  const QueueStats& s = q.stats();
  EXPECT_EQ(s.enqueued, 8u);
  EXPECT_EQ(s.delivered, 2u);
  EXPECT_EQ(s.shed, 0u);
  EXPECT_EQ(s.discarded, 3u);
  EXPECT_EQ(s.enqueued, s.delivered + s.shed + s.discarded + q.Depth());
}

TEST(FleetQueue, ShedsOldestFromMostBackloggedShard) {
  BoundedFleetQueue q(/*capacity=*/4, /*num_shards=*/2);
  q.Push(Msg(0, fault::MessageClass::kScan, "a"));      // seq 0
  q.Push(Msg(0, fault::MessageClass::kCapacity, "b"));  // seq 1
  q.Push(Msg(0, fault::MessageClass::kScan, "c"));      // seq 2
  q.Push(Msg(1, fault::MessageClass::kAck, "d"));       // seq 3
  EXPECT_EQ(q.stats().shed, 0u);

  // 5th message: over capacity. Shard 0 is most backlogged; its oldest
  // (seq 0, a kScan) must be the victim — never the fresh arrival.
  q.Push(Msg(1, fault::MessageClass::kAck, "e"));
  EXPECT_EQ(q.Depth(), 4u);
  EXPECT_EQ(q.stats().shed, 1u);
  EXPECT_EQ(q.stats().shed_by_class[static_cast<int>(
                fault::MessageClass::kScan)],
            1u);
  const std::vector<FleetMessage> lane0 = q.Drain(0, 0);
  ASSERT_EQ(lane0.size(), 2u);
  EXPECT_EQ(lane0[0].bytes, "b");  // seq 0 gone, seq 1 survives
  EXPECT_EQ(q.stats().enqueued,
            q.stats().delivered + q.stats().shed + q.stats().discarded +
                q.Depth());
}

TEST(FleetQueue, TieBreaksTowardLowestShardId) {
  BoundedFleetQueue q(/*capacity=*/4, /*num_shards=*/3);
  q.Push(Msg(2, fault::MessageClass::kScan, "z0"));
  q.Push(Msg(2, fault::MessageClass::kScan, "z1"));
  q.Push(Msg(1, fault::MessageClass::kScan, "y0"));
  q.Push(Msg(1, fault::MessageClass::kScan, "y1"));
  q.Push(Msg(0, fault::MessageClass::kScan, "x0"));
  // Lanes 1 and 2 tie at depth 2; the shed must hit lane 1.
  EXPECT_EQ(q.DepthOf(1), 1u);
  EXPECT_EQ(q.DepthOf(2), 2u);
  EXPECT_EQ(q.DepthOf(0), 1u);
}

TEST(FleetQueue, SaveRestoreRoundTripsBitExact) {
  BoundedFleetQueue q(/*capacity=*/3, /*num_shards=*/2);
  for (int i = 0; i < 6; ++i) {
    q.Push(Msg(i % 2, fault::MessageClass::kScan, "m" + std::to_string(i)));
  }
  q.Drain(0, 1);
  std::string blob;
  q.SaveState(&blob);

  BoundedFleetQueue r(/*capacity=*/3, /*num_shards=*/2);
  util::ByteCursor cur(blob);
  ASSERT_TRUE(r.RestoreState(&cur));
  EXPECT_TRUE(cur.AtEnd());
  std::string blob2;
  r.SaveState(&blob2);
  EXPECT_EQ(blob, blob2);

  BoundedFleetQueue wrong(/*capacity=*/3, /*num_shards=*/5);
  util::ByteCursor cur2(blob);
  EXPECT_FALSE(wrong.RestoreState(&cur2));  // shard-count mismatch refused
}

// --- Supervisor ----------------------------------------------------------

FailureEvent Fatal() {
  return FailureEvent{FailureKind::kException,
                      core::ErrorCategory::kProgrammingError, "boom"};
}

FailureEvent Storm() {
  return FailureEvent{FailureKind::kDecodeStorm,
                      core::ErrorCategory::kWireFault, "storm"};
}

SupervisorParams TestSupParams() {
  SupervisorParams p;
  p.storm_tolerance = 1;
  p.backoff_initial = 1;
  p.backoff_max = 4;
  p.crash_loop_threshold = 2;
  p.crash_loop_window = 8;
  p.probe_after = 3;
  return p;
}

TEST(Supervisor, WireFaultStormsNeedSustainedPressure) {
  Supervisor sup(TestSupParams(), 1);
  // One storm round: tolerated (tolerance 1). A clean round resets.
  EXPECT_EQ(sup.ObserveFailures(0, 0, {Storm()}), SupervisorAction::kNone);
  EXPECT_EQ(sup.state(0), ShardState::kHealthy);
  EXPECT_EQ(sup.ObserveFailures(0, 1, {}), SupervisorAction::kNone);
  EXPECT_EQ(sup.ObserveFailures(0, 2, {Storm()}), SupervisorAction::kNone);
  EXPECT_EQ(sup.state(0), ShardState::kHealthy);
  // Two consecutive storm rounds cross the tolerance: restart ordered.
  EXPECT_EQ(sup.ObserveFailures(0, 3, {Storm()}), SupervisorAction::kNone);
  EXPECT_EQ(sup.state(0), ShardState::kBackoff);
  EXPECT_EQ(sup.BeginRound(0, 4), SupervisorAction::kRestart);
  EXPECT_EQ(sup.state(0), ShardState::kHealthy);
  EXPECT_EQ(sup.Restarts(0), 1u);
}

TEST(Supervisor, ProgrammingErrorRestartsImmediatelyThenCircuitBreaks) {
  Supervisor sup(TestSupParams(), 1);
  EXPECT_EQ(sup.ObserveFailures(0, 0, {Fatal()}), SupervisorAction::kNone);
  EXPECT_EQ(sup.state(0), ShardState::kBackoff);
  EXPECT_EQ(sup.BeginRound(0, 1), SupervisorAction::kRestart);
  // Second fatal inside the window: the breaker parks the shard instead of
  // restarting again (threshold 2).
  EXPECT_EQ(sup.ObserveFailures(0, 1, {Fatal()}),
            SupervisorAction::kCircuitBreak);
  EXPECT_EQ(sup.state(0), ShardState::kDegraded);
  EXPECT_EQ(sup.CircuitBreaks(0), 1u);
  // Parked shards are left alone until the probe is due.
  EXPECT_EQ(sup.BeginRound(0, 2), SupervisorAction::kNone);
  EXPECT_EQ(sup.BeginRound(0, 3), SupervisorAction::kNone);
  EXPECT_EQ(sup.BeginRound(0, 4), SupervisorAction::kProbe);
  EXPECT_EQ(sup.state(0), ShardState::kProbation);
  // A failing probation round re-parks on one strike.
  EXPECT_EQ(sup.ObserveFailures(0, 4, {Fatal()}),
            SupervisorAction::kCircuitBreak);
  EXPECT_EQ(sup.state(0), ShardState::kDegraded);
  EXPECT_EQ(sup.CircuitBreaks(0), 2u);
  // Next probe comes back clean: full recovery, breaker history reset.
  EXPECT_EQ(sup.BeginRound(0, 7), SupervisorAction::kProbe);
  EXPECT_EQ(sup.ObserveFailures(0, 7, {}), SupervisorAction::kRecover);
  EXPECT_EQ(sup.state(0), ShardState::kHealthy);
  // The reset means a fresh fatal goes back to restart, not straight to
  // the breaker.
  EXPECT_EQ(sup.ObserveFailures(0, 8, {Fatal()}), SupervisorAction::kNone);
  EXPECT_EQ(sup.state(0), ShardState::kBackoff);
}

TEST(Supervisor, BackoffGrowsAndCaps) {
  SupervisorParams p = TestSupParams();
  p.crash_loop_threshold = 100;  // breaker out of the way
  p.crash_loop_window = 2;       // prune history aggressively
  Supervisor sup(p, 1);
  std::uint64_t round = 0;
  std::uint64_t last_restart = 0;
  std::vector<std::uint64_t> gaps;
  for (int cycle = 0; cycle < 4; ++cycle) {
    EXPECT_EQ(sup.ObserveFailures(0, round, {Fatal()}),
              SupervisorAction::kNone);
    // Walk rounds until the restart executes.
    while (sup.BeginRound(0, ++round) != SupervisorAction::kRestart) {
      ASSERT_LT(round, 100u);
    }
    if (cycle > 0) gaps.push_back(round - last_restart);
    last_restart = round;
  }
  // Backoff 1 -> 2 -> 4 -> capped at 4. The shard fails again on the very
  // round it restarts, so each restart-to-restart gap equals the backoff
  // in force for the next restart.
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_EQ(gaps[0], 2u);
  EXPECT_EQ(gaps[1], 4u);
  EXPECT_EQ(gaps[2], 4u);  // capped at backoff_max
}

TEST(Supervisor, SaveRestoreRoundTrips) {
  Supervisor sup(TestSupParams(), 3);
  sup.ObserveFailures(0, 0, {Fatal()});
  sup.BeginRound(0, 1);
  sup.ObserveFailures(0, 1, {Fatal()});  // parks shard 0
  sup.ObserveFailures(2, 1, {Storm()});
  std::string blob;
  sup.SaveState(&blob);

  Supervisor restored(TestSupParams(), 3);
  util::ByteCursor cur(blob);
  ASSERT_TRUE(restored.RestoreState(&cur));
  EXPECT_TRUE(cur.AtEnd());
  EXPECT_EQ(restored.state(0), ShardState::kDegraded);
  EXPECT_EQ(restored.state(1), ShardState::kHealthy);
  EXPECT_EQ(restored.Restarts(0), 1u);
  EXPECT_EQ(restored.CircuitBreaks(0), 1u);
  std::string blob2;
  restored.SaveState(&blob2);
  EXPECT_EQ(blob, blob2);
}

// --- ShardRuntime ---------------------------------------------------------

// Every DIRECTIVE is corrupted on the wire. Some corrupted copies still
// decode, naming an extender the building may not have or the client cannot
// hear; the client must refuse those (no camp, no ack), so its applied
// extenders stay valid and the shard's checkpoint keeps restoring.
TEST(ShardRuntime, CorruptDirectivesNeverParkClientsOffTheBuilding) {
  ShardParams p;
  p.wire.ForClass(fault::MessageClass::kDirective).corrupt = 1.0;
  for (std::uint32_t id = 0; id < 64; ++id) {
    SCOPED_TRACE(id);
    ShardRuntime shard(id, /*fleet_seed=*/21, p);
    std::vector<FleetMessage> acks;
    for (std::uint64_t round = 0; round < 40; ++round) {
      std::vector<FleetMessage> batch = std::move(acks);
      shard.GenerateTraffic(round, /*chaos=*/true, &batch);
      RoundOutcome rc = shard.ProcessBatch(round, /*chaos=*/true, batch);
      ReoptOutcome ro =
          shard.Reoptimize(round, /*chaos=*/true, core::ReoptTier::kFull);
      acks = std::move(rc.outbound);
      acks.insert(acks.end(), ro.outbound.begin(), ro.outbound.end());
    }
    for (int e : shard.ClientExtenders()) {
      EXPECT_GE(e, -1);
      EXPECT_LT(e, static_cast<int>(p.num_extenders));
    }
    std::string blob;
    shard.SaveState(&blob);
    ShardRuntime restored(id, /*fleet_seed=*/21, p);
    util::ByteCursor cur(blob);
    ASSERT_TRUE(restored.RestoreState(&cur));
    EXPECT_TRUE(cur.AtEnd());
    std::string blob2;
    restored.SaveState(&blob2);
    EXPECT_EQ(blob, blob2);
  }
}

// --- FleetRuntime --------------------------------------------------------

FleetParams SmallFleet(std::size_t shards, std::uint64_t rounds) {
  FleetParams p;
  p.num_shards = shards;
  p.rounds = rounds;
  p.queue_capacity = shards * 6;  // mild overload: some shedding
  p.batch_per_shard = 8;
  p.chaos_from = 2;
  p.chaos_to = rounds > 2 ? rounds - 1 : rounds;
  fault::WireFaults w;
  w.loss = 0.05;
  w.duplicate = 0.05;
  w.corrupt = 0.15;
  p.shard.wire = fault::FaultPlaneParams::Uniform(w);
  p.shard.plc_crash_prob = 0.15;
  p.shard.departure_prob = 0.1;
  p.supervisor.storm_tolerance = 1;
  p.supervisor.backoff_initial = 1;
  p.supervisor.crash_loop_threshold = 2;
  p.supervisor.crash_loop_window = 8;
  p.supervisor.probe_after = 3;
  return p;
}

TEST(FleetRuntime, ReportIsThreadCountInvariant) {
  std::string golden;
  for (int threads : {1, 2, 4, 8}) {
    FleetParams p = SmallFleet(12, 8);
    p.threads = threads;
    p.poison_shards = {3};
    p.poison_from = 2;
    p.poison_to = ~std::uint64_t{0};
    FleetRuntime fleet(p, /*seed=*/0xF1EE7ULL);
    const FleetResult result = fleet.Run();
    ASSERT_TRUE(result.completed) << result.error;
    const std::string report = result.Report();
    if (golden.empty()) {
      golden = report;
    } else {
      EXPECT_EQ(report, golden) << "threads=" << threads;
    }
  }
}

TEST(FleetRuntime, OverloadShedsButAccountingStaysExact) {
  FleetParams p = SmallFleet(8, 6);
  p.queue_capacity = 8;  // far below the per-round traffic of 8 shards
  p.threads = 2;
  FleetRuntime fleet(p, 42);
  const FleetResult result = fleet.Run();
  ASSERT_TRUE(result.completed) << result.error;
  EXPECT_GT(result.queue.shed, 0u);
  EXPECT_TRUE(result.accounting_ok);
  EXPECT_TRUE(result.isolation_ok);
  // Per-round deltas must add back up to the cumulative totals.
  std::uint64_t enq = 0, del = 0, shed = 0, disc = 0;
  for (const recover::FleetRoundRecord& r : result.fleet_records) {
    enq += r.enqueued;
    del += r.delivered;
    shed += r.shed;
    disc += r.discarded;
  }
  EXPECT_EQ(enq, result.queue.enqueued);
  EXPECT_EQ(del, result.queue.delivered);
  EXPECT_EQ(shed, result.queue.shed);
  EXPECT_EQ(disc, result.queue.discarded);
}

TEST(FleetRuntime, PoisonedShardIsIsolatedAndCircuitBroken) {
  FleetParams p = SmallFleet(8, 10);
  p.threads = 4;
  p.poison_shards = {5};
  p.poison_from = 2;
  p.poison_to = ~std::uint64_t{0};  // wedged forever
  FleetRuntime fleet(p, 7);
  const FleetResult result = fleet.Run();
  ASSERT_TRUE(result.completed) << result.error;

  EXPECT_GE(result.restarts, 1u);
  EXPECT_GE(result.circuit_breaks, 1u);
  EXPECT_GE(result.probes, 1u);  // probe_after=3 fits inside 10 rounds
  EXPECT_TRUE(result.degraded_held_ok);
  EXPECT_TRUE(result.isolation_ok);
  EXPECT_TRUE(result.accounting_ok);

  bool saw_degraded = false;
  for (const recover::ShardRoundRecord& r : result.shard_records) {
    if (r.shard == 5 &&
        r.state == static_cast<std::uint8_t>(ShardState::kDegraded)) {
      saw_degraded = true;
      EXPECT_EQ(r.processed, 0u);  // parked shards get no batches
    }
    if (r.shard != 5) {
      // The wedge never leaks: sibling shards keep running and never
      // restart or break.
      EXPECT_EQ(r.restarted, 0u) << "shard " << r.shard;
      EXPECT_EQ(r.broke, 0u) << "shard " << r.shard;
    }
  }
  EXPECT_TRUE(saw_degraded);
}

TEST(FleetRuntime, VirtualBudgetWalksTheDegradationLadder) {
  FleetParams p = SmallFleet(6, 8);
  p.threads = 2;
  p.chaos_from = p.chaos_to = 0;     // quiet wire: scheduling is the subject
  p.queue_capacity = 0;
  p.reopt_units_per_round = 7;       // 6 live shards want 24 units
  FleetRuntime fleet(p, 11);
  const FleetResult result = fleet.Run();
  ASSERT_TRUE(result.completed) << result.error;

  bool saw_full = false, saw_degraded_tier = false, saw_unscheduled = false;
  std::vector<bool> ever_scheduled(p.num_shards, false);
  for (const recover::ShardRoundRecord& r : result.shard_records) {
    if (r.tier == static_cast<std::int8_t>(core::ReoptTier::kFull)) {
      saw_full = true;
    } else if (r.tier > 0) {
      saw_degraded_tier = true;
    } else {
      saw_unscheduled = true;
    }
    if (r.tier >= 0) ever_scheduled[r.shard] = true;
  }
  EXPECT_TRUE(saw_full);
  EXPECT_TRUE(saw_degraded_tier);
  EXPECT_TRUE(saw_unscheduled);
  // Staleness priority must rotate the budget across every shard.
  for (std::size_t s = 0; s < p.num_shards; ++s) {
    EXPECT_TRUE(ever_scheduled[s]) << "shard " << s << " starved";
  }
  for (const recover::FleetRoundRecord& r : result.fleet_records) {
    EXPECT_LE(r.reopt_units, 7u);
  }
}

TEST(FleetRuntime, FleetStateRoundTripsThroughSaveRestore) {
  FleetParams p = SmallFleet(4, 6);
  p.poison_shards = {1};
  p.poison_from = 2;
  p.poison_to = ~std::uint64_t{0};
  FleetRuntime fleet(p, 99);
  ASSERT_TRUE(fleet.Run().completed);

  std::string blob;
  fleet.SaveState(&blob);
  FleetRuntime other(p, 99);
  util::ByteCursor cur(blob);
  ASSERT_TRUE(other.RestoreState(&cur));
  EXPECT_TRUE(cur.AtEnd());
  std::string blob2;
  other.SaveState(&blob2);
  EXPECT_EQ(blob, blob2);

  // A fleet built under a different seed must refuse the blob... the blob
  // carries no fingerprint itself (the journal header does), but structural
  // mismatches are rejected.
  FleetParams smaller = p;
  smaller.num_shards = 3;
  FleetRuntime wrong(smaller, 99);
  util::ByteCursor cur2(blob);
  EXPECT_FALSE(wrong.RestoreState(&cur2));
}

// --- Journal format ------------------------------------------------------

// The fleet journal's header carries Fingerprint and its snapshot records
// carry Supervisor::SaveState bytes, so both are on-disk format: a journal
// written by an older build must still resume. The pinned values were
// computed before the supervisor's overrun tolerance was retired (native
// byte order, as written on a little-endian host). Doubles enter them only
// as raw bits or as exact small-integer products, so every build preset
// reads the same bytes.

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

TEST(FleetJournalFormat, FingerprintIsPinned) {
  EXPECT_EQ(Fingerprint(SmallFleet(12, 8), 0xF1EE7ULL),
            0xBDAA6AB5D2504780ULL);
}

TEST(FleetJournalFormat, SupervisorSnapshotBytesArePinned) {
  Supervisor sup(TestSupParams(), 2);
  EXPECT_EQ(sup.ObserveFailures(1, 0, {Storm()}), SupervisorAction::kNone);
  EXPECT_EQ(sup.ObserveFailures(0, 0, {Fatal()}), SupervisorAction::kNone);
  EXPECT_EQ(sup.BeginRound(0, 1), SupervisorAction::kRestart);
  EXPECT_EQ(sup.ObserveFailures(0, 1, {Fatal()}),
            SupervisorAction::kCircuitBreak);
  EXPECT_EQ(sup.BeginRound(0, 4), SupervisorAction::kProbe);
  std::string blob;
  sup.SaveState(&blob);
  EXPECT_EQ(Hex(blob),
            "0200000000000000"  // cells
            // cell 0: on probation after a restart and a circuit break
            "03"                // state
            "00000000"          // consecutive storms
            "00000000"          // reserved: the retired overrun count
            "0200000000000000"  // backoff
            "0100000000000000"  // restart_at
            "0100000000000000"  // degraded_since
            "0100000000000000"  // restart rounds: one,
            "0100000000000000"  //   round 1
            "0100000000000000"  // restarts
            "0100000000000000"  // breaks
            "0100000000000000"  // probes
            // cell 1: healthy after one tolerated storm
            "00"
            "01000000"
            "00000000"
            "0100000000000000"
            "0000000000000000"
            "0000000000000000"
            "0000000000000000"
            "0000000000000000"
            "0000000000000000"
            "0000000000000000");

  Supervisor restored(TestSupParams(), 2);
  util::ByteCursor cur(blob);
  ASSERT_TRUE(restored.RestoreState(&cur));
  EXPECT_TRUE(cur.AtEnd());
  EXPECT_EQ(restored.state(0), ShardState::kProbation);
}

}  // namespace
}  // namespace wolt::fleet
