// Chaos soak: 100 seeded mixed-fault scenarios through the full control
// plane (lossy wire + backhaul faults + mid-run departures). Every scenario
// must complete without an exception escaping, keep the controller's user
// set consistent with the surviving clients, never do worse than evacuating
// the dead extenders, keep churn bounded, and reconverge once the faults
// clear. Run under the `sanitize` preset this is the acceptance gate.
#include "fault/chaos.h"

#include <gtest/gtest.h>

#include <cstddef>

namespace wolt::fault {
namespace {

// Small topology so 100 seeds stay fast under ASan; fault rates are the
// aggressive defaults.
ChaosParams SoakParams() {
  ChaosParams p = DefaultChaosParams();
  p.scenario.num_extenders = 5;
  p.scenario.num_users = 12;
  p.fault_epochs = 4;
  return p;
}

void ExpectInvariants(const ChaosResult& r, std::uint64_t seed) {
  EXPECT_TRUE(r.completed) << "seed " << seed << ": " << r.error;
  EXPECT_EQ(r.error, "") << "seed " << seed;
  EXPECT_TRUE(r.ids_consistent) << "seed " << seed;
  EXPECT_TRUE(r.clients_match_controller) << "seed " << seed;
  EXPECT_TRUE(r.aggregate_ge_evacuation)
      << "seed " << seed << " worst margin " << r.worst_margin;
  EXPECT_TRUE(r.quiesced) << "seed " << seed;
  // Churn bound: one epoch can move at most every user once.
  EXPECT_LE(r.max_epoch_reassignments, r.initial_users) << "seed " << seed;
  if (r.surviving_users > 0 && r.prefault_aggregate > 0.0) {
    EXPECT_GT(r.final_aggregate, 0.0) << "seed " << seed;
  }
}

TEST(ChaosSoakTest, HundredSeedsSurviveMixedFaults) {
  const ChaosParams params = SoakParams();
  const auto results = RunChaosSoakParallel(params, /*base_seed=*/1000,
                                            /*count=*/100, /*threads=*/2);
  ASSERT_EQ(results.size(), 100u);
  std::size_t total_faults = 0;
  for (std::size_t k = 0; k < results.size(); ++k) {
    ExpectInvariants(results[k], 1000 + k);
    total_faults += results[k].wire_stats.lost +
                    results[k].wire_stats.corrupted +
                    results[k].health_stats.crashes +
                    results[k].health_stats.flaps;
  }
  // The soak must actually exercise the fault paths, not vacuously pass.
  EXPECT_GT(total_faults, 100u * 10u);
}

TEST(ChaosTest, DeterministicReplay) {
  const ChaosParams params = SoakParams();
  const ChaosResult a = RunChaosScenario(params, 4242);
  const ChaosResult b = RunChaosScenario(params, 4242);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.surviving_users, b.surviving_users);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.retries_sent, b.retries_sent);
  EXPECT_EQ(a.total_reassignments, b.total_reassignments);
  EXPECT_EQ(a.wire_stats.sent, b.wire_stats.sent);
  EXPECT_EQ(a.wire_stats.lost, b.wire_stats.lost);
  EXPECT_EQ(a.health_stats.crashes, b.health_stats.crashes);
  EXPECT_DOUBLE_EQ(a.prefault_aggregate, b.prefault_aggregate);
  EXPECT_DOUBLE_EQ(a.final_aggregate, b.final_aggregate);
  EXPECT_DOUBLE_EQ(a.worst_margin, b.worst_margin);
}

TEST(ChaosTest, RetriesHealHeavyDirectiveLoss) {
  // Backhaul crashes force evacuations while half of all directives vanish;
  // nobody leaves. The ack/retry machinery (plus scan reconciliation) must
  // still converge every client once the faults clear.
  ChaosParams p = SoakParams();
  p.health = HealthParams{};
  p.health.crash_rate = 0.3;
  p.health.repair_rate = 0.2;
  p.departure_prob = 0.0;
  p.wire = FaultPlaneParams{};
  p.wire.ForClass(MessageClass::kDirective).loss = 0.5;
  const auto results = RunChaosSoakParallel(p, 7000, 20, /*threads=*/2);
  std::size_t retries = 0;
  for (std::size_t k = 0; k < results.size(); ++k) {
    ExpectInvariants(results[k], 7000 + k);
    EXPECT_EQ(results[k].surviving_users, results[k].initial_users);
    EXPECT_EQ(results[k].unassociated_clients, 0u);
    retries += results[k].retries_sent;
  }
  EXPECT_GT(retries, 0u);
}

TEST(ChaosTest, StalenessEvictionReapsGhostsWhenGoodbyesAreLost) {
  // Every departure notice is lost: the only way the controller's user set
  // can match reality is the staleness eviction path.
  ChaosParams p = SoakParams();
  p.health = HealthParams{};
  p.departure_prob = 0.9;
  p.wire = FaultPlaneParams{};
  p.wire.ForClass(MessageClass::kDeparture).loss = 1.0;
  const auto results = RunChaosSoakParallel(p, 8000, 20, /*threads=*/2);
  std::size_t evictions = 0, departures = 0;
  for (std::size_t k = 0; k < results.size(); ++k) {
    ExpectInvariants(results[k], 8000 + k);
    evictions += results[k].evictions;
    departures += results[k].departures;
  }
  EXPECT_GT(departures, 0u);
  // Lost goodbyes leave ghosts; eviction must have reaped every one of
  // them (ids_consistent above), so the counts line up.
  EXPECT_EQ(evictions, departures);
}

}  // namespace
}  // namespace wolt::fault
