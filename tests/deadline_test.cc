// The anytime control plane: cooperative deadline tokens, the controller's
// degradation ladder, and the flap quarantine.
//
// Contracts under test:
//  * a null or generous deadline leaves every solver bit-identical to the
//    unbudgeted path;
//  * a deadline-truncated Hungarian solve is a consistent partial matching;
//  * every rung of the ladder (ReoptimizeAtTier) yields a valid assignment
//    that scores at least the evacuation floor; the hold-last-good rung
//    moves nobody but the users of a dead backhaul; the obs counters record
//    the serving tier;
//  * a flapping backhaul is quarantined after the threshold and released
//    after the hold, restoring the last reported capacity.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "assign/hungarian.h"
#include "core/controller.h"
#include "core/greedy.h"
#include "core/wolt.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/deadline.h"
#include "util/rng.h"

namespace wolt::core {
namespace {

constexpr std::size_t kExtenders = 4;

// Deterministic controller with `num_users` arrived users and live
// backhauls. Rates are seeded so every run builds the identical state.
std::unique_ptr<CentralController> MakeController(
    std::size_t num_users, QuarantineParams quarantine = {}) {
  auto cc = std::make_unique<CentralController>(
      kExtenders, std::make_unique<WoltPolicy>(), RetryParams{}, quarantine);
  const double caps[kExtenders] = {120.0, 90.0, 60.0, 45.0};
  for (std::size_t j = 0; j < kExtenders; ++j) {
    EXPECT_EQ(cc->HandleCapacityReport({static_cast<int>(j), caps[j]}),
              HandleStatus::kOk);
  }
  util::Rng rng(4242);
  for (std::size_t u = 0; u < num_users; ++u) {
    ScanReport scan;
    scan.user_id = static_cast<std::int64_t>(100 + u);
    for (std::size_t j = 0; j < kExtenders; ++j) {
      scan.rates_mbps.push_back(rng.Uniform(20.0, 120.0));
    }
    EXPECT_TRUE(cc->HandleUserArrival(scan).ok());
  }
  return cc;
}

std::uint64_t CounterValue(const obs::MetricsSnapshot& snap,
                           const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// Every assigned user must actually hear its extender and the extender's
// backhaul must be believed live — the "always valid" half of the anytime
// contract.
void ExpectValidAssignment(const CentralController& cc) {
  const model::Network& net = cc.network();
  for (std::size_t i = 0; i < cc.NumUsers(); ++i) {
    const int j = cc.assignment().ExtenderOf(i);
    if (j == model::Assignment::kUnassigned) continue;
    EXPECT_GT(net.WifiRate(i, static_cast<std::size_t>(j)), 0.0)
        << "user " << i << " assigned to an unreachable extender";
  }
}

TEST(DeadlineToken, BasicSemantics) {
  const util::Deadline unlimited;
  EXPECT_FALSE(unlimited.Expired());
  EXPECT_FALSE(util::DeadlineExpired(nullptr));
  const util::Deadline born_dead = util::Deadline::After(0.0);
  EXPECT_TRUE(born_dead.Expired());
  EXPECT_TRUE(born_dead.Expired());  // sticky
  const util::Deadline negative = util::Deadline::After(-5.0);
  EXPECT_TRUE(negative.Expired());
  const util::Deadline generous = util::Deadline::After(3600.0);
  EXPECT_FALSE(generous.Expired());
}

TEST(DeadlineHungarian, BornExpiredLeavesEveryRowUnmatched) {
  assign::Matrix utilities(3, 4, 0.0);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      utilities(r, c) = static_cast<double>(1 + r * 4 + c);
    }
  }
  const util::Deadline dead = util::Deadline::After(0.0);
  const assign::HungarianResult result =
      assign::SolveAssignmentMax(utilities, &dead);
  EXPECT_TRUE(result.deadline_hit);
  EXPECT_EQ(result.total_utility, 0.0);
  for (int c : result.col_of_row) EXPECT_EQ(c, -1);
}

TEST(DeadlineHungarian, UnexpiredDeadlineIsBitIdentical) {
  util::Rng rng(7);
  assign::Matrix utilities(6, 9, 0.0);
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 9; ++c) {
      utilities(r, c) = rng.Uniform(0.0, 50.0);
    }
  }
  const util::Deadline generous = util::Deadline::After(3600.0);
  const assign::HungarianResult with =
      assign::SolveAssignmentMax(utilities, &generous);
  const assign::HungarianResult without =
      assign::SolveAssignmentMax(utilities, nullptr);
  EXPECT_FALSE(with.deadline_hit);
  EXPECT_EQ(with.col_of_row, without.col_of_row);
  EXPECT_EQ(with.total_utility, without.total_utility);
}

TEST(DeadlineGreedy, BornExpiredPlacesNobodyButStaysValid) {
  GreedyPolicy greedy;
  const util::Deadline dead = util::Deadline::After(0.0);
  greedy.SetDeadline(&dead);
  model::Network net(3, 2);
  for (std::size_t i = 0; i < 3; ++i) {
    net.SetWifiRate(i, 0, 50.0);
    net.SetWifiRate(i, 1, 40.0);
  }
  net.SetPlcRate(0, 100.0);
  net.SetPlcRate(1, 100.0);
  const model::Assignment out = greedy.AssociateFresh(net);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_FALSE(out.IsAssigned(i));
}

TEST(ReoptLadder, HoldTierKeepsLastGoodAndStaysValid) {
  auto cc = MakeController(8);
  const model::Assignment before = cc->assignment();

  const ReoptReport report = cc->ReoptimizeAtTier(ReoptTier::kHoldLastGood);
  EXPECT_EQ(report.tier, ReoptTier::kHoldLastGood);
  // Healthy backhauls: hold-last-good means literally nothing moves.
  EXPECT_TRUE(report.directives.empty());
  for (std::size_t i = 0; i < cc->NumUsers(); ++i) {
    EXPECT_EQ(cc->assignment().ExtenderOf(i), before.ExtenderOf(i));
  }
  ExpectValidAssignment(*cc);
}

TEST(ReoptLadder, HoldTierEvacuatesDeadBackhaul) {
  auto cc = MakeController(8);
  EXPECT_EQ(cc->HandleCapacityReport({1, 0.0}), HandleStatus::kOk);
  const model::Assignment before = cc->assignment();

  const ReoptReport report = cc->ReoptimizeAtTier(ReoptTier::kHoldLastGood);
  EXPECT_EQ(report.tier, ReoptTier::kHoldLastGood);
  // Users who sat on extender 1 are evacuated (unassigned, no directive);
  // everyone else holds.
  for (std::size_t i = 0; i < cc->NumUsers(); ++i) {
    if (before.ExtenderOf(i) == 1) {
      EXPECT_FALSE(cc->assignment().IsAssigned(i)) << "user " << i;
    } else {
      EXPECT_EQ(cc->assignment().ExtenderOf(i), before.ExtenderOf(i));
    }
  }
  EXPECT_TRUE(report.directives.empty());
  ExpectValidAssignment(*cc);
}

TEST(ReoptLadder, EveryTierAfterBackhaulLossYieldsValidAssignment) {
  // Whichever rung serves the epoch, the result must be deployable (every
  // assigned user hears its extender) and must score at least the
  // evacuation baseline — the do-no-harm floor.
  for (const ReoptTier tier : {ReoptTier::kFull, ReoptTier::kHungarianOnly,
                               ReoptTier::kGreedy, ReoptTier::kHoldLastGood}) {
    auto cc = MakeController(12);
    EXPECT_EQ(cc->HandleCapacityReport({0, 0.0}), HandleStatus::kOk);
    const double evacuation_floor = [&] {
      model::Assignment evac = cc->assignment();
      for (std::size_t i = 0; i < cc->NumUsers(); ++i) {
        if (evac.ExtenderOf(i) == 0) evac.Unassign(i);
      }
      return model::Evaluator().AggregateThroughput(cc->network(), evac);
    }();
    cc->ReoptimizeAtTier(tier);
    ExpectValidAssignment(*cc);
    EXPECT_GE(cc->CurrentAggregate() + 1e-6, evacuation_floor)
        << ToString(tier);
  }
}

TEST(ReoptLadder, ObsCountersRecordServingTier) {
  if (!WOLT_OBS_ENABLED) GTEST_SKIP() << "obs counters compiled out";
  obs::MetricsRegistry registry;
  {
    obs::ScopedMetrics scoped(registry);
    auto cc = MakeController(6);
    cc->ReoptimizeAtTier(ReoptTier::kHoldLastGood);
    cc->ReoptimizeAtTier(ReoptTier::kFull);
  }
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(CounterValue(snap, "ctrl.reopt.tier.hold"), 1u);
  EXPECT_EQ(CounterValue(snap, "ctrl.reopt.tier.full"), 1u);
}

TEST(FlapQuarantine, DisabledByDefault) {
  auto cc = MakeController(4);
  for (int k = 0; k < 20; ++k) {
    EXPECT_EQ(cc->HandleCapacityReport({2, k % 2 ? 60.0 : 0.0}),
              HandleStatus::kOk);
  }
  EXPECT_FALSE(cc->IsQuarantined(2));
  EXPECT_EQ(cc->QuarantineTrips(), 0u);
}

TEST(FlapQuarantine, TripsOnThresholdAndReleasesAfterHold) {
  QuarantineParams q;
  q.flap_threshold = 3;
  q.window = 100.0;
  q.hold = 5.0;
  auto cc = MakeController(4, q);

  // Three up<->down transitions inside the window: down, up, down.
  cc->AdvanceTime(1.0);
  EXPECT_EQ(cc->HandleCapacityReport({2, 0.0}), HandleStatus::kOk);
  cc->AdvanceTime(2.0);
  EXPECT_EQ(cc->HandleCapacityReport({2, 60.0}), HandleStatus::kOk);
  EXPECT_FALSE(cc->IsQuarantined(2));
  cc->AdvanceTime(3.0);
  EXPECT_EQ(cc->HandleCapacityReport({2, 0.0}), HandleStatus::kOk);
  EXPECT_TRUE(cc->IsQuarantined(2));
  EXPECT_EQ(cc->QuarantineTrips(), 1u);
  // While quarantined the controller plans as if the link were down, even
  // when a (possibly transient) healthy report arrives.
  cc->AdvanceTime(4.0);
  EXPECT_EQ(cc->HandleCapacityReport({2, 75.0}), HandleStatus::kOk);
  EXPECT_EQ(cc->network().PlcRate(2), 0.0);
  EXPECT_TRUE(cc->IsQuarantined(2));

  // Flap-free for the hold: released, last reported capacity restored.
  cc->AdvanceTime(20.0);
  EXPECT_FALSE(cc->IsQuarantined(2));
  EXPECT_EQ(cc->QuarantineReleases(), 1u);
  EXPECT_EQ(cc->network().PlcRate(2), 75.0);
}

TEST(FlapQuarantine, FlappingDuringHoldExtendsQuarantine) {
  QuarantineParams q;
  q.flap_threshold = 2;
  q.window = 100.0;
  q.hold = 10.0;
  auto cc = MakeController(4, q);

  cc->AdvanceTime(1.0);
  EXPECT_EQ(cc->HandleCapacityReport({3, 0.0}), HandleStatus::kOk);
  cc->AdvanceTime(2.0);
  EXPECT_EQ(cc->HandleCapacityReport({3, 45.0}), HandleStatus::kOk);
  EXPECT_TRUE(cc->IsQuarantined(3));

  // A fresh flap at t=9 restarts the hold clock: still quarantined at t=13
  // (old release would have been t=12), released only at t=19+.
  cc->AdvanceTime(9.0);
  EXPECT_EQ(cc->HandleCapacityReport({3, 0.0}), HandleStatus::kOk);
  cc->AdvanceTime(13.0);
  EXPECT_TRUE(cc->IsQuarantined(3));
  cc->AdvanceTime(19.5);
  EXPECT_FALSE(cc->IsQuarantined(3));
}

TEST(FlapQuarantine, OutOfRangeExtenderIsNeverQuarantined) {
  auto cc = MakeController(2);
  EXPECT_FALSE(cc->IsQuarantined(-1));
  EXPECT_FALSE(cc->IsQuarantined(99));
}

TEST(ReoptTierNames, ToStringCoversAllTiers) {
  EXPECT_STREQ(ToString(ReoptTier::kFull), "full");
  EXPECT_STREQ(ToString(ReoptTier::kHungarianOnly), "hungarian-only");
  EXPECT_STREQ(ToString(ReoptTier::kGreedy), "greedy");
  EXPECT_STREQ(ToString(ReoptTier::kHoldLastGood), "hold-last-good");
}

TEST(FlapQuarantine, QuarantineHoldsAcrossEveryDegradationTier) {
  // A quarantined extender's capacity is pinned to zero for *planning*, and
  // that pin must survive every rung of the ladder — including the degraded
  // tiers a budget-starved (or fleet-scheduled) epoch runs at. If any tier
  // consulted the raw reported capacity instead of the quarantine view, a
  // flapping backhaul would reabsorb users exactly when the controller is
  // under the most pressure.
  for (const ReoptTier tier : {ReoptTier::kFull, ReoptTier::kHungarianOnly,
                               ReoptTier::kGreedy, ReoptTier::kHoldLastGood}) {
    QuarantineParams q;
    q.flap_threshold = 3;
    q.window = 100.0;
    q.hold = 50.0;
    auto cc = MakeController(6, q);

    // Trip the breaker on extender 2: down, up, down inside the window.
    cc->AdvanceTime(1.0);
    EXPECT_EQ(cc->HandleCapacityReport({2, 0.0}), HandleStatus::kOk);
    cc->AdvanceTime(2.0);
    EXPECT_EQ(cc->HandleCapacityReport({2, 60.0}), HandleStatus::kOk);
    cc->AdvanceTime(3.0);
    EXPECT_EQ(cc->HandleCapacityReport({2, 0.0}), HandleStatus::kOk);
    ASSERT_TRUE(cc->IsQuarantined(2)) << ToString(tier);
    // A healthy-looking report mid-quarantine must not lift the pin.
    cc->AdvanceTime(4.0);
    EXPECT_EQ(cc->HandleCapacityReport({2, 80.0}), HandleStatus::kOk);
    ASSERT_TRUE(cc->IsQuarantined(2)) << ToString(tier);

    cc->ReoptimizeAtTier(tier);

    EXPECT_EQ(cc->network().PlcRate(2), 0.0) << ToString(tier);
    ExpectValidAssignment(*cc);
    for (std::size_t i = 0; i < cc->NumUsers(); ++i) {
      EXPECT_NE(cc->assignment().ExtenderOf(i), 2)
          << "tier " << ToString(tier) << " parked user " << i
          << " on the quarantined extender";
    }
  }
}

}  // namespace
}  // namespace wolt::core
