#include "core/controller.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "core/greedy.h"
#include "core/rssi.h"
#include "core/wolt.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/codec.h"

namespace wolt::core {
namespace {

// --- Wire format ----------------------------------------------------------

TEST(WireFormatTest, ScanReportRoundTrip) {
  ScanReport msg;
  msg.user_id = 42;
  msg.rates_mbps = {10.5, 0.0, 32.5};
  msg.rssi_dbm = {-70.5, -90.0, -60.25};
  const auto decoded = DecodeScanReport(Encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->user_id, 42);
  EXPECT_EQ(decoded->rates_mbps, msg.rates_mbps);
  EXPECT_EQ(decoded->rssi_dbm, msg.rssi_dbm);
  EXPECT_FALSE(decoded->associated_extender.has_value());
}

TEST(WireFormatTest, ScanReportWithoutRssi) {
  ScanReport msg;
  msg.user_id = 1;
  msg.rates_mbps = {5.0};
  const auto decoded = DecodeScanReport(Encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->rssi_dbm.empty());
}

TEST(WireFormatTest, ScanReportCarriesAssociation) {
  ScanReport msg;
  msg.user_id = 9;
  msg.rates_mbps = {5.0, 6.0};
  msg.associated_extender = 1;
  const auto decoded = DecodeScanReport(Encode(msg));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->associated_extender.has_value());
  EXPECT_EQ(*decoded->associated_extender, 1);

  msg.associated_extender = -1;  // camped nowhere
  const auto decoded2 = DecodeScanReport(Encode(msg));
  ASSERT_TRUE(decoded2.has_value());
  ASSERT_TRUE(decoded2->associated_extender.has_value());
  EXPECT_EQ(*decoded2->associated_extender, -1);
}

TEST(WireFormatTest, DirectiveRoundTrip) {
  const AssociationDirective msg{7, 2};
  const auto decoded = DecodeAssociationDirective(Encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->user_id, 7);
  EXPECT_EQ(decoded->extender, 2);
}

TEST(WireFormatTest, AckAndDepartureRoundTrip) {
  const auto ack = DecodeDirectiveAck(Encode(DirectiveAck{7, 2}));
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->user_id, 7);
  EXPECT_EQ(ack->extender, 2);

  const auto bye = DecodeDepartureNotice(Encode(DepartureNotice{11}));
  ASSERT_TRUE(bye.has_value());
  EXPECT_EQ(bye->user_id, 11);
}

TEST(WireFormatTest, CapacityRoundTrip) {
  const CapacityReport msg{3, 120.5};
  const auto decoded = DecodeCapacityReport(Encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->extender, 3);
  EXPECT_DOUBLE_EQ(decoded->capacity_mbps, 120.5);
}

TEST(WireFormatTest, MalformedMessagesRejected) {
  EXPECT_FALSE(DecodeScanReport("SCAN").has_value());
  EXPECT_FALSE(DecodeScanReport("SCAN user=x rates=1").has_value());
  EXPECT_FALSE(DecodeScanReport("SCAN user=1 rates=1,abc").has_value());
  EXPECT_FALSE(
      DecodeScanReport("SCAN user=1 rates=1,2 rssi=-50").has_value());
  EXPECT_FALSE(DecodeScanReport("DIRECTIVE user=1 extender=0").has_value());
  EXPECT_FALSE(DecodeAssociationDirective("DIRECTIVE user=1").has_value());
  EXPECT_FALSE(DecodeCapacityReport("CAPACITY extender=1").has_value());
  EXPECT_FALSE(
      DecodeCapacityReport("CAPACITY extender=1 mbps=-5").has_value());
}

TEST(WireFormatTest, HostileNumericsRejected) {
  // NaN / Inf / negative rates must not reach the controller.
  EXPECT_FALSE(DecodeScanReport("SCAN user=1 rates=nan").has_value());
  EXPECT_FALSE(DecodeScanReport("SCAN user=1 rates=inf,1").has_value());
  EXPECT_FALSE(DecodeScanReport("SCAN user=1 rates=-3").has_value());
  EXPECT_FALSE(
      DecodeScanReport("SCAN user=1 rates=1 rssi=nan").has_value());
  EXPECT_FALSE(DecodeCapacityReport("CAPACITY extender=0 mbps=nan")
                   .has_value());
  EXPECT_FALSE(DecodeCapacityReport("CAPACITY extender=0 mbps=inf")
                   .has_value());
  // Overflowing / fractional ids.
  EXPECT_FALSE(
      DecodeScanReport("SCAN user=99999999999999999999 rates=1").has_value());
  EXPECT_FALSE(DecodeScanReport("SCAN user=1.5 rates=1").has_value());
  EXPECT_FALSE(DecodeAssociationDirective(
                   "DIRECTIVE user=1 extender=99999999999999999999")
                   .has_value());
  // Trailing garbage, duplicate keys, bad assoc.
  EXPECT_FALSE(DecodeScanReport("SCAN user=1 rates=1 junk").has_value());
  EXPECT_FALSE(DecodeScanReport("SCAN user=1 user=2 rates=1").has_value());
  EXPECT_FALSE(
      DecodeScanReport("SCAN user=1 rates=1 assoc=-2").has_value());
  EXPECT_FALSE(DecodeCapacityReport("CAPACITY extender=0 mbps=5 x=1")
                   .has_value());
}

// --- Controller -----------------------------------------------------------

// Fig. 3 scenario driven entirely through the control plane.
class ControllerCaseStudy : public ::testing::Test {
 protected:
  CentralController MakeController(PolicyPtr policy) {
    CentralController cc(2, std::move(policy));
    EXPECT_EQ(cc.HandleCapacityReport({0, 60.0}), HandleStatus::kOk);
    EXPECT_EQ(cc.HandleCapacityReport({1, 20.0}), HandleStatus::kOk);
    return cc;
  }
  ScanReport User1() { return {101, {15.0, 10.0}, {}, {}, {}}; }
  ScanReport User2() { return {102, {40.0, 20.0}, {}, {}, {}}; }
};

TEST_F(ControllerCaseStudy, RejectsBadConstruction) {
  EXPECT_THROW(CentralController(0, std::make_unique<RssiPolicy>()),
               std::invalid_argument);
  EXPECT_THROW(CentralController(2, nullptr), std::invalid_argument);
}

TEST_F(ControllerCaseStudy, WoltReachesOptimumWithReassociation) {
  CentralController cc = MakeController(std::make_unique<WoltPolicy>());
  const auto r1 = cc.HandleUserArrival(User1());
  ASSERT_TRUE(r1.ok());
  ASSERT_EQ(r1.directives.size(), 1u);
  EXPECT_EQ(r1.directives[0].user_id, 101);
  EXPECT_EQ(r1.directives[0].extender, 0);  // alone, extender 0 gives 15 > 10

  // User 2 arrives: the optimal configuration moves user 1 to extender 1.
  const auto r2 = cc.HandleUserArrival(User2());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(cc.ExtenderOf(101), 1);
  EXPECT_EQ(cc.ExtenderOf(102), 0);
  EXPECT_NEAR(cc.CurrentAggregate(), 40.0, 1e-9);
  // Directives cover exactly the users that moved (both here).
  EXPECT_EQ(r2.directives.size(), 2u);
}

TEST_F(ControllerCaseStudy, GreedyNeverMovesExistingUsers) {
  CentralController cc = MakeController(std::make_unique<GreedyPolicy>());
  cc.HandleUserArrival(User1());
  const auto r2 = cc.HandleUserArrival(User2());
  ASSERT_EQ(r2.directives.size(), 1u);  // only the new user is directed
  EXPECT_EQ(r2.directives[0].user_id, 102);
  EXPECT_EQ(cc.ExtenderOf(101), 0);
  EXPECT_EQ(cc.ExtenderOf(102), 1);
  EXPECT_NEAR(cc.CurrentAggregate(), 30.0, 1e-9);
}

TEST_F(ControllerCaseStudy, DepartureFreesTheExtender) {
  CentralController cc = MakeController(std::make_unique<WoltPolicy>());
  cc.HandleUserArrival(User1());
  cc.HandleUserArrival(User2());
  EXPECT_EQ(cc.HandleUserDeparture(102), HandleStatus::kOk);
  EXPECT_EQ(cc.NumUsers(), 1u);
  EXPECT_FALSE(cc.ExtenderOf(102).has_value());
  // Reoptimize brings user 1 back to its solo optimum (extender 0).
  cc.Reoptimize();
  EXPECT_EQ(cc.ExtenderOf(101), 0);
  EXPECT_NEAR(cc.CurrentAggregate(), 15.0, 1e-9);
}

TEST_F(ControllerCaseStudy, ScanUpdateTriggersReassociation) {
  CentralController cc = MakeController(std::make_unique<WoltPolicy>());
  cc.HandleUserArrival(User1());
  // User 1 walks: now it only hears extender 1.
  ScanReport moved = User1();
  moved.rates_mbps = {0.0, 30.0};
  const auto result = cc.HandleScanUpdate(moved);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.directives.size(), 1u);
  EXPECT_EQ(result.directives[0].extender, 1);
  EXPECT_EQ(cc.ExtenderOf(101), 1);
}

TEST_F(ControllerCaseStudy, BadMessagesRejectedWithoutThrowing) {
  CentralController cc = MakeController(std::make_unique<WoltPolicy>());
  EXPECT_EQ(cc.HandleCapacityReport({5, 10.0}),
            HandleStatus::kUnknownExtender);
  EXPECT_EQ(cc.HandleCapacityReport({-1, 10.0}),
            HandleStatus::kUnknownExtender);
  EXPECT_EQ(cc.HandleCapacityReport(
                {0, std::numeric_limits<double>::quiet_NaN()}),
            HandleStatus::kMalformed);
  // Wrong rate count.
  EXPECT_EQ(cc.HandleUserArrival({1, {10.0}, {}, {}, {}}).status,
            HandleStatus::kMalformed);
  EXPECT_EQ(cc.NumUsers(), 0u);
  ASSERT_TRUE(cc.HandleUserArrival(User1()).ok());
  // Duplicate arrival leaves state untouched.
  EXPECT_EQ(cc.HandleUserArrival(User1()).status,
            HandleStatus::kDuplicateUser);
  EXPECT_EQ(cc.NumUsers(), 1u);
  EXPECT_EQ(cc.HandleUserDeparture(999), HandleStatus::kUnknownUser);
  EXPECT_EQ(cc.HandleScanUpdate({999, {1.0, 1.0}, {}, {}, {}}).status,
            HandleStatus::kUnknownUser);
  // A malformed update must not clobber the stored measurements.
  EXPECT_EQ(
      cc.HandleScanUpdate(
            {101, {std::numeric_limits<double>::infinity(), 1.0}, {}, {}, {}})
          .status,
      HandleStatus::kMalformed);
  EXPECT_NEAR(cc.network().WifiRate(0, 0), 15.0, 1e-12);
}

// --- Directive acks, retries, staleness (lossy-wire hardening) ------------

class LossyWireTest : public ::testing::Test {
 protected:
  static CentralController Make(RetryParams retry = {}) {
    CentralController cc(2, std::make_unique<WoltPolicy>(), retry);
    cc.HandleCapacityReport({0, 60.0});
    cc.HandleCapacityReport({1, 20.0});
    return cc;
  }
};

TEST_F(LossyWireTest, AckClearsPendingDirective) {
  CentralController cc = Make();
  const auto r = cc.HandleUserArrival({101, {15.0, 10.0}, {}, {}, {}});
  ASSERT_EQ(r.directives.size(), 1u);
  EXPECT_EQ(cc.PendingDirectives(), 1u);
  EXPECT_EQ(cc.HandleDirectiveAck({101, r.directives[0].extender}),
            HandleStatus::kOk);
  EXPECT_EQ(cc.PendingDirectives(), 0u);
  // Duplicate ack is idempotent.
  EXPECT_EQ(cc.HandleDirectiveAck({101, r.directives[0].extender}),
            HandleStatus::kOk);
  // Ack for a never-seen user is rejected.
  EXPECT_EQ(cc.HandleDirectiveAck({999, 0}), HandleStatus::kUnknownUser);
}

TEST_F(LossyWireTest, StaleAckDoesNotClearNewerDirective) {
  CentralController cc = Make();
  cc.HandleUserArrival({101, {15.0, 10.0}, {}, {}, {}});  // -> extender 0
  cc.HandleUserArrival({102, {40.0, 20.0}, {}, {}, {}});  // moves 101 -> 1
  ASSERT_EQ(cc.ExtenderOf(101), 1);
  // A late ack for the original directive (extender 0) must not clear the
  // pending move to extender 1.
  const std::size_t pending = cc.PendingDirectives();
  EXPECT_EQ(cc.HandleDirectiveAck({101, 0}), HandleStatus::kIgnoredStale);
  EXPECT_EQ(cc.PendingDirectives(), pending);
  EXPECT_EQ(cc.HandleDirectiveAck({101, 1}), HandleStatus::kOk);
  EXPECT_EQ(cc.PendingDirectives(), pending - 1);
}

TEST_F(LossyWireTest, RetriesBackOffExponentiallyAndGiveUp) {
  RetryParams retry;
  retry.initial_backoff = 1.0;
  retry.multiplier = 2.0;
  retry.max_backoff = 8.0;
  retry.max_attempts = 4;
  CentralController cc = Make(retry);
  cc.HandleUserArrival({101, {15.0, 10.0}, {}, {}, {}});  // attempt 1 sent
  EXPECT_EQ(cc.PendingDirectives(), 1u);

  // Not due yet.
  cc.AdvanceTime(0.5);
  EXPECT_TRUE(cc.CollectRetries().empty());

  // Due at +1.0 (attempt 2), then backoff doubles: +2, then +4.
  cc.AdvanceTime(1.0);
  auto due = cc.CollectRetries();
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].user_id, 101);
  cc.AdvanceTime(2.9);
  EXPECT_TRUE(cc.CollectRetries().empty());
  cc.AdvanceTime(3.0);
  EXPECT_EQ(cc.CollectRetries().size(), 1u);  // attempt 3
  cc.AdvanceTime(7.0);
  EXPECT_EQ(cc.CollectRetries().size(), 1u);  // attempt 4 (last allowed)
  // Attempt budget exhausted: the directive is abandoned, not re-sent.
  cc.AdvanceTime(100.0);
  EXPECT_TRUE(cc.CollectRetries().empty());
  EXPECT_EQ(cc.PendingDirectives(), 0u);
  EXPECT_EQ(cc.DirectivesGivenUp(), 1u);
}

TEST_F(LossyWireTest, ScanReconciliationReissuesLostDirective) {
  RetryParams retry;
  retry.max_attempts = 1;  // give up immediately after the first send
  CentralController cc = Make(retry);
  cc.HandleUserArrival({101, {15.0, 10.0}, {}, {}, {}});  // believed: extender 0
  cc.AdvanceTime(10.0);
  cc.CollectRetries();  // abandons the unacked directive
  EXPECT_EQ(cc.PendingDirectives(), 0u);

  // The client never got the directive: it is still camped nowhere, and its
  // next scan says so. The CC re-issues the believed association.
  ScanReport scan{101, {15.0, 10.0}, {}, -1, {}};
  const auto result = cc.HandleScanUpdate(scan);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.directives.size(), 1u);
  EXPECT_EQ(result.directives[0].user_id, 101);
  EXPECT_EQ(result.directives[0].extender, 0);
  EXPECT_EQ(cc.PendingDirectives(), 1u);

  // Once the client confirms the right extender, scans are quiet again.
  cc.HandleDirectiveAck({101, 0});
  ScanReport agree{101, {15.0, 10.0}, {}, 0, {}};
  EXPECT_TRUE(cc.HandleScanUpdate(agree).directives.empty());
}

TEST_F(LossyWireTest, StaleUsersAreEvicted) {
  CentralController cc = Make();
  cc.HandleUserArrival({101, {15.0, 10.0}, {}, {}, {}});
  cc.AdvanceTime(5.0);
  cc.HandleUserArrival({102, {40.0, 20.0}, {}, {}, {}});
  EXPECT_EQ(cc.ScanAge(101), 5.0);
  EXPECT_EQ(cc.ScanAge(102), 0.0);
  EXPECT_TRUE(std::isinf(cc.ScanAge(999)));

  // Only 101 has gone quiet past the threshold.
  const auto evicted = cc.EvictStale(4.0);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 101);
  EXPECT_FALSE(cc.KnowsUser(101));
  EXPECT_TRUE(cc.KnowsUser(102));
  // Eviction also drops any pending directive for the ghost.
  for (const auto id : cc.UserIds()) EXPECT_NE(id, 101);

  // A fresh scan keeps a user alive indefinitely.
  cc.AdvanceTime(9.0);
  cc.HandleScanUpdate({102, {40.0, 20.0}, {}, {}, {}});
  EXPECT_TRUE(cc.EvictStale(4.0).empty());
}

TEST(ControllerTest, IdsStayStableAcrossDepartures) {
  CentralController cc(1, std::make_unique<RssiPolicy>());
  cc.HandleCapacityReport({0, 100.0});
  for (std::int64_t id = 1; id <= 5; ++id) {
    cc.HandleUserArrival({id, {20.0}, {}, {}, {}});
  }
  cc.HandleUserDeparture(2);
  cc.HandleUserDeparture(4);
  EXPECT_EQ(cc.NumUsers(), 3u);
  EXPECT_TRUE(cc.ExtenderOf(1).has_value());
  EXPECT_TRUE(cc.ExtenderOf(3).has_value());
  EXPECT_TRUE(cc.ExtenderOf(5).has_value());
  EXPECT_FALSE(cc.ExtenderOf(2).has_value());
  // Arrivals after removal still work.
  cc.HandleUserArrival({6, {20.0}, {}, {}, {}});
  EXPECT_EQ(cc.NumUsers(), 4u);
  EXPECT_TRUE(cc.ExtenderOf(6).has_value());
}

TEST(ControllerTest, RssiFromScanReportGuidesRssiPolicy) {
  // Rates tie; the recorded RSSI must break the tie.
  CentralController cc(2, std::make_unique<RssiPolicy>());
  cc.HandleCapacityReport({0, 100.0});
  cc.HandleCapacityReport({1, 100.0});
  ScanReport report{1, {20.0, 20.0}, {-75.0, -55.0}, {}, {}};
  cc.HandleUserArrival(report);
  EXPECT_EQ(cc.ExtenderOf(1), 1);
}

// --- Error categories -----------------------------------------------------

TEST(ErrorCategoryTest, EveryHandleStatusMapsToItsSupervisionClass) {
  // The fleet supervisor keys restart decisions on these three buckets:
  // mangled bytes are wire evidence, stale-world statuses are the normal
  // residue of a lossy wire, and only kOk is clean.
  EXPECT_EQ(CategoryOf(HandleStatus::kOk), ErrorCategory::kNone);
  EXPECT_EQ(CategoryOf(HandleStatus::kMalformed), ErrorCategory::kWireFault);
  EXPECT_EQ(CategoryOf(HandleStatus::kDuplicateUser),
            ErrorCategory::kStateConflict);
  EXPECT_EQ(CategoryOf(HandleStatus::kUnknownUser),
            ErrorCategory::kStateConflict);
  EXPECT_EQ(CategoryOf(HandleStatus::kUnknownExtender),
            ErrorCategory::kStateConflict);
  EXPECT_EQ(CategoryOf(HandleStatus::kIgnoredStale),
            ErrorCategory::kStateConflict);
}

TEST(ErrorCategoryTest, HandleResultExposesItsCategory) {
  CentralController cc(1, std::make_unique<RssiPolicy>());
  cc.HandleCapacityReport({0, 100.0});
  const HandleResult ok = cc.HandleUserArrival({1, {20.0}, {}, {}, {}});
  EXPECT_EQ(ok.category(), ErrorCategory::kNone);
  const HandleResult dup = cc.HandleUserArrival({1, {20.0}, {}, {}, {}});
  EXPECT_EQ(dup.status, HandleStatus::kDuplicateUser);
  EXPECT_EQ(dup.category(), ErrorCategory::kStateConflict);
  const HandleResult bad = cc.HandleUserArrival({2, {20.0, 30.0}, {}, {}, {}});
  EXPECT_EQ(bad.status, HandleStatus::kMalformed);
  EXPECT_EQ(bad.category(), ErrorCategory::kWireFault);
  EXPECT_TRUE(ToString(ErrorCategory::kProgrammingError) != nullptr);
}

// --- Clock-free tier ladder -----------------------------------------------

TEST(ReoptTierTest, FullTierMatchesUnbudgetedReoptimize) {
  // Two identical controllers with drifted state: ReoptimizeAtTier(kFull)
  // must land exactly where Reoptimize() does.
  auto build = [] {
    CentralController cc(2, std::make_unique<WoltPolicy>());
    cc.HandleCapacityReport({0, 60.0});
    cc.HandleCapacityReport({1, 20.0});
    cc.HandleUserArrival({101, {15.0, 10.0}, {}, {}, {}});
    cc.HandleUserArrival({102, {40.0, 20.0}, {}, {}, {}});
    cc.HandleUserDeparture(101);
    cc.HandleUserArrival({103, {25.0, 35.0}, {}, {}, {}});
    return cc;
  };
  CentralController a = build();
  CentralController b = build();
  a.Reoptimize();
  const ReoptReport report = b.ReoptimizeAtTier(ReoptTier::kFull);
  EXPECT_EQ(report.tier, ReoptTier::kFull);
  EXPECT_NEAR(a.CurrentAggregate(), b.CurrentAggregate(), 1e-12);
  for (const std::int64_t id : a.UserIds()) {
    EXPECT_EQ(a.ExtenderOf(id), b.ExtenderOf(id)) << "user " << id;
  }
}

TEST(ReoptTierTest, DegradedTiersNeverHarmTheAggregate) {
  // Every rung below kFull reports a tier below kFull and, thanks to the
  // do-no-harm guard, never lands below the pre-reopt aggregate.
  for (const ReoptTier tier :
       {ReoptTier::kHungarianOnly, ReoptTier::kGreedy,
        ReoptTier::kHoldLastGood}) {
    CentralController cc(2, std::make_unique<WoltPolicy>());
    cc.HandleCapacityReport({0, 60.0});
    cc.HandleCapacityReport({1, 20.0});
    cc.HandleUserArrival({101, {15.0, 10.0}, {}, {}, {}});
    cc.HandleUserArrival({102, {40.0, 20.0}, {}, {}, {}});
    const double before = cc.CurrentAggregate();
    const ReoptReport report = cc.ReoptimizeAtTier(tier);
    EXPECT_NE(report.tier, ReoptTier::kFull) << ToString(tier);
    EXPECT_GE(cc.CurrentAggregate(), before - 1e-12) << ToString(tier);
  }
}

// The degraded rungs keep their solvers across epochs: repeated
// Hungarian-only reoptimizations on one controller warm the rung's arena
// once and then reuse it, instead of allocating a fresh arena per call.
TEST(ReoptTierTest, HungarianRungReusesItsArenaAcrossEpochs) {
#if WOLT_OBS_ENABLED
  constexpr std::size_t kExtenders = 15;
  CentralController cc(kExtenders, std::make_unique<WoltPolicy>());
  for (std::size_t j = 0; j < kExtenders; ++j) {
    cc.HandleCapacityReport({static_cast<int>(j), 40.0 + 5.0 * j});
  }
  for (std::int64_t id = 0; id < 60; ++id) {
    ScanReport scan;
    scan.user_id = id;
    for (std::size_t j = 0; j < kExtenders; ++j) {
      const std::int64_t k = static_cast<std::int64_t>(j);
      const bool hears = (id * 7 + k * 11) % 13 < 5;
      scan.rates_mbps.push_back(hears ? 6.5 + 3.0 * ((id * 3 + k * 5) % 17)
                                      : 0.0);
    }
    ASSERT_EQ(cc.IngestScan(scan), HandleStatus::kOk);
  }

  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(registry);
  for (int epoch = 0; epoch < 20; ++epoch) {
    cc.ReoptimizeAtTier(ReoptTier::kHungarianOnly);
  }
  std::uint64_t grows = 0;
  for (const auto& c : registry.Snapshot().counters) {
    if (c.name == "arena.grows") grows = c.value;
  }
  EXPECT_LE(grows, 1u);
#else
  GTEST_SKIP() << "obs counters compiled out";
#endif
}

// --- Save/restore ---------------------------------------------------------

TEST(ControllerStateTest, SaveRestoreIsBehaviorallyEquivalent) {
  CentralController cc(2, std::make_unique<WoltPolicy>());
  cc.HandleCapacityReport({0, 60.0});
  cc.HandleCapacityReport({1, 20.0});
  cc.HandleUserArrival({101, {15.0, 10.0}, {}, {}, {}});
  cc.AdvanceTime(1.0);
  cc.HandleUserArrival({102, {40.0, 20.0}, {}, {}, {}});
  cc.HandleUserDeparture(101);
  cc.HandleUserArrival({103, {25.0, 35.0}, {}, {}, {}});

  std::string blob;
  cc.SaveState(&blob);
  CentralController restored(2, std::make_unique<WoltPolicy>());
  util::ByteCursor cur(blob);
  ASSERT_TRUE(restored.RestoreState(&cur));
  EXPECT_TRUE(cur.AtEnd());

  EXPECT_EQ(restored.NumUsers(), cc.NumUsers());
  EXPECT_NEAR(restored.CurrentAggregate(), cc.CurrentAggregate(), 1e-12);
  for (const std::int64_t id : cc.UserIds()) {
    EXPECT_EQ(restored.ExtenderOf(id), cc.ExtenderOf(id)) << "user " << id;
  }
  // The restored twin must also *behave* identically from here on.
  const HandleResult ra = cc.HandleScanUpdate({103, {5.0, 45.0}, {}, {}, {}});
  const HandleResult rb =
      restored.HandleScanUpdate({103, {5.0, 45.0}, {}, {}, {}});
  EXPECT_EQ(ra.status, rb.status);
  EXPECT_EQ(ra.directives.size(), rb.directives.size());
  cc.Reoptimize();
  restored.Reoptimize();
  EXPECT_NEAR(restored.CurrentAggregate(), cc.CurrentAggregate(), 1e-12);
  // And re-saving yields the same bytes: the snapshot is canonical.
  std::string blob_a, blob_b;
  cc.SaveState(&blob_a);
  restored.SaveState(&blob_b);
  EXPECT_EQ(blob_a, blob_b);
}

TEST(ControllerStateTest, MalformedBlobLeavesControllerUntouched) {
  CentralController cc(2, std::make_unique<WoltPolicy>());
  cc.HandleCapacityReport({0, 60.0});
  cc.HandleCapacityReport({1, 20.0});
  cc.HandleUserArrival({101, {15.0, 10.0}, {}, {}, {}});
  std::string blob;
  cc.SaveState(&blob);

  // Truncated blob: rejected, state intact (all-or-nothing restore).
  CentralController victim(2, std::make_unique<WoltPolicy>());
  victim.HandleCapacityReport({0, 10.0});
  victim.HandleUserArrival({7, {5.0, 0.0}, {}, {}, {}});
  const double before = victim.CurrentAggregate();
  std::string truncated = blob.substr(0, blob.size() / 2);
  util::ByteCursor cur(truncated);
  EXPECT_FALSE(victim.RestoreState(&cur));
  EXPECT_EQ(victim.NumUsers(), 1u);
  EXPECT_NEAR(victim.CurrentAggregate(), before, 1e-12);
  EXPECT_EQ(victim.ExtenderOf(7), 0);

  // A blob from a controller with a different extender count is refused.
  CentralController wrong(3, std::make_unique<WoltPolicy>());
  util::ByteCursor cur2(blob);
  EXPECT_FALSE(wrong.RestoreState(&cur2));
}

}  // namespace
}  // namespace wolt::core
