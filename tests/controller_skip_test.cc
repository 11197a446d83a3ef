// Scan-skip differential. CentralController::HandleScanUpdate skips the
// policy run when the policy declares RatesOnlyFixedPoint() and the scan
// changes nothing the solve reads. Skipping must be invisible on the wire:
// building-style traces (waypoint mobility, churn, diurnal demand refreshes,
// a background PLC share, ReoptimizeUpToTier(kFull) epochs) are replayed
// through the wire codec into a controller running WoltPolicy and into one
// running a wrapper that solves on every scan, and every directive batch
// must match byte for byte. With observability compiled in, the work
// counters of one seed are pinned exactly, so a controller that stops
// skipping fails here without any timing involved.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/greedy.h"
#include "core/wolt.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "sim/scenario.h"
#include "sim/workload.h"
#include "util/codec.h"
#include "util/rng.h"

namespace wolt {
namespace {

constexpr std::size_t kExtenders = 12;
constexpr std::size_t kUsers = 120;
constexpr double kHorizon = 12.0;
constexpr double kEpochLength = 2.0;

// Forwards to WoltPolicy but keeps the default RatesOnlyFixedPoint(),
// false, so the controller holding it solves on every scan.
class AlwaysSolve : public core::AssociationPolicy {
 public:
  std::string Name() const override { return "WOLT, solving every scan"; }
  model::Assignment Associate(const model::Network& net,
                              const model::Assignment& previous) override {
    return wolt_.Associate(net, previous);
  }

 private:
  core::WoltPolicy wolt_;
};

struct World {
  model::Network floor;  // extenders only
  sim::WorkloadTrace trace;
};

World MakeWorld(std::uint64_t seed) {
  sim::ScenarioParams sp;
  sp.width_m = 60.0;
  sp.height_m = 40.0;
  sp.num_extenders = kExtenders;
  sp.num_users = 0;
  const sim::ScenarioGenerator gen(sp);
  util::Rng rng(seed);
  World w;
  w.floor = gen.Generate(rng);
  sim::WorkloadParams wp;
  wp.horizon = kHorizon;
  wp.initial_users = kUsers;
  wp.mean_session = 24.0;
  wp.arrival_rate = static_cast<double>(kUsers) / wp.mean_session;
  wp.mobility.model = sim::MobilityModel::kWaypoint;
  wp.load = sim::LoadCurve::kDiurnal;
  wp.base_demand_mbps = 0.5;
  wp.background_share = 0.3;
  w.trace = sim::GenerateTrace(gen, w.floor, wp, seed);
  return w;
}

// What one replay put on the wire and where it left everyone.
struct Outcome {
  std::vector<std::string> batches;  // encoded directives, per event/epoch
  std::vector<std::int64_t> ids;
  model::Assignment assignment;
  std::uint64_t scans = 0;  // HandleScanUpdate calls
  std::uint64_t policy_runs = 0;
  std::uint64_t scans_skipped = 0;
};

std::uint64_t CounterValue(const obs::MetricsRegistry& registry,
                           const std::string& name) {
  for (const auto& c : registry.Snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// Replays `world` into one controller, every message through the wire
// codec. Clients ack every directive, and every seventh scan claims the
// client is on no extender (a lost directive), so reconciliation runs on
// skipped and solved scans alike.
Outcome Replay(const World& world, core::PolicyPtr policy) {
  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(registry);
  core::CentralController ctrl(kExtenders, std::move(policy));
  Outcome out;

  const auto deliver = [&](const std::vector<core::AssociationDirective>& ds) {
    std::string batch;
    for (const core::AssociationDirective& d : ds) {
      const std::string line = core::Encode(d);
      batch += line;
      batch += '\n';
      const auto got = core::DecodeAssociationDirective(line);
      ASSERT_TRUE(got.has_value()) << line;
      const auto ack = core::DecodeDirectiveAck(
          core::Encode(core::DirectiveAck{got->user_id, got->extender}));
      ASSERT_TRUE(ack.has_value());
      EXPECT_EQ(ctrl.HandleDirectiveAck(*ack), core::HandleStatus::kOk);
    }
    out.batches.push_back(std::move(batch));
  };
  const auto capacity = [&](std::size_t j, double mbps) {
    const auto report = core::DecodeCapacityReport(
        core::Encode(core::CapacityReport{static_cast<int>(j), mbps}));
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(ctrl.HandleCapacityReport(*report), core::HandleStatus::kOk);
  };

  struct Client {
    std::vector<double> rates, rssi;
    double base_demand = 0.0;
  };
  std::map<std::int64_t, Client> live;  // ordered: deterministic refresh
  double load_scale = 1.0;
  std::uint64_t sent = 0;
  const auto scan = [&](std::int64_t uid, bool arrival) {
    const Client& c = live.at(uid);
    core::ScanReport msg;
    msg.user_id = uid;
    msg.rates_mbps = c.rates;
    msg.rssi_dbm = c.rssi;
    msg.demand_mbps = c.base_demand * load_scale;
    if (++sent % 7 == 0) msg.associated_extender = -1;
    const auto decoded = core::DecodeScanReport(core::Encode(msg));
    ASSERT_TRUE(decoded.has_value());
    if (!arrival) ++out.scans;
    const core::HandleResult res = arrival ? ctrl.HandleUserArrival(*decoded)
                                           : ctrl.HandleScanUpdate(*decoded);
    EXPECT_TRUE(res.ok()) << core::ToString(res.status);
    deliver(res.directives);
  };

  for (std::size_t j = 0; j < kExtenders; ++j) {
    capacity(j, world.floor.PlcRate(j));
  }
  double next_epoch = kEpochLength;
  for (const sim::TraceEvent& ev : world.trace.events) {
    while (ev.time > next_epoch) {
      ctrl.AdvanceTime(next_epoch);
      deliver(ctrl.ReoptimizeUpToTier(core::ReoptTier::kFull).directives);
      next_epoch += kEpochLength;
    }
    ctrl.AdvanceTime(ev.time);
    switch (ev.kind) {
      case sim::TraceEventKind::kArrival:
        live[ev.user] = Client{ev.rates_mbps, ev.rssi_dbm, ev.demand_mbps};
        scan(ev.user, /*arrival=*/true);
        break;
      case sim::TraceEventKind::kMove:
        live.at(ev.user).rates = ev.rates_mbps;
        live.at(ev.user).rssi = ev.rssi_dbm;
        scan(ev.user, /*arrival=*/false);
        break;
      case sim::TraceEventKind::kDeparture: {
        live.erase(ev.user);
        const auto notice = core::DecodeDepartureNotice(
            core::Encode(core::DepartureNotice{ev.user}));
        EXPECT_TRUE(notice.has_value());
        EXPECT_EQ(ctrl.HandleUserDeparture(notice.value_or(
                      core::DepartureNotice{ev.user}).user_id),
                  core::HandleStatus::kOk);
        break;
      }
      case sim::TraceEventKind::kLoad:
        load_scale = ev.value;
        for (const auto& [uid, c] : live) {
          if (c.base_demand > 0.0) scan(uid, /*arrival=*/false);
        }
        break;
      case sim::TraceEventKind::kBackground:
        for (std::size_t j = 0; j < kExtenders; ++j) {
          if (world.floor.PlcDomain(j) == ev.domain) {
            capacity(j, world.floor.PlcRate(j) * (1.0 - ev.value));
          }
        }
        break;
    }
  }

  out.ids = ctrl.UserIds();
  out.assignment = ctrl.assignment();
  out.policy_runs = CounterValue(registry, "ctrl.policy_runs");
  out.scans_skipped = CounterValue(registry, "ctrl.scans.skipped");
  return out;
}

TEST(ControllerSkipTest, SkippedScansLeaveTheDirectiveStreamUnchanged) {
  for (const std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const World world = MakeWorld(seed);
    const Outcome skip = Replay(world, std::make_unique<core::WoltPolicy>());
    const Outcome solve = Replay(world, std::make_unique<AlwaysSolve>());
    ASSERT_EQ(skip.batches.size(), solve.batches.size());
    for (std::size_t k = 0; k < skip.batches.size(); ++k) {
      ASSERT_EQ(skip.batches[k], solve.batches[k]) << "batch " << k;
    }
    EXPECT_EQ(skip.ids, solve.ids);
    EXPECT_EQ(skip.assignment, solve.assignment);
    EXPECT_EQ(skip.scans, solve.scans);
#if WOLT_OBS_ENABLED
    // Every skipped scan is one policy run the other controller made, and
    // at least 40% of the scans skip.
    EXPECT_EQ(solve.scans_skipped, 0u);
    EXPECT_EQ(skip.policy_runs + skip.scans_skipped, solve.policy_runs);
    EXPECT_GE(skip.scans_skipped * 10, skip.scans * 4)
        << skip.scans_skipped << " of " << skip.scans << " scans skipped";
    if (seed == 1) {
      // Exact counts, so a controller that stops skipping fails here
      // without any timing involved. A change to them is a change to how
      // often the controller solves: say why in CHANGES.md.
      EXPECT_EQ(skip.scans, 2827u);
      EXPECT_EQ(skip.policy_runs, 1333u);
      EXPECT_EQ(skip.scans_skipped, 1683u);
    }
#endif
  }
}

// --- The skip rule, case by case -----------------------------------------

// A two-extender controller with three users on it, counting into
// `registry`.
class SkipRuleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctrl_.HandleCapacityReport({0, 60.0});
    ctrl_.HandleCapacityReport({1, 40.0});
    for (std::int64_t id = 1; id <= 3; ++id) {
      ASSERT_TRUE(ctrl_.HandleUserArrival(Scan(id)).ok());
    }
  }

  static core::ScanReport Scan(std::int64_t id) {
    core::ScanReport scan;
    scan.user_id = id;
    scan.rates_mbps = {10.0 * static_cast<double>(id), 15.0};
    scan.demand_mbps = 1.0;
    return scan;
  }

  // Handles `scan` as an update; true iff the policy ran for it.
  bool Solved(const core::ScanReport& scan) {
    obs::MetricsRegistry registry;
    obs::ScopedMetrics scoped(registry);
    EXPECT_TRUE(ctrl_.HandleScanUpdate(scan).ok());
    const std::uint64_t runs = CounterValue(registry, "ctrl.policy_runs");
    EXPECT_EQ(runs + CounterValue(registry, "ctrl.scans.skipped"), 1u);
    return runs == 1;
  }

  core::CentralController ctrl_{2, std::make_unique<core::WoltPolicy>()};
};

TEST_F(SkipRuleTest, OnlyUnchangedInputsSkip) {
#if WOLT_OBS_ENABLED
  // The last arrival solved; a scan with equal rates and a new demand and
  // RSSI row skips, and so does the next one.
  core::ScanReport scan = Scan(2);
  scan.demand_mbps = 3.0;
  scan.rssi_dbm = {-60.0, -70.0};
  EXPECT_FALSE(Solved(scan));
  EXPECT_FALSE(Solved(Scan(1)));
  // A changed rate solves, and re-arms the skip.
  scan.rates_mbps[1] = 16.0;
  EXPECT_TRUE(Solved(scan));
  EXPECT_FALSE(Solved(scan));
  // -0.0 == 0.0, but not bitwise: the stored row is not matched.
  core::ScanReport zero = Scan(3);
  zero.rates_mbps[1] = 0.0;
  EXPECT_TRUE(Solved(zero));
  zero.rates_mbps[1] = -0.0;
  EXPECT_TRUE(Solved(zero));
  EXPECT_FALSE(Solved(zero));
  // A capacity report, even of an equal capacity, solves the next scan.
  ctrl_.HandleCapacityReport({0, 60.0});
  EXPECT_TRUE(Solved(Scan(1)));
  // So do a departure, an IngestScan and a reoptimization epoch.
  ASSERT_EQ(ctrl_.HandleUserDeparture(3), core::HandleStatus::kOk);
  EXPECT_TRUE(Solved(Scan(1)));
  ASSERT_EQ(ctrl_.IngestScan(Scan(2)), core::HandleStatus::kOk);
  EXPECT_TRUE(Solved(Scan(1)));
  ctrl_.Reoptimize();
  EXPECT_TRUE(Solved(Scan(1)));
  EXPECT_FALSE(Solved(Scan(1)));
#else
  GTEST_SKIP() << "obs counters compiled out";
#endif
}

TEST_F(SkipRuleTest, RestoredControllerSolvesItsFirstScan) {
#if WOLT_OBS_ENABLED
  EXPECT_FALSE(Solved(Scan(1)));
  std::string blob;
  ctrl_.SaveState(&blob);
  util::ByteCursor cur(blob);
  ASSERT_TRUE(ctrl_.RestoreState(&cur));
  EXPECT_TRUE(Solved(Scan(1)));
  EXPECT_FALSE(Solved(Scan(1)));
#else
  GTEST_SKIP() << "obs counters compiled out";
#endif
}

TEST_F(SkipRuleTest, SkippedScanStillReconciles) {
#if WOLT_OBS_ENABLED
  // User 1 acks its directive, then reports it is on no extender: the
  // scan skips the solve but re-issues the believed directive.
  const std::optional<int> believed = ctrl_.ExtenderOf(1);
  ASSERT_TRUE(believed.has_value());
  ASSERT_EQ(ctrl_.HandleDirectiveAck({1, *believed}), core::HandleStatus::kOk);
  core::ScanReport scan = Scan(1);
  scan.associated_extender = -1;
  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(registry);
  const core::HandleResult res = ctrl_.HandleScanUpdate(scan);
  EXPECT_EQ(CounterValue(registry, "ctrl.scans.skipped"), 1u);
  ASSERT_EQ(res.directives.size(), 1u);
  EXPECT_EQ(res.directives[0].user_id, 1);
  EXPECT_EQ(res.directives[0].extender, *believed);
#else
  GTEST_SKIP() << "obs counters compiled out";
#endif
}

TEST(SkipRuleNoDeclarationTest, NonDeclaringPolicySolvesEveryScan) {
#if WOLT_OBS_ENABLED
  core::CentralController ctrl(2, std::make_unique<core::GreedyPolicy>());
  ctrl.HandleCapacityReport({0, 60.0});
  ctrl.HandleCapacityReport({1, 40.0});
  ASSERT_TRUE(ctrl.HandleUserArrival({7, {20.0, 15.0}, {}, {}, {}}).ok());
  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(registry);
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(ctrl.HandleScanUpdate({7, {20.0, 15.0}, {}, {}, {}}).ok());
  }
  EXPECT_EQ(CounterValue(registry, "ctrl.policy_runs"), 3u);
  EXPECT_EQ(CounterValue(registry, "ctrl.scans.skipped"), 0u);
#else
  GTEST_SKIP() << "obs counters compiled out";
#endif
}

}  // namespace
}  // namespace wolt
