// Failure injection: PLC links dying mid-run (tripped breakers, unplugged
// extenders) and how the model, the policies and the controller react.
#include <gtest/gtest.h>

#include <memory>

#include "core/controller.h"
#include "core/greedy.h"
#include "core/wolt.h"
#include "model/evaluator.h"
#include "sim/scenario.h"
#include "testbed/lab.h"
#include "util/rng.h"

namespace wolt {
namespace {

TEST(FailureTest, DeadBackhaulDeliversZeroWithoutPoisoningOthers) {
  model::Network net = testbed::CaseStudyNetwork();
  model::Assignment a(2);
  a.Assign(0, 1);
  a.Assign(1, 0);  // the optimal 10 + 30 split
  net.SetPlcRate(1, 0.0);  // extender 2's power line dies
  const model::EvalResult r = model::Evaluator().Evaluate(net, a);
  // User 0 (on the dead extender) starves...
  EXPECT_DOUBLE_EQ(r.user_throughput_mbps[0], 0.0);
  EXPECT_EQ(r.extenders[1].bottleneck, model::Bottleneck::kPlc);
  // ...but the dead extender stops consuming airtime, so user 1 now gets
  // the full 40 its WiFi supports (not just 30).
  EXPECT_NEAR(r.user_throughput_mbps[1], 40.0, 1e-9);
  EXPECT_NEAR(r.aggregate_mbps, 40.0, 1e-9);
}

TEST(FailureTest, DeadBackhaulWithDemandsAlsoSafe) {
  model::Network net = testbed::CaseStudyNetwork();
  net.SetUserDemand(1, 5.0);
  model::Assignment a(2);
  a.Assign(0, 1);
  a.Assign(1, 1);  // both users on extender 2
  net.SetPlcRate(1, 0.0);
  const model::EvalResult r = model::Evaluator().Evaluate(net, a);
  EXPECT_DOUBLE_EQ(r.aggregate_mbps, 0.0);
  EXPECT_DOUBLE_EQ(r.user_throughput_mbps[0], 0.0);
  EXPECT_DOUBLE_EQ(r.user_throughput_mbps[1], 0.0);
}

TEST(FailureTest, WoltAvoidsDeadExtenders) {
  model::Network net = testbed::CaseStudyNetwork();
  net.SetPlcRate(0, 0.0);  // the strong extender dies before association
  core::WoltPolicy wolt;
  const model::Assignment a = wolt.AssociateFresh(net);
  EXPECT_EQ(a.ExtenderOf(0), 1);
  EXPECT_EQ(a.ExtenderOf(1), 1);
  const double agg = model::Evaluator().AggregateThroughput(net, a);
  // Both users share extender 2: min(WiFi 2/(1/10+1/20)=13.3, PLC 20).
  EXPECT_NEAR(agg, 2.0 / (1.0 / 10.0 + 1.0 / 20.0), 1e-9);
}

TEST(FailureTest, DeadBackhaulSafeUnderAllPlcSharingModes) {
  // The dead extender must starve its users — and only its users — under
  // every PLC airtime-sharing model, not just the physical default.
  model::Network net = testbed::CaseStudyNetwork();
  model::Assignment a(2);
  a.Assign(0, 1);  // user 0 on the (soon dead) extender 2
  a.Assign(1, 0);
  net.SetPlcRate(1, 0.0);

  // kMaxMinActive / kEqualActive: the dead cell advertises zero demand, so
  // the survivor owns the whole airtime: min(WiFi 40, PLC 60) = 40.
  for (const auto mode :
       {model::PlcSharing::kMaxMinActive, model::PlcSharing::kEqualActive}) {
    model::EvalOptions opt;
    opt.plc_sharing = mode;
    const model::EvalResult r = model::Evaluator(opt).Evaluate(net, a);
    EXPECT_DOUBLE_EQ(r.user_throughput_mbps[0], 0.0) << ToString(mode);
    EXPECT_EQ(r.extenders[1].bottleneck, model::Bottleneck::kPlc);
    EXPECT_NEAR(r.user_throughput_mbps[1], 40.0, 1e-9) << ToString(mode);
    EXPECT_NEAR(r.aggregate_mbps, 40.0, 1e-9) << ToString(mode);
  }

  // kEqualAll: the planning model reserves 1/|A| airtime for every
  // extender, dead or not — the survivor is throttled to 60/2 = 30.
  {
    model::EvalOptions opt;
    opt.plc_sharing = model::PlcSharing::kEqualAll;
    const model::EvalResult r = model::Evaluator(opt).Evaluate(net, a);
    EXPECT_DOUBLE_EQ(r.user_throughput_mbps[0], 0.0);
    EXPECT_NEAR(r.user_throughput_mbps[1], 30.0, 1e-9);
    EXPECT_NEAR(r.aggregate_mbps, 30.0, 1e-9);
  }
}

TEST(FailureTest, DeadCellStillContendsOnSharedWifiChannel) {
  // A client camped on a dead-backhaul extender keeps transmitting on the
  // WiFi side: when both cells share a channel it still eats airtime even
  // though its backhaul delivers nothing. Evacuating the dead cell frees
  // the channel.
  model::Network net = testbed::CaseStudyNetwork();
  model::EvalOptions opt;
  opt.wifi_contention_domain = {0, 0};  // co-channel cells
  const model::Evaluator eval(opt);

  model::Assignment camped(2);
  camped.Assign(0, 1);
  camped.Assign(1, 0);
  net.SetPlcRate(1, 0.0);
  const model::EvalResult r = eval.Evaluate(net, camped);
  EXPECT_DOUBLE_EQ(r.user_throughput_mbps[0], 0.0);
  // Survivor's cell halves: min(40/2, 60) = 20.
  EXPECT_NEAR(r.user_throughput_mbps[1], 20.0, 1e-9);
  EXPECT_NEAR(r.aggregate_mbps, 20.0, 1e-9);

  // Once the ghost user leaves the dead cell, the survivor gets the full
  // channel back.
  model::Assignment evacuated(2);
  evacuated.Assign(1, 0);  // user 0 unassigned
  EXPECT_NEAR(eval.Evaluate(net, evacuated).aggregate_mbps, 40.0, 1e-9);
}

TEST(FailureTest, ControllerEvacuatesAfterCapacityLoss) {
  core::CentralController cc(2, std::make_unique<core::WoltPolicy>());
  cc.HandleCapacityReport({0, 60.0});
  cc.HandleCapacityReport({1, 20.0});
  cc.HandleUserArrival({101, {15.0, 10.0}, {}, {}, {}});
  cc.HandleUserArrival({102, {40.0, 20.0}, {}, {}, {}});
  ASSERT_NEAR(cc.CurrentAggregate(), 40.0, 1e-9);

  // Extender 1's power line dies; the next probe reports 0.
  cc.HandleCapacityReport({0, 0.0});
  const auto directives = cc.Reoptimize();
  EXPECT_FALSE(directives.empty());
  EXPECT_EQ(cc.ExtenderOf(101), 1);
  EXPECT_EQ(cc.ExtenderOf(102), 1);
  EXPECT_GT(cc.CurrentAggregate(), 10.0);
}

TEST(FailureTest, ReassociationRecoversMostThroughputAtScale) {
  sim::ScenarioParams p;
  p.num_extenders = 10;
  p.num_users = 24;
  const sim::ScenarioGenerator gen(p);
  util::Rng rng(99);
  model::Network net = gen.Generate(rng);
  core::WoltOptions so;
  so.subset_search = true;
  core::WoltPolicy wolt(so);
  const model::Assignment before = wolt.AssociateFresh(net);
  const double healthy =
      model::Evaluator().AggregateThroughput(net, before);

  // Kill the busiest extender.
  const auto load = before.LoadVector(net.NumExtenders());
  std::size_t busiest = 0;
  for (std::size_t j = 1; j < net.NumExtenders(); ++j) {
    if (load[j] > load[busiest]) busiest = j;
  }
  net.SetPlcRate(busiest, 0.0);
  const double degraded =
      model::Evaluator().AggregateThroughput(net, before);

  // Re-associating recovers throughput lost to the stranded users.
  const model::Assignment after = wolt.Associate(net, before);
  const double recovered =
      model::Evaluator().AggregateThroughput(net, after);
  EXPECT_GE(recovered, degraded - 1e-9);
  EXPECT_GT(recovered, 0.7 * healthy);
  // Nobody remains on the dead extender.
  EXPECT_TRUE(after.UsersOf(busiest).empty());
}

TEST(FailureTest, GreedyStrandsUsersButWoltDoesNot) {
  // Greedy never re-assigns: users on a failed extender stay stranded
  // until they leave. WOLT's epoch re-optimization moves them.
  model::Network net = testbed::CaseStudyNetwork();
  core::GreedyPolicy greedy;
  const model::Assignment before = greedy.AssociateFresh(net);
  net.SetPlcRate(1, 0.0);  // user 1 (on extender 2 under greedy) stranded
  const model::Assignment after = greedy.Associate(net, before);
  EXPECT_EQ(after, before);  // greedy does nothing
  const model::EvalResult r = model::Evaluator().Evaluate(net, after);
  EXPECT_DOUBLE_EQ(r.user_throughput_mbps[1], 0.0);

  core::WoltPolicy wolt;
  const model::Assignment rescued = wolt.Associate(net, before);
  const model::EvalResult r2 = model::Evaluator().Evaluate(net, rescued);
  EXPECT_GT(r2.user_throughput_mbps[1], 0.0);
}

}  // namespace
}  // namespace wolt
