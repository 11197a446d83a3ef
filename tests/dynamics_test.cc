#include "sim/dynamics.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "core/greedy.h"
#include "core/rssi.h"
#include "core/wolt.h"

namespace wolt::sim {
namespace {

ScenarioGenerator SmallScenario() {
  ScenarioParams p;
  p.num_extenders = 6;
  p.num_users = 0;
  return ScenarioGenerator(p);
}

TEST(DynamicsTest, RejectsBadInputs) {
  const ScenarioGenerator gen = SmallScenario();
  util::Rng rng(1);
  core::WoltPolicy wolt;
  EXPECT_THROW(RunDynamicSimulation(gen, {}, {}, rng), std::invalid_argument);
  std::vector<core::AssociationPolicy*> policies = {&wolt};
  // An infinite rate or epoch length would keep the event loop from ever
  // reaching a boundary, a NaN slips past a plain `<= 0` check, and a
  // negative departure rate would silently mean no departures.
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<DynamicsParams> bad_cases;
  for (const double x : {0.0, -1.0, kInf, kNaN}) {
    bad_cases.emplace_back().arrival_rate = x;
    bad_cases.emplace_back().epoch_length = x;
  }
  for (const double x : {-0.25, kInf, kNaN}) {
    bad_cases.emplace_back().departure_rate = x;
  }
  bad_cases.emplace_back().epochs = 0;
  for (const DynamicsParams& bad : bad_cases) {
    EXPECT_THROW(RunDynamicSimulation(gen, policies, bad, rng),
                 std::invalid_argument)
        << "arrival_rate=" << bad.arrival_rate
        << " epoch_length=" << bad.epoch_length
        << " departure_rate=" << bad.departure_rate
        << " epochs=" << bad.epochs;
  }
}

TEST(DynamicsTest, PopulationGrowsPerCalibration) {
  // §V-E calibration: ~36 arrivals and ~3 departures per epoch -> the
  // population trajectory approximates 36 / 66 / 102.
  const ScenarioGenerator gen = SmallScenario();
  core::WoltPolicy wolt;
  std::vector<core::AssociationPolicy*> policies = {&wolt};
  DynamicsParams params;
  util::Rng rng(42);
  const std::vector<EpochStats> history =
      RunDynamicSimulation(gen, policies, params, rng);
  ASSERT_EQ(history.size(), 3u);
  EXPECT_NEAR(static_cast<double>(history[0].population), 36.0, 15.0);
  EXPECT_NEAR(static_cast<double>(history[1].population), 66.0, 20.0);
  EXPECT_NEAR(static_cast<double>(history[2].population), 102.0, 25.0);
  for (const auto& epoch : history) {
    EXPECT_GT(epoch.arrivals, 0u);
  }
}

TEST(DynamicsTest, EveryPolicySeesTheSameTrace) {
  const ScenarioGenerator gen = SmallScenario();
  core::WoltPolicy wolt;
  core::GreedyPolicy greedy;
  core::RssiPolicy rssi;
  std::vector<core::AssociationPolicy*> policies = {&wolt, &greedy, &rssi};
  DynamicsParams params;
  params.epochs = 2;
  util::Rng rng(7);
  const std::vector<EpochStats> history =
      RunDynamicSimulation(gen, policies, params, rng);
  for (const auto& epoch : history) {
    ASSERT_EQ(epoch.per_policy.size(), 3u);
    EXPECT_EQ(epoch.per_policy[0].policy, "WOLT");
    EXPECT_EQ(epoch.per_policy[1].policy, "Greedy");
    EXPECT_EQ(epoch.per_policy[2].policy, "RSSI");
    for (const auto& ps : epoch.per_policy) {
      EXPECT_GT(ps.aggregate_mbps, 0.0);
      EXPECT_GT(ps.jain_fairness, 0.0);
      EXPECT_LE(ps.jain_fairness, 1.0 + 1e-9);
    }
  }
}

TEST(DynamicsTest, OnlineBaselinesNeverReassign) {
  const ScenarioGenerator gen = SmallScenario();
  core::GreedyPolicy greedy;
  core::RssiPolicy rssi;
  std::vector<core::AssociationPolicy*> policies = {&greedy, &rssi};
  DynamicsParams params;
  util::Rng rng(11);
  const std::vector<EpochStats> history =
      RunDynamicSimulation(gen, policies, params, rng);
  for (const auto& epoch : history) {
    for (const auto& ps : epoch.per_policy) {
      EXPECT_EQ(ps.reassignments, 0u) << ps.policy;
    }
  }
}

TEST(DynamicsTest, WoltReassignmentsBoundedByArrivals) {
  // Fig. 6c: WOLT re-assigns at most ~2x the number of arriving users.
  const ScenarioGenerator gen = SmallScenario();
  core::WoltPolicy wolt;
  std::vector<core::AssociationPolicy*> policies = {&wolt};
  DynamicsParams params;
  util::Rng rng(13);
  const std::vector<EpochStats> history =
      RunDynamicSimulation(gen, policies, params, rng);
  for (const auto& epoch : history) {
    EXPECT_LE(epoch.per_policy[0].reassignments,
              2 * epoch.arrivals + gen.params().num_extenders)
        << "epoch " << epoch.epoch;
  }
}

TEST(DynamicsTest, WoltTracksBaselinesOverEpochs) {
  // Fig. 6b shape: the aggregate grows with the population and WOLT stays
  // within a tight band of the strong online-greedy baseline throughout
  // (the paper's larger reported gap traces to its weaker baseline — see
  // EXPERIMENTS.md; the dominance result for the WOLT-S extension is
  // asserted separately).
  const ScenarioGenerator gen = SmallScenario();
  core::WoltPolicy wolt;
  core::GreedyPolicy greedy;
  core::RssiPolicy rssi;
  std::vector<core::AssociationPolicy*> policies = {&wolt, &greedy, &rssi};
  DynamicsParams params;
  util::Rng rng(17);
  const std::vector<EpochStats> history =
      RunDynamicSimulation(gen, policies, params, rng);
  const auto& last = history.back();
  EXPECT_GT(last.per_policy[0].aggregate_mbps,
            0.9 * last.per_policy[1].aggregate_mbps);
  EXPECT_GT(last.per_policy[0].aggregate_mbps,
            0.9 * last.per_policy[2].aggregate_mbps);
  // Aggregate grows (or at least does not shrink) as users accumulate.
  EXPECT_GE(last.per_policy[0].aggregate_mbps,
            history.front().per_policy[0].aggregate_mbps * 0.9);
}

TEST(DynamicsTest, SubsetWoltDominatesGreedyOverEpochs) {
  const ScenarioGenerator gen = SmallScenario();
  core::WoltOptions so;
  so.subset_search = true;
  core::WoltPolicy wolts(so);
  core::GreedyPolicy greedy;
  std::vector<core::AssociationPolicy*> policies = {&wolts, &greedy};
  DynamicsParams params;
  util::Rng rng(17);
  const std::vector<EpochStats> history =
      RunDynamicSimulation(gen, policies, params, rng);
  const auto& last = history.back();
  EXPECT_GE(last.per_policy[0].aggregate_mbps,
            last.per_policy[1].aggregate_mbps * 0.98);
}

TEST(DynamicsTest, PhysicalModelKeepsWoltCompetitive) {
  // Reproduction finding: under the physically-validated max-min sharing,
  // force-activating every extender costs WOLT some aggregate at scale; it
  // must still stay within a bounded factor of the greedy baseline.
  const ScenarioGenerator gen = SmallScenario();
  core::WoltPolicy wolt;
  core::GreedyPolicy greedy;
  std::vector<core::AssociationPolicy*> policies = {&wolt, &greedy};
  DynamicsParams params;
  util::Rng rng(17);
  const std::vector<EpochStats> history =
      RunDynamicSimulation(gen, policies, params, rng);
  const auto& last = history.back();
  EXPECT_GT(last.per_policy[0].aggregate_mbps,
            0.7 * last.per_policy[1].aggregate_mbps);
}

TEST(DynamicsTest, DeterministicGivenSeed) {
  const ScenarioGenerator gen = SmallScenario();
  DynamicsParams params;
  params.epochs = 2;
  core::WoltPolicy w1, w2;
  std::vector<core::AssociationPolicy*> p1 = {&w1};
  std::vector<core::AssociationPolicy*> p2 = {&w2};
  util::Rng a(23), b(23);
  const auto h1 = RunDynamicSimulation(gen, p1, params, a);
  const auto h2 = RunDynamicSimulation(gen, p2, params, b);
  ASSERT_EQ(h1.size(), h2.size());
  for (std::size_t e = 0; e < h1.size(); ++e) {
    EXPECT_EQ(h1[e].population, h2[e].population);
    EXPECT_DOUBLE_EQ(h1[e].per_policy[0].aggregate_mbps,
                     h2[e].per_policy[0].aggregate_mbps);
  }
}

TEST(DynamicsTest, NoDeparturesWhenRateZero) {
  const ScenarioGenerator gen = SmallScenario();
  core::WoltPolicy wolt;
  std::vector<core::AssociationPolicy*> policies = {&wolt};
  DynamicsParams params;
  params.departure_rate = 0.0;
  params.epochs = 2;
  util::Rng rng(29);
  const auto history = RunDynamicSimulation(gen, policies, params, rng);
  for (const auto& epoch : history) {
    EXPECT_EQ(epoch.departures, 0u);
  }
}

}  // namespace
}  // namespace wolt::sim
