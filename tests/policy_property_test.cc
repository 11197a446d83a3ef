// Cross-policy property suite: invariants every association policy must
// satisfy on randomized instances, plus structural properties of the
// throughput model that policies rely on.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/greedy.h"
#include "core/optimal.h"
#include "core/rssi.h"
#include "core/wolt.h"
#include "model/evaluator.h"
#include "util/rng.h"

namespace wolt {
namespace {

model::Network RandomNetwork(util::Rng& rng, std::size_t users,
                             std::size_t exts, double reach_probability) {
  model::Network net(users, exts);
  for (std::size_t j = 0; j < exts; ++j) {
    net.SetPlcRate(j, rng.Uniform(20.0, 160.0));
  }
  for (std::size_t i = 0; i < users; ++i) {
    for (std::size_t j = 0; j < exts; ++j) {
      if (rng.Bernoulli(reach_probability)) {
        net.SetWifiRate(i, j, rng.Uniform(5.0, 65.0));
      }
    }
  }
  return net;
}

std::vector<core::PolicyPtr> AllPolicies() {
  std::vector<core::PolicyPtr> policies;
  policies.push_back(std::make_unique<core::WoltPolicy>());
  core::WoltOptions so;
  so.subset_search = true;
  policies.push_back(std::make_unique<core::WoltPolicy>(so));
  core::WoltOptions nlp;
  nlp.use_nlp_phase2 = true;
  policies.push_back(std::make_unique<core::WoltPolicy>(nlp));
  core::WoltOptions e2e;
  e2e.phase2_objective = assign::Phase2Objective::kEndToEnd;
  policies.push_back(std::make_unique<core::WoltPolicy>(e2e));
  core::WoltOptions pf;
  pf.phase2_objective = assign::Phase2Objective::kProportionalFair;
  policies.push_back(std::make_unique<core::WoltPolicy>(pf));
  policies.push_back(std::make_unique<core::GreedyPolicy>());
  policies.push_back(std::make_unique<core::RssiPolicy>());
  return policies;
}

class PolicyPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PolicyPropertyTest, AssignmentsAreValidAndCoverReachableUsers) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 127);
  const model::Network net = RandomNetwork(rng, 10, 4, 0.7);
  for (const auto& policy : AllPolicies()) {
    const model::Assignment a = policy->AssociateFresh(net);
    EXPECT_TRUE(a.IsValidFor(net)) << policy->Name();
    for (std::size_t i = 0; i < net.NumUsers(); ++i) {
      if (net.UserReachable(i)) {
        EXPECT_TRUE(a.IsAssigned(i))
            << policy->Name() << " left reachable user " << i << " out";
      } else {
        EXPECT_FALSE(a.IsAssigned(i));
      }
    }
  }
}

TEST_P(PolicyPropertyTest, PoliciesAreDeterministic) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131);
  const model::Network net = RandomNetwork(rng, 8, 3, 0.8);
  for (const auto& policy : AllPolicies()) {
    const model::Assignment a = policy->AssociateFresh(net);
    const model::Assignment b = policy->AssociateFresh(net);
    EXPECT_EQ(a, b) << policy->Name();
  }
}

TEST_P(PolicyPropertyTest, CapacityLimitsAlwaysRespected) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 137);
  model::Network net = RandomNetwork(rng, 9, 3, 1.0);
  for (std::size_t j = 0; j < 3; ++j) net.SetMaxUsers(j, 3);
  for (const auto& policy : AllPolicies()) {
    const model::Assignment a = policy->AssociateFresh(net);
    // The NLP Phase-II variant does not enforce B_j (the paper relaxes the
    // constraint); every other policy must respect the caps.
    if (!a.IsValidFor(net)) continue;
    const auto load = a.LoadVector(3);
    for (int l : load) {
      EXPECT_LE(l, 3) << policy->Name();
    }
  }
}

TEST_P(PolicyPropertyTest, OptimalDominatesEveryPolicy) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 139);
  const model::Network net = RandomNetwork(rng, 6, 3, 0.9);
  bool any_reachable = false;
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    if (net.UserReachable(i)) any_reachable = true;
  }
  if (!any_reachable) return;
  const model::Evaluator evaluator;
  double opt = 0.0;
  try {
    core::OptimalPolicy optimal;
    opt = evaluator.AggregateThroughput(net, optimal.AssociateFresh(net));
  } catch (const std::exception&) {
    return;  // instance has no complete feasible assignment
  }
  for (const auto& policy : AllPolicies()) {
    const model::Assignment a = policy->AssociateFresh(net);
    if (!a.IsCompleteFor(net)) continue;  // optimal only defined on complete
    EXPECT_LE(evaluator.AggregateThroughput(net, a), opt + 1e-9)
        << policy->Name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyPropertyTest, ::testing::Range(1, 16));

// --- B_j caps, dead backhauls, several domains ---

// 802.11n MCS rates: quantized, so many (user, extender) pairs tie.
constexpr double kMcsRates[] = {6.5, 13.0, 19.5, 26.0, 39.0, 52.0, 58.5, 65.0};

// A random floor with everything the solvers branch on: 1-10 extenders
// over up to three PLC domains, a tenth of them on a dead backhaul, a
// share of them capped at 1-6 users, MCS rates with 70% reach, and a few
// users no extender hears.
model::Network RandomCappedNetwork(util::Rng& rng, std::size_t max_users,
                                   double capped_share) {
  const auto exts = static_cast<std::size_t>(rng.UniformInt(1, 10));
  const auto users =
      static_cast<std::size_t>(rng.UniformInt(0, static_cast<int>(max_users)));
  model::Network net(users, exts);
  for (std::size_t j = 0; j < exts; ++j) {
    net.SetPlcRate(j, rng.Bernoulli(0.1) ? 0.0 : rng.Uniform(20.0, 160.0));
    net.SetPlcDomain(j, rng.UniformInt(0, 2));
    if (rng.Bernoulli(capped_share)) net.SetMaxUsers(j, rng.UniformInt(1, 6));
  }
  for (std::size_t i = 0; i < users; ++i) {
    if (rng.Bernoulli(0.05)) continue;  // unreachable user
    for (std::size_t j = 0; j < exts; ++j) {
      if (rng.Bernoulli(0.7)) {
        net.SetWifiRate(i, j, kMcsRates[rng.UniformInt(0, 7)]);
      }
    }
  }
  return net;
}

// A random valid previous association: about half the users sit on some
// extender they hear that still has room under its cap.
model::Assignment RandomPrevious(util::Rng& rng, const model::Network& net) {
  model::Assignment prev(net.NumUsers());
  std::vector<int> load(net.NumExtenders(), 0);
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    if (!rng.Bernoulli(0.5)) continue;
    const auto j = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int>(net.NumExtenders()) - 1));
    const int cap = net.MaxUsers(j);
    if (net.WifiRate(i, j) <= 0.0 || (cap > 0 && load[j] >= cap)) continue;
    prev.Assign(i, j);
    ++load[j];
  }
  return prev;
}

// Constraint (7) under caps: a reachable user may stay out only when every
// live extender it hears is full.
void ExpectNoneStranded(const model::Network& net, const model::Assignment& a,
                        const std::string& who) {
  const std::vector<int> load = a.LoadVector(net.NumExtenders());
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    if (a.IsAssigned(i)) continue;
    for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
      const int cap = net.MaxUsers(j);
      EXPECT_FALSE(net.WifiRate(i, j) > 0.0 && net.PlcRate(j) > 0.0 &&
                   (cap == 0 || load[j] < cap))
          << who << " left user " << i << " out beside a free slot at "
          << "extender " << j << " (load " << load[j] << ", cap " << cap
          << ")";
    }
  }
}

TEST(PolicyCapsTest, NoReachableUserStrandedBesideAFreeSlot) {
  // Most extenders capped, so users outnumber the free slots and greedy
  // insertion finds extenders full. The NLP Phase II is left out: it does
  // not enforce B_j.
  util::Rng rng(0xCA95);
  std::vector<core::PolicyPtr> policies;
  for (auto& policy : AllPolicies()) {
    const auto* wolt = dynamic_cast<const core::WoltPolicy*>(policy.get());
    if (wolt != nullptr && wolt->options().use_nlp_phase2) continue;
    policies.push_back(std::move(policy));
  }
  for (int trial = 0; trial < 400; ++trial) {
    const model::Network net = RandomCappedNetwork(rng, 60, 0.8);
    for (const auto& policy : policies) {
      const model::Assignment a = policy->AssociateFresh(net);
      ASSERT_TRUE(a.IsValidFor(net)) << policy->Name();
      ExpectNoneStranded(net, a, policy->Name() + " (trial " +
                                     std::to_string(trial) + ")");
    }
  }
}

// The WOLT configurations that declare RatesOnlyFixedPoint().
std::vector<core::WoltOptions> FixedPointConfigs() {
  core::WoltOptions fresh;
  fresh.sticky = false;
  core::WoltOptions no_ls;
  no_ls.local_search = false;
  core::WoltOptions wifi_only;
  wifi_only.phase1_utility = core::Phase1Utility::kWifiOnly;
  return {core::WoltOptions{}, fresh, no_ls, wifi_only};
}

TEST(PolicyFixedPointTest, DeclaringWoltReturnsItsOwnOutput) {
  // The controller's scan skip rests on this: re-solving from a solve's
  // output must return that output.
  util::Rng rng(0xF1C5);
  for (const core::WoltOptions& options : FixedPointConfigs()) {
    core::WoltPolicy wolt(options);
    ASSERT_TRUE(wolt.RatesOnlyFixedPoint());
    for (int trial = 0; trial < 1500; ++trial) {
      const model::Network net = RandomCappedNetwork(rng, 80, 0.2);
      const model::Assignment prev = RandomPrevious(rng, net);
      const model::Assignment once = wolt.Associate(net, prev);
      ASSERT_EQ(wolt.Associate(net, once), once)
          << "trial " << trial << " sticky=" << options.sticky
          << " local_search=" << options.local_search << " from "
          << prev.ToString();
    }
  }
}

TEST(PolicyFixedPointTest, OtherPoliciesDoNotDeclare) {
  for (const auto& policy : AllPolicies()) {
    const auto* wolt = dynamic_cast<const core::WoltPolicy*>(policy.get());
    const bool plain_wolt =
        wolt != nullptr && !wolt->options().subset_search &&
        !wolt->options().use_nlp_phase2 &&
        wolt->options().phase2_objective == assign::Phase2Objective::kWifiSum;
    EXPECT_EQ(policy->RatesOnlyFixedPoint(), plain_wolt) << policy->Name();
  }
  EXPECT_FALSE(core::OptimalPolicy().RatesOnlyFixedPoint());
}

// --- Model structure the policies rely on ---

class ModelScalingTest : public ::testing::TestWithParam<int> {};

TEST_P(ModelScalingTest, AggregateScalesLinearlyWithAllRates) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 149);
  const model::Network net = RandomNetwork(rng, 8, 3, 1.0);
  model::Network scaled(net.NumUsers(), net.NumExtenders());
  const double alpha = 2.5;
  for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
    scaled.SetPlcRate(j, net.PlcRate(j) * alpha);
  }
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
      scaled.SetWifiRate(i, j, net.WifiRate(i, j) * alpha);
    }
  }
  model::Assignment a(net.NumUsers());
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    a.Assign(i, static_cast<std::size_t>(rng.UniformInt(0, 2)));
  }
  const model::Evaluator evaluator;
  EXPECT_NEAR(evaluator.AggregateThroughput(scaled, a),
              alpha * evaluator.AggregateThroughput(net, a), 1e-6);
}

TEST_P(ModelScalingTest, ScalingPreservesWoltDecisions) {
  // Homogeneous scaling changes no relative comparison, so WOLT must pick
  // the same assignment.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 151);
  const model::Network net = RandomNetwork(rng, 8, 3, 1.0);
  model::Network scaled = net;
  for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
    scaled.SetPlcRate(j, net.PlcRate(j) * 3.0);
  }
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
      scaled.SetWifiRate(i, j, net.WifiRate(i, j) * 3.0);
    }
  }
  core::WoltPolicy wolt;
  EXPECT_EQ(wolt.AssociateFresh(net), wolt.AssociateFresh(scaled));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelScalingTest, ::testing::Range(1, 16));

}  // namespace
}  // namespace wolt
