// Property-based invariant suite for model::Evaluator: ~300 randomized
// (network, assignment) scenarios, each checked under all three PLC sharing
// modes. The properties are the physics the flow model must never violate,
// whatever the topology:
//   * raising any backhaul capacity c_j never lowers aggregate throughput;
//   * no user ever exceeds its WiFi PHY rate r_ij or its offered demand;
//   * bottleneck attribution is consistent with the reported throughputs
//     (kIdle <=> no users, kWifi => WiFi side binds, kPlc => PLC side
//     binds, dead backhaul => kPlc with zero throughput);
//   * PLC airtime shares are a partition: within each contention domain
//     they sum to at most 1;
//   * users with identical rate rows and demands on the same extender get
//     identical throughput.
#include "model/evaluator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "model/assignment.h"
#include "model/network.h"
#include "util/rng.h"

namespace wolt::model {
namespace {

// Default evaluation options under the given PLC sharing mode.
EvalOptions SharingOptions(PlcSharing mode) {
  EvalOptions options;
  options.plc_sharing = mode;
  return options;
}

constexpr double kAbsTol = 1e-6;
constexpr double kRelTol = 1e-9;

const PlcSharing kAllModes[] = {PlcSharing::kMaxMinActive,
                                PlcSharing::kEqualActive,
                                PlcSharing::kEqualAll};

struct Scenario {
  Network net;
  Assignment assign;
};

// A random enterprise-ish instance: 1-6 extenders (occasionally with a dead
// backhaul or a second PLC domain), 1-12 users with partial reachability and
// a mix of saturated and finite demands, and a random valid assignment that
// leaves some users unassociated.
Scenario RandomScenario(util::Rng& rng) {
  const std::size_t num_extenders =
      static_cast<std::size_t>(rng.UniformInt(1, 6));
  const std::size_t num_users = static_cast<std::size_t>(rng.UniformInt(1, 12));
  Scenario s;
  s.net = Network(num_users, num_extenders);
  const bool two_domains = num_extenders >= 2 && rng.UniformInt(0, 3) == 0;
  for (std::size_t j = 0; j < num_extenders; ++j) {
    const bool dead = rng.UniformInt(0, 9) == 0;
    s.net.SetPlcRate(j, dead ? 0.0 : rng.Uniform(10.0, 1000.0));
    if (two_domains) {
      s.net.SetPlcDomain(j, static_cast<int>(j % 2));
    }
  }
  for (std::size_t i = 0; i < num_users; ++i) {
    bool reachable = false;
    for (std::size_t j = 0; j < num_extenders; ++j) {
      if (rng.UniformInt(0, 2) == 0) continue;  // out of WiFi range
      s.net.SetWifiRate(i, j, rng.Uniform(1.0, 300.0));
      reachable = true;
    }
    if (!reachable) {  // guarantee at least one link
      s.net.SetWifiRate(i, static_cast<std::size_t>(rng.UniformInt(
                               0, static_cast<int>(num_extenders) - 1)),
                        rng.Uniform(1.0, 300.0));
    }
    if (rng.UniformInt(0, 1) == 0) {
      s.net.SetUserDemand(i, rng.Uniform(1.0, 200.0));
    }  // else saturated (demand 0)
  }
  s.assign = Assignment(num_users);
  for (std::size_t i = 0; i < num_users; ++i) {
    if (rng.UniformInt(0, 7) == 0) continue;  // leave unassociated
    std::vector<std::size_t> candidates;
    for (std::size_t j = 0; j < num_extenders; ++j) {
      if (s.net.WifiRate(i, j) > 0.0) candidates.push_back(j);
    }
    if (candidates.empty()) continue;
    s.assign.Assign(i, candidates[static_cast<std::size_t>(rng.UniformInt(
                           0, static_cast<int>(candidates.size()) - 1))]);
  }
  return s;
}

void CheckInvariants(const Scenario& s, PlcSharing mode,
                     const std::string& what) {
  Evaluator evaluator(SharingOptions(mode));
  const EvalResult res = evaluator.Evaluate(s.net, s.assign);

  ASSERT_EQ(res.user_throughput_mbps.size(), s.net.NumUsers()) << what;
  ASSERT_EQ(res.extenders.size(), s.net.NumExtenders()) << what;

  // Per-user caps: never above the PHY rate to the assigned extender, never
  // above the offered demand, exactly zero when unassociated.
  double user_sum = 0.0;
  for (std::size_t i = 0; i < s.net.NumUsers(); ++i) {
    const double x = res.user_throughput_mbps[i];
    EXPECT_GE(x, 0.0) << what << " user " << i;
    user_sum += x;
    if (!s.assign.IsAssigned(i)) {
      EXPECT_EQ(x, 0.0) << what << " unassigned user " << i;
      continue;
    }
    const auto j = static_cast<std::size_t>(s.assign.ExtenderOf(i));
    EXPECT_LE(x, s.net.WifiRate(i, j) + kAbsTol) << what << " user " << i;
    const double demand = s.net.UserDemand(i);
    if (demand > 0.0) {
      EXPECT_LE(x, demand + kAbsTol) << what << " user " << i;
    }
  }
  EXPECT_NEAR(res.aggregate_mbps, user_sum,
              kAbsTol + kRelTol * std::abs(user_sum))
      << what;

  // Bottleneck attribution and airtime partition.
  const std::vector<int> load = s.assign.LoadVector(s.net.NumExtenders());
  std::vector<double> domain_time;
  int active = 0;
  for (std::size_t j = 0; j < s.net.NumExtenders(); ++j) {
    const ExtenderReport& rep = res.extenders[j];
    const std::string where = what + " extender " + std::to_string(j);
    EXPECT_EQ(rep.num_users, load[j]) << where;
    if (rep.num_users > 0) ++active;

    const auto domain = static_cast<std::size_t>(s.net.PlcDomain(j));
    if (domain >= domain_time.size()) domain_time.resize(domain + 1, 0.0);
    domain_time[domain] += rep.plc_time_share;
    EXPECT_GE(rep.plc_time_share, -kAbsTol) << where;
    EXPECT_LE(rep.plc_time_share, 1.0 + kAbsTol) << where;

    if (rep.num_users == 0) {
      EXPECT_EQ(rep.bottleneck, Bottleneck::kIdle) << where;
      EXPECT_EQ(rep.end_to_end_mbps, 0.0) << where;
      continue;
    }
    EXPECT_NE(rep.bottleneck, Bottleneck::kIdle) << where;
    const double expect_end =
        std::min(rep.wifi_throughput_mbps, rep.plc_throughput_mbps);
    EXPECT_NEAR(rep.end_to_end_mbps, expect_end,
                kAbsTol + kRelTol * std::abs(expect_end))
        << where;
    switch (rep.bottleneck) {
      case Bottleneck::kWifi:
        EXPECT_LE(rep.wifi_throughput_mbps,
                  rep.plc_throughput_mbps + kAbsTol)
            << where;
        break;
      case Bottleneck::kPlc:
        EXPECT_LE(rep.plc_throughput_mbps,
                  rep.wifi_throughput_mbps + kAbsTol)
            << where;
        break;
      case Bottleneck::kBalanced:
        EXPECT_NEAR(rep.wifi_throughput_mbps, rep.plc_throughput_mbps,
                    kAbsTol + 1e-6 * std::abs(rep.wifi_throughput_mbps))
            << where;
        break;
      case Bottleneck::kIdle:
        break;  // excluded above
    }
    if (s.net.PlcRate(j) == 0.0) {  // dead backhaul: PLC binds at zero
      EXPECT_EQ(rep.bottleneck, Bottleneck::kPlc) << where;
      EXPECT_EQ(rep.end_to_end_mbps, 0.0) << where;
    }
  }
  EXPECT_EQ(res.active_extenders, active) << what;
  for (std::size_t d = 0; d < domain_time.size(); ++d) {
    EXPECT_LE(domain_time[d], 1.0 + kAbsTol) << what << " domain " << d;
  }
}

// Monotonicity holds for raising a *positive* capacity. Reviving a dead
// backhaul (c_j = 0 -> small) is genuinely non-monotone: the extender
// re-enters the PLC contention set and claims airtime from productive
// cells while contributing almost nothing — so dead extenders are not
// mutated here.
void CheckCapacityMonotonicity(const Scenario& s, PlcSharing mode,
                               util::Rng& rng, const std::string& what) {
  std::vector<std::size_t> alive;
  for (std::size_t j = 0; j < s.net.NumExtenders(); ++j) {
    if (s.net.PlcRate(j) > 0.0) alive.push_back(j);
  }
  if (alive.empty()) return;

  Evaluator evaluator(SharingOptions(mode));
  const double before = evaluator.Evaluate(s.net, s.assign).aggregate_mbps;

  Network boosted = s.net;
  const std::size_t j = alive[static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<int>(alive.size()) - 1))];
  const double factor = rng.Uniform(1.1, 5.0);
  boosted.SetPlcRate(j, s.net.PlcRate(j) * factor);
  const double after = evaluator.Evaluate(boosted, s.assign).aggregate_mbps;

  EXPECT_GE(after, before - (kAbsTol + kRelTol * std::abs(before)))
      << what << ": raising c_" << j << " by x" << factor << " dropped "
      << before << " -> " << after;
}

// 100 scenarios x 3 sharing modes = 300 randomized property checks.
TEST(EvaluatorPropertyTest, RandomizedInvariantsAcrossSharingModes) {
  util::Rng rng(20260806);
  for (int trial = 0; trial < 100; ++trial) {
    const Scenario s = RandomScenario(rng);
    for (const PlcSharing mode : kAllModes) {
      CheckInvariants(s, mode,
                      "trial " + std::to_string(trial) + " mode " +
                          std::string(ToString(mode)));
    }
  }
}

TEST(EvaluatorPropertyTest, RaisingBackhaulNeverLowersAggregate) {
  util::Rng rng(424242);
  for (int trial = 0; trial < 100; ++trial) {
    const Scenario s = RandomScenario(rng);
    for (const PlcSharing mode : kAllModes) {
      CheckCapacityMonotonicity(s, mode, rng,
                                "trial " + std::to_string(trial) + " mode " +
                                    std::string(ToString(mode)));
    }
  }
}

// The joint-solver contract: an all-distinct channel plan must be
// *bit-identical* to running with no plan at all. The scenarios here never
// set extender positions, so every extender sits at the origin — all inside
// carrier-sense range of each other — and orthogonality alone must reduce
// every contention domain to a singleton (peers = 1.0, an unconditional
// division whose result is exact).
TEST(EvaluatorPropertyTest, OrthogonalPlanBitIdenticalToNoPlan) {
  util::Rng rng(20260807);
  for (int trial = 0; trial < 100; ++trial) {
    const Scenario s = RandomScenario(rng);
    std::vector<int> plan(s.net.NumExtenders());
    for (std::size_t j = 0; j < plan.size(); ++j) plan[j] = static_cast<int>(j);
    for (const PlcSharing mode : kAllModes) {
      const Evaluator plain(SharingOptions(mode));
      EvalOptions channelled = SharingOptions(mode);
      channelled.wifi_channel = plan;
      channelled.carrier_sense_range_m = 60.0;
      const EvalResult base = plain.Evaluate(s.net, s.assign);
      const EvalResult under_plan =
          Evaluator(channelled).Evaluate(s.net, s.assign);
      const std::string what = "trial " + std::to_string(trial) + " mode " +
                               std::string(ToString(mode));
      EXPECT_EQ(under_plan.aggregate_mbps, base.aggregate_mbps) << what;
      ASSERT_EQ(under_plan.user_throughput_mbps.size(),
                base.user_throughput_mbps.size())
          << what;
      for (std::size_t i = 0; i < base.user_throughput_mbps.size(); ++i) {
        EXPECT_EQ(under_plan.user_throughput_mbps[i],
                  base.user_throughput_mbps[i])
            << what << " user " << i;
      }
    }
  }
}

TEST(EvaluatorPropertyTest, SymmetricUsersGetEqualShares) {
  util::Rng rng(777);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t num_users = static_cast<std::size_t>(rng.UniformInt(2, 8));
    Network net(num_users, 2);
    net.SetPlcRate(0, rng.Uniform(20.0, 500.0));
    net.SetPlcRate(1, rng.Uniform(20.0, 500.0));
    const double rate = rng.Uniform(5.0, 300.0);
    const double demand =
        rng.UniformInt(0, 1) == 0 ? 0.0 : rng.Uniform(1.0, 100.0);
    Assignment assign(num_users);
    for (std::size_t i = 0; i < num_users; ++i) {
      net.SetWifiRate(i, 0, rate);  // identical rows...
      net.SetWifiRate(i, 1, rate / 2.0);
      net.SetUserDemand(i, demand);  // ...and identical demands
      assign.Assign(i, 0);           // all on the same cell
    }
    for (const PlcSharing mode : kAllModes) {
      const Evaluator evaluator(SharingOptions(mode));
      const EvalResult res = evaluator.Evaluate(net, assign);
      for (std::size_t i = 1; i < num_users; ++i) {
        EXPECT_NEAR(res.user_throughput_mbps[i], res.user_throughput_mbps[0],
                    kAbsTol + kRelTol * res.user_throughput_mbps[0])
            << "trial " << trial << " mode " << ToString(mode) << " user "
            << i;
      }
    }
  }
}

}  // namespace
}  // namespace wolt::model
