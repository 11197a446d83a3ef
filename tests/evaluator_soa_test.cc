// Differential suite for the structure-of-arrays evaluator kernel: over a
// 300-scenario randomized corpus (the same instance family the property
// suite uses — dead backhauls, multiple PLC domains, partial reachability,
// finite demands, unassigned users), Evaluator::Evaluate must produce a
// result BIT-IDENTICAL to Evaluator::EvaluateReference in every field,
// under all three PLC sharing modes, with explicit WiFi co-channel
// contention domains and with channel plans (domains derived from geometry).
// No tolerances anywhere: the SoA kernel is a layout change, not a
// numerical one, so any ULP of drift is a bug.
//
// Also pins the scratch contracts the kernel relies on: the cached
// NetworkSoA view is invalidated by network mutation (Version() bump), and
// repeated saturated evaluations through a warm scratch never grow it.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "model/assignment.h"
#include "model/evaluator.h"
#include "model/network.h"
#include "model/soa.h"
#include "util/rng.h"

namespace wolt::model {
namespace {

// Default evaluation options under the given PLC sharing mode.
EvalOptions SharingOptions(PlcSharing mode) {
  EvalOptions options;
  options.plc_sharing = mode;
  return options;
}

constexpr int kNumScenarios = 300;

const PlcSharing kAllModes[] = {PlcSharing::kMaxMinActive,
                                PlcSharing::kEqualActive,
                                PlcSharing::kEqualAll};

struct Scenario {
  Network net;
  Assignment assign;
};

// Mirrors the property suite's generator: 1-6 extenders (occasionally with
// a dead backhaul or a second PLC domain), 1-12 users with partial
// reachability, a mix of saturated and finite demands, and a random valid
// assignment that leaves some users unassociated.
Scenario RandomScenario(util::Rng& rng, bool with_demands) {
  const std::size_t num_extenders =
      static_cast<std::size_t>(rng.UniformInt(1, 6));
  const std::size_t num_users =
      static_cast<std::size_t>(rng.UniformInt(1, 12));
  Scenario s;
  s.net = Network(num_users, num_extenders);
  const bool two_domains = num_extenders >= 2 && rng.UniformInt(0, 3) == 0;
  for (std::size_t j = 0; j < num_extenders; ++j) {
    const bool dead = rng.UniformInt(0, 9) == 0;
    s.net.SetPlcRate(j, dead ? 0.0 : rng.Uniform(10.0, 1000.0));
    if (two_domains) {
      s.net.SetPlcDomain(j, static_cast<int>(j % 2));
    }
    if (rng.UniformInt(0, 4) == 0) {
      s.net.SetMaxUsers(j, rng.UniformInt(1, 4));
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
    if (with_demands && rng.UniformInt(0, 1) == 0) {
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

// Every field, compared with EXPECT_EQ — exact, including the FP ones.
void ExpectBitIdentical(const EvalResult& fast, const EvalResult& ref,
                        const std::string& what) {
  ASSERT_EQ(fast.extenders.size(), ref.extenders.size()) << what;
  ASSERT_EQ(fast.user_throughput_mbps.size(), ref.user_throughput_mbps.size())
      << what;
  EXPECT_EQ(fast.aggregate_mbps, ref.aggregate_mbps) << what;
  EXPECT_EQ(fast.active_extenders, ref.active_extenders) << what;
  for (std::size_t j = 0; j < ref.extenders.size(); ++j) {
    const ExtenderReport& f = fast.extenders[j];
    const ExtenderReport& r = ref.extenders[j];
    EXPECT_EQ(f.num_users, r.num_users) << what << " ext " << j;
    EXPECT_EQ(f.wifi_throughput_mbps, r.wifi_throughput_mbps)
        << what << " ext " << j;
    EXPECT_EQ(f.plc_time_share, r.plc_time_share) << what << " ext " << j;
    EXPECT_EQ(f.plc_throughput_mbps, r.plc_throughput_mbps)
        << what << " ext " << j;
    EXPECT_EQ(f.end_to_end_mbps, r.end_to_end_mbps) << what << " ext " << j;
    EXPECT_EQ(f.bottleneck, r.bottleneck) << what << " ext " << j;
  }
  for (std::size_t i = 0; i < ref.user_throughput_mbps.size(); ++i) {
    EXPECT_EQ(fast.user_throughput_mbps[i], ref.user_throughput_mbps[i])
        << what << " user " << i;
  }
}

class EvaluatorSoaTest : public ::testing::TestWithParam<PlcSharing> {};

TEST_P(EvaluatorSoaTest, BitIdenticalToReferenceSaturated) {
  util::Rng rng(0x50a0 + static_cast<std::uint64_t>(GetParam()) * 977u);
  EvalScratch fast_scratch;  // warm across scenarios: exercises SoA reuse
  EvalScratch ref_scratch;
  for (int k = 0; k < kNumScenarios; ++k) {
    const Scenario s = RandomScenario(rng, /*with_demands=*/false);
    Evaluator evaluator(SharingOptions(GetParam()));
    const EvalResult fast = evaluator.Evaluate(s.net, s.assign, fast_scratch);
    const EvalResult ref =
        evaluator.EvaluateReference(s.net, s.assign, ref_scratch);
    ExpectBitIdentical(fast, ref, "saturated scenario " + std::to_string(k));
  }
}

TEST_P(EvaluatorSoaTest, BitIdenticalToReferenceWithDemands) {
  util::Rng rng(0xd0a0 + static_cast<std::uint64_t>(GetParam()) * 977u);
  EvalScratch fast_scratch;
  EvalScratch ref_scratch;
  for (int k = 0; k < kNumScenarios; ++k) {
    const Scenario s = RandomScenario(rng, /*with_demands=*/true);
    Evaluator evaluator(SharingOptions(GetParam()));
    const EvalResult fast = evaluator.Evaluate(s.net, s.assign, fast_scratch);
    const EvalResult ref =
        evaluator.EvaluateReference(s.net, s.assign, ref_scratch);
    ExpectBitIdentical(fast, ref, "demand scenario " + std::to_string(k));
  }
}

TEST_P(EvaluatorSoaTest, BitIdenticalUnderWifiContention) {
  util::Rng rng(0xc0a0 + static_cast<std::uint64_t>(GetParam()) * 977u);
  EvalScratch fast_scratch;
  EvalScratch ref_scratch;
  for (int k = 0; k < kNumScenarios / 3; ++k) {
    const Scenario s = RandomScenario(rng, /*with_demands=*/false);
    EvalOptions opts = SharingOptions(GetParam());
    // All cells share one WiFi channel — the harshest contention layout.
    opts.wifi_contention_domain.assign(s.net.NumExtenders(), 0);
    Evaluator evaluator(opts);
    const EvalResult fast = evaluator.Evaluate(s.net, s.assign, fast_scratch);
    const EvalResult ref =
        evaluator.EvaluateReference(s.net, s.assign, ref_scratch);
    ExpectBitIdentical(fast, ref, "contention scenario " + std::to_string(k));
  }
}

TEST_P(EvaluatorSoaTest, BitIdenticalUnderChannelPlan) {
  util::Rng rng(0xc4a0 + static_cast<std::uint64_t>(GetParam()) * 977u);
  EvalScratch fast_scratch;
  EvalScratch ref_scratch;
  const double ranges[] = {0.0, 30.0, 60.0, 200.0};
  for (int k = 0; k < kNumScenarios / 3; ++k) {
    Scenario s = RandomScenario(rng, /*with_demands=*/k % 2 == 0);
    EvalOptions opts;
    opts.plc_sharing = GetParam();
    const int channels = rng.UniformInt(1, 3);
    opts.wifi_channel.resize(s.net.NumExtenders());
    for (std::size_t j = 0; j < s.net.NumExtenders(); ++j) {
      s.net.SetExtenderPosition(
          j, {rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)});
      opts.wifi_channel[j] = rng.UniformInt(0, channels - 1);
    }
    opts.carrier_sense_range_m = ranges[rng.UniformInt(0, 3)];
    Evaluator evaluator(opts);
    const EvalResult fast = evaluator.Evaluate(s.net, s.assign, fast_scratch);
    const EvalResult ref =
        evaluator.EvaluateReference(s.net, s.assign, ref_scratch);
    ExpectBitIdentical(fast, ref, "channel-plan scenario " + std::to_string(k));
  }
}

INSTANTIATE_TEST_SUITE_P(AllSharingModes, EvaluatorSoaTest,
                         ::testing::Values(PlcSharing::kMaxMinActive,
                                           PlcSharing::kEqualActive,
                                           PlcSharing::kEqualAll),
                         [](const auto& info) {
                           switch (info.param) {
                             case PlcSharing::kMaxMinActive:
                               return "MaxMinActive";
                             case PlcSharing::kEqualActive:
                               return "EqualActive";
                             case PlcSharing::kEqualAll:
                               return "EqualAll";
                           }
                           return "Unknown";
                         });

// The cached view tracks network mutation: evaluating, mutating a rate, and
// evaluating again must reflect the new rate (a stale SoA view would not).
TEST(NetworkSoaCache, InvalidatedByNetworkMutation) {
  Network net(2, 2);
  net.SetPlcRate(0, 500.0);
  net.SetPlcRate(1, 500.0);
  net.SetWifiRate(0, 0, 100.0);
  net.SetWifiRate(1, 1, 100.0);
  Assignment assign(2);
  assign.Assign(0, 0);
  assign.Assign(1, 1);

  Evaluator evaluator;
  EvalScratch scratch;
  const double before = evaluator.Evaluate(net, assign, scratch).aggregate_mbps;
  net.SetWifiRate(0, 0, 200.0);  // bumps Version(); the view must rebuild
  const double after = evaluator.Evaluate(net, assign, scratch).aggregate_mbps;
  EXPECT_GT(after, before);

  EvalScratch fresh;
  EXPECT_EQ(after, evaluator.Evaluate(net, assign, fresh).aggregate_mbps);
}

// A matching view is reused, a mutated network forces a rebuild.
TEST(NetworkSoaCache, RefreshIsANoOpWhileVersionMatches) {
  Network net(3, 2);
  net.SetPlcRate(0, 500.0);
  net.SetPlcRate(1, 300.0);
  for (std::size_t i = 0; i < 3; ++i) {
    net.SetWifiRate(i, 0, 50.0 + static_cast<double>(i));
    net.SetWifiRate(i, 1, 80.0);
  }
  NetworkSoA soa;
  EXPECT_TRUE(soa.Refresh(net));    // first build
  EXPECT_FALSE(soa.Refresh(net));   // cached
  EXPECT_TRUE(soa.Matches(net));
  net.SetPlcRate(1, 350.0);
  EXPECT_FALSE(soa.Matches(net));
  EXPECT_TRUE(soa.Refresh(net));    // rebuilt after mutation
  EXPECT_EQ(soa.plc_rate[1], 350.0);
}

}  // namespace
}  // namespace wolt::model
