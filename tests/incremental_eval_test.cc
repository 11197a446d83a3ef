// Differential test for the incremental evaluation engine: on randomized
// networks, a long random sequence of ApplyMove calls must keep the
// engine's objective values and per-user throughputs in lockstep with a
// fresh Evaluator::Evaluate of the same assignment, across all three PLC
// sharing modes and multi-domain PLC segments, in every regime. The
// saturated contention-free delta regime may drift by a few ULPs (checked
// within 1e-9). The co-channel regime (channel plans and explicit contention
// domains, aggregate only) must be bit-identical to Evaluate after every
// peek and apply, and its demand bound must equal the in-order sum of
// Evaluate's WiFi throughputs over the active live cells and dominate every
// peek. Per-user demands, and co-channel engines that track log
// utility, take the full re-evaluation regime. Peeks (PeekMove / PeekSwap)
// must match the value a real apply would produce and leave the engine
// state untouched. Every entry point rejects an unknown user in every
// regime.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/assignment.h"
#include "model/evaluator.h"
#include "model/incremental.h"
#include "model/network.h"
#include "util/rng.h"

namespace wolt::model {
namespace {

constexpr double kTol = 1e-9;

struct ScenarioConfig {
  std::size_t num_users = 0;
  std::size_t num_extenders = 0;
  PlcSharing sharing = PlcSharing::kMaxMinActive;
  int plc_domains = 1;
  bool with_demands = false;         // triggers the exact-fallback
  bool with_wifi_contention = false; // triggers the exact-fallback
};

ScenarioConfig RandomConfig(util::Rng& rng) {
  ScenarioConfig cfg;
  cfg.num_users = static_cast<std::size_t>(rng.UniformInt(2, 40));
  cfg.num_extenders = static_cast<std::size_t>(rng.UniformInt(2, 8));
  switch (rng.UniformInt(0, 2)) {
    case 0: cfg.sharing = PlcSharing::kMaxMinActive; break;
    case 1: cfg.sharing = PlcSharing::kEqualActive; break;
    default: cfg.sharing = PlcSharing::kEqualAll; break;
  }
  cfg.plc_domains = rng.UniformInt(1, 3);
  cfg.with_demands = rng.Bernoulli(0.25);
  cfg.with_wifi_contention = rng.Bernoulli(0.2);
  return cfg;
}

Network RandomNetwork(const ScenarioConfig& cfg, util::Rng& rng) {
  Network net(cfg.num_users, cfg.num_extenders);
  for (std::size_t j = 0; j < cfg.num_extenders; ++j) {
    // Occasionally a dead backhaul (c_j = 0) to exercise that branch.
    const double plc = rng.Bernoulli(0.1) ? 0.0 : rng.Uniform(20.0, 400.0);
    net.SetPlcRate(j, plc);
    net.SetPlcDomain(j, rng.UniformInt(0, cfg.plc_domains - 1));
  }
  for (std::size_t i = 0; i < cfg.num_users; ++i) {
    bool reachable = false;
    for (std::size_t j = 0; j < cfg.num_extenders; ++j) {
      if (rng.Bernoulli(0.7)) {
        net.SetWifiRate(i, j, rng.Uniform(5.0, 600.0));
        reachable = true;
      }
    }
    if (!reachable) net.SetWifiRate(i, 0, rng.Uniform(5.0, 600.0));
    if (cfg.with_demands && rng.Bernoulli(0.5)) {
      net.SetUserDemand(i, rng.Uniform(1.0, 80.0));
    }
  }
  return net;
}

EvalOptions OptionsFor(const ScenarioConfig& cfg, util::Rng& rng) {
  EvalOptions opt;
  opt.plc_sharing = cfg.sharing;
  if (cfg.with_wifi_contention) {
    opt.wifi_contention_domain.resize(cfg.num_extenders);
    for (std::size_t j = 0; j < cfg.num_extenders; ++j) {
      opt.wifi_contention_domain[j] = rng.UniformInt(0, 2);
    }
  }
  return opt;
}

// Random initial assignment: each user goes to a random reachable extender
// or stays unassigned.
Assignment RandomAssignment(const Network& net, util::Rng& rng) {
  Assignment a(net.NumUsers());
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    if (rng.Bernoulli(0.15)) continue;  // leave unassigned
    std::vector<std::size_t> reach;
    for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
      if (net.WifiRate(i, j) > 0.0) reach.push_back(j);
    }
    if (reach.empty()) continue;
    a.Assign(i, reach[static_cast<std::size_t>(
                   rng.UniformInt(0, static_cast<int>(reach.size()) - 1))]);
  }
  return a;
}

double LogUtilityOf(const EvalResult& res, const Assignment& assign,
                    double floor) {
  double sum = 0.0;
  for (std::size_t i = 0; i < res.user_throughput_mbps.size(); ++i) {
    if (!assign.IsAssigned(i)) continue;
    sum += std::log(std::max(res.user_throughput_mbps[i], floor));
  }
  return sum;
}

void ExpectMatchesFresh(IncrementalEvaluator& inc, const Network& net,
                        const Assignment& assign, const Evaluator& evaluator,
                        const char* where, bool track_log = true) {
  const EvalResult fresh = evaluator.Evaluate(net, assign);
  EXPECT_NEAR(inc.aggregate_mbps(), fresh.aggregate_mbps, kTol) << where;
  if (track_log) {
    EXPECT_NEAR(inc.log_utility(),
                LogUtilityOf(fresh, assign,
                             IncrementalEvaluator::kDefaultLogFloorMbps),
                kTol)
        << where;
  }
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    EXPECT_NEAR(inc.UserThroughput(i), fresh.user_throughput_mbps[i], kTol)
        << where << " user " << i;
  }
}

// Pick a random legal move (possibly an unassign) for the current state.
// Returns false if the scenario offers none.
bool RandomMove(const Network& net, const Assignment& assign, util::Rng& rng,
                std::size_t* user, int* to) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::size_t i = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int>(net.NumUsers()) - 1));
    if (assign.IsAssigned(i) && rng.Bernoulli(0.2)) {
      *user = i;
      *to = Assignment::kUnassigned;
      return true;
    }
    std::vector<std::size_t> reach;
    for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
      if (net.WifiRate(i, j) > 0.0 &&
          static_cast<int>(j) != assign.ExtenderOf(i)) {
        reach.push_back(j);
      }
    }
    if (reach.empty()) continue;
    *user = i;
    *to = static_cast<int>(reach[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int>(reach.size()) - 1))]);
    return true;
  }
  return false;
}

TEST(IncrementalEvalDifferential, RandomScenariosMatchFreshEvaluate) {
  util::Rng rng(20260806);
  int regime_scenarios[3] = {0, 0, 0};  // indexed by Regime
  for (int scenario = 0; scenario < 200; ++scenario) {
    const ScenarioConfig cfg = RandomConfig(rng);
    const Network net = RandomNetwork(cfg, rng);
    const EvalOptions opt = OptionsFor(cfg, rng);
    Assignment assign = RandomAssignment(net, rng);

    // Half the co-channel engines track log utility (full re-evaluation),
    // half consume the aggregate only (the exact regime).
    const bool track_log = !cfg.with_wifi_contention || scenario % 2 == 0;
    const Evaluator evaluator(opt);
    IncrementalEvaluator inc(net, assign, opt,
                             IncrementalEvaluator::kDefaultLogFloorMbps,
                             track_log);
    ++regime_scenarios[static_cast<int>(inc.regime())];
    ExpectMatchesFresh(inc, net, assign, evaluator, "initial", track_log);

    const int moves = rng.UniformInt(5, 30);
    for (int mv = 0; mv < moves; ++mv) {
      std::size_t user = 0;
      int to = Assignment::kUnassigned;
      if (!RandomMove(net, assign, rng, &user, &to)) break;

      // Peek first: must predict the post-move values and not disturb state.
      const double agg_before = inc.aggregate_mbps();
      const IncrementalValues peeked = inc.PeekMove(user, to);
      ASSERT_DOUBLE_EQ(inc.aggregate_mbps(), agg_before);

      inc.ApplyMove(user, to);
      if (to == Assignment::kUnassigned) {
        assign.Unassign(user);
      } else {
        assign.Assign(user, static_cast<std::size_t>(to));
      }
      EXPECT_NEAR(peeked.aggregate_mbps, inc.aggregate_mbps(), kTol);
      if (track_log) {
        EXPECT_NEAR(peeked.log_utility, inc.log_utility(), kTol);
      }

      if (mv % 7 == 0) {
        ExpectMatchesFresh(inc, net, assign, evaluator, "mid-sequence",
                           track_log);
      }
    }
    ExpectMatchesFresh(inc, net, assign, evaluator, "final", track_log);
  }
  // The generator must exercise every regime.
  EXPECT_GT(regime_scenarios[static_cast<int>(
                IncrementalEvaluator::Regime::kDelta)], 0);
  EXPECT_GT(regime_scenarios[static_cast<int>(
                IncrementalEvaluator::Regime::kExact)], 0);
  EXPECT_GT(regime_scenarios[static_cast<int>(
                IncrementalEvaluator::Regime::kReevaluate)], 0);
}

TEST(IncrementalEvalDifferential, PeekSwapMatchesAppliedExchange) {
  util::Rng rng(77);
  int swaps_checked = 0;
  for (int scenario = 0; scenario < 60; ++scenario) {
    const ScenarioConfig cfg = RandomConfig(rng);
    const Network net = RandomNetwork(cfg, rng);
    const EvalOptions opt = OptionsFor(cfg, rng);
    Assignment assign = RandomAssignment(net, rng);
    IncrementalEvaluator inc(net, assign, opt);

    for (int attempt = 0; attempt < 40; ++attempt) {
      const std::size_t u1 = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(net.NumUsers()) - 1));
      const std::size_t u2 = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(net.NumUsers()) - 1));
      const int e1 = assign.ExtenderOf(u1);
      const int e2 = assign.ExtenderOf(u2);
      if (e1 == Assignment::kUnassigned || e2 == Assignment::kUnassigned ||
          e1 == e2) {
        continue;
      }
      if (net.WifiRate(u1, static_cast<std::size_t>(e2)) <= 0.0 ||
          net.WifiRate(u2, static_cast<std::size_t>(e1)) <= 0.0) {
        continue;
      }
      const double agg_before = inc.aggregate_mbps();
      const IncrementalValues peeked = inc.PeekSwap(u1, u2);
      ASSERT_DOUBLE_EQ(inc.aggregate_mbps(), agg_before);

      inc.ApplyMove(u1, e2);
      inc.ApplyMove(u2, e1);
      EXPECT_NEAR(peeked.aggregate_mbps, inc.aggregate_mbps(), kTol);
      EXPECT_NEAR(peeked.log_utility, inc.log_utility(), kTol);
      // Revert for the next attempt on this scenario.
      inc.ApplyMove(u2, e2);
      inc.ApplyMove(u1, e1);
      EXPECT_NEAR(inc.aggregate_mbps(), agg_before, kTol);
      ++swaps_checked;
    }
  }
  EXPECT_GT(swaps_checked, 50);
}

TEST(IncrementalEvalDifferential, MoveDeltaIsPeekMinusCurrent) {
  util::Rng rng(5);
  const ScenarioConfig cfg{12, 4, PlcSharing::kMaxMinActive, 2, false, false};
  const Network net = RandomNetwork(cfg, rng);
  Assignment assign = RandomAssignment(net, rng);
  IncrementalEvaluator inc(net, assign, {});
  for (int attempt = 0; attempt < 50; ++attempt) {
    std::size_t user = 0;
    int to = Assignment::kUnassigned;
    if (!RandomMove(net, assign, rng, &user, &to)) break;
    const IncrementalValues peek = inc.PeekMove(user, to);
    const IncrementalValues delta = inc.MoveDelta(user, to);
    EXPECT_NEAR(delta.aggregate_mbps, peek.aggregate_mbps - inc.aggregate_mbps(),
                kTol);
    EXPECT_NEAR(delta.log_utility, peek.log_utility - inc.log_utility(), kTol);
  }
}

TEST(IncrementalEvalDifferential, UntrackedLogUtilityThrows) {
  util::Rng rng(11);
  const ScenarioConfig cfg{8, 3, PlcSharing::kMaxMinActive, 1, false, false};
  const Network net = RandomNetwork(cfg, rng);
  const Assignment assign = RandomAssignment(net, rng);
  IncrementalEvaluator inc(net, assign, {},
                           IncrementalEvaluator::kDefaultLogFloorMbps,
                           /*track_log_utility=*/false);
  EXPECT_THROW(inc.log_utility(), std::logic_error);
  // The aggregate side must be unaffected by the opt-out.
  IncrementalEvaluator tracked(net, assign, {});
  EXPECT_NEAR(inc.aggregate_mbps(), tracked.aggregate_mbps(), kTol);
}

TEST(IncrementalEvalDifferential, MutationsCountsStateChanges) {
  util::Rng rng(13);
  const ScenarioConfig cfg{10, 4, PlcSharing::kMaxMinActive, 1, false, false};
  const Network net = RandomNetwork(cfg, rng);
  Assignment assign(net.NumUsers());
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
      if (net.WifiRate(i, j) > 0.0) {
        assign.Assign(i, j);
        break;
      }
    }
  }
  IncrementalEvaluator inc(net, assign, {});
  const std::uint64_t m0 = inc.mutations();
  std::size_t user = 0;
  int to = Assignment::kUnassigned;
  ASSERT_TRUE(RandomMove(net, assign, rng, &user, &to));
  (void)inc.PeekMove(user, to);  // peeks never mutate
  EXPECT_EQ(inc.mutations(), m0);
  inc.ApplyMove(user, to);
  EXPECT_GT(inc.mutations(), m0);
  inc.ApplyMove(user, to);  // no-op move: same target
  EXPECT_EQ(inc.mutations(), m0 + 1);
}

TEST(IncrementalEvalDifferential, EveryEntryPointRejectsUnknownUser) {
  util::Rng rng(31);
  const ScenarioConfig cfg{10, 4, PlcSharing::kMaxMinActive, 2, false, false};
  const Network net = RandomNetwork(cfg, rng);
  Assignment assign(net.NumUsers());
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
      if (net.WifiRate(i, j) > 0.0) {
        assign.Assign(i, j);
        break;
      }
    }
  }
  Network demand_net = net;
  demand_net.SetUserDemand(0, 5.0);
  EvalOptions contention;
  contention.wifi_contention_domain = {0, 0, 1, 1};

  using Regime = IncrementalEvaluator::Regime;
  struct Case {
    const Network* net;
    EvalOptions opt;
    bool track_log;
    Regime want;
  };
  const Case cases[] = {{&net, {}, true, Regime::kDelta},
                        {&net, contention, false, Regime::kExact},
                        {&net, contention, true, Regime::kReevaluate},
                        {&demand_net, {}, true, Regime::kReevaluate}};
  const std::size_t bad = net.NumUsers();
  for (const Case& c : cases) {
    IncrementalEvaluator inc(*c.net, assign, c.opt,
                             IncrementalEvaluator::kDefaultLogFloorMbps,
                             c.track_log);
    ASSERT_EQ(inc.regime(), c.want);
    EXPECT_THROW(inc.ExtenderOf(bad), std::invalid_argument);
    EXPECT_THROW(inc.UserThroughput(bad), std::invalid_argument);
    EXPECT_THROW(inc.PeekMove(bad, 0), std::invalid_argument);
    EXPECT_THROW(inc.PeekMove(bad, Assignment::kUnassigned),
                 std::invalid_argument);
    EXPECT_THROW(inc.MoveDelta(bad, 0), std::invalid_argument);
    EXPECT_THROW(inc.ApplyMove(bad, 0), std::invalid_argument);
    EXPECT_THROW(inc.PeekSwap(bad, 0), std::invalid_argument);
    EXPECT_THROW(inc.PeekSwap(0, bad), std::invalid_argument);
    EXPECT_EQ(inc.mutations(), 0u);
  }
}

// --- Co-channel exact regime ---------------------------------------------

// Co-channel options for `cfg`: a random channel plan over 1-3 channels with
// a varied carrier-sense range, or explicit contention domains (ids with
// gaps).
EvalOptions CoChannelOptions(const ScenarioConfig& cfg, bool channel_plan,
                             util::Rng& rng) {
  EvalOptions opt;
  opt.plc_sharing = cfg.sharing;
  if (channel_plan) {
    const int channels = rng.UniformInt(1, 3);
    opt.wifi_channel.resize(cfg.num_extenders);
    for (int& c : opt.wifi_channel) c = rng.UniformInt(0, channels - 1);
    const double ranges[] = {0.0, 25.0, 60.0, 200.0};
    opt.carrier_sense_range_m = ranges[rng.UniformInt(0, 3)];
  } else {
    opt.wifi_contention_domain.resize(cfg.num_extenders);
    for (int& d : opt.wifi_contention_domain) d = 2 * rng.UniformInt(0, 2);
  }
  return opt;
}

// One network of the co-channel corpus: all three sharing modes, 1-3 PLC
// domains, dead backhauls, extender positions for channel plans, and either
// a channel plan or explicit contention domains (alternating by scenario),
// with a random partial assignment.
struct CoChannelCase {
  Network net;
  EvalOptions opt;
  Assignment assign;
};

CoChannelCase CoChannelScenario(int scenario, util::Rng& rng) {
  const PlcSharing modes[] = {PlcSharing::kMaxMinActive,
                              PlcSharing::kEqualActive, PlcSharing::kEqualAll};
  ScenarioConfig cfg;
  cfg.num_users = static_cast<std::size_t>(rng.UniformInt(2, 40));
  cfg.num_extenders = static_cast<std::size_t>(rng.UniformInt(2, 8));
  cfg.sharing = modes[scenario % 3];
  cfg.plc_domains = 1 + (scenario / 3) % 3;
  CoChannelCase c;
  c.net = RandomNetwork(cfg, rng);
  for (std::size_t j = 0; j < cfg.num_extenders; ++j) {
    c.net.SetExtenderPosition(
        j, {rng.Uniform(0.0, 120.0), rng.Uniform(0.0, 120.0)});
  }
  c.opt = CoChannelOptions(cfg, scenario % 2 == 0, rng);
  c.assign = RandomAssignment(c.net, rng);
  return c;
}

// Every value the engine reports equals a fresh Evaluate's, to the bit.
void ExpectBitIdentical(IncrementalEvaluator& inc, const Network& net,
                        const Assignment& assign, const Evaluator& evaluator,
                        EvalScratch& scratch, const std::string& where) {
  const EvalResult& fresh = evaluator.Evaluate(net, assign, scratch);
  EXPECT_EQ(inc.aggregate_mbps(), fresh.aggregate_mbps) << where;
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    EXPECT_EQ(inc.UserThroughput(i), fresh.user_throughput_mbps[i])
        << where << " user " << i;
  }
}

TEST(IncrementalEvalCoChannel, BitIdenticalToEvaluateAfterEveryPeekAndApply) {
  util::Rng rng(0xc0c4);
  int contended = 0, dead = 0, unassigns = 0, swaps = 0;
  for (int scenario = 0; scenario < 150; ++scenario) {
    CoChannelCase c = CoChannelScenario(scenario, rng);
    const Network& net = c.net;
    const EvalOptions& opt = c.opt;
    Assignment& assign = c.assign;
    for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
      if (net.PlcRate(j) <= 0.0) ++dead;
    }

    const Evaluator evaluator(opt);
    EvalScratch scratch;
    const std::vector<int> domains =
        *evaluator.ResolveWifiDomains(net, scratch);
    if (std::set<int>(domains.begin(), domains.end()).size() <
        domains.size()) {
      ++contended;
    }
    IncrementalEvaluator inc(net, assign, opt,
                             IncrementalEvaluator::kDefaultLogFloorMbps,
                             /*track_log_utility=*/false);
    ASSERT_EQ(inc.regime(), IncrementalEvaluator::Regime::kExact);
    const std::string where = "scenario " + std::to_string(scenario);
    ExpectBitIdentical(inc, net, assign, evaluator, scratch, where);

    const int moves = rng.UniformInt(5, 30);
    for (int mv = 0; mv < moves; ++mv) {
      const std::string step = where + " step " + std::to_string(mv);
      const std::size_t u1 = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(net.NumUsers()) - 1));
      const std::size_t u2 = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(net.NumUsers()) - 1));
      const int e1 = assign.ExtenderOf(u1);
      const int e2 = assign.ExtenderOf(u2);
      if (e1 >= 0 && e2 >= 0 && e1 != e2 &&
          net.WifiRate(u1, static_cast<std::size_t>(e2)) > 0.0 &&
          net.WifiRate(u2, static_cast<std::size_t>(e1)) > 0.0) {
        Assignment swapped = assign;
        swapped.Assign(u1, static_cast<std::size_t>(e2));
        swapped.Assign(u2, static_cast<std::size_t>(e1));
        const double peeked = inc.PeekSwap(u1, u2).aggregate_mbps;
        EXPECT_EQ(peeked,
                  evaluator.Evaluate(net, swapped, scratch).aggregate_mbps)
            << step << " swap peek";
        ExpectBitIdentical(inc, net, assign, evaluator, scratch,
                           step + " after swap peek");
        ++swaps;
      }

      std::size_t user = 0;
      int to = Assignment::kUnassigned;
      if (!RandomMove(net, assign, rng, &user, &to)) break;
      Assignment moved = assign;
      if (to == Assignment::kUnassigned) {
        moved.Unassign(user);
        ++unassigns;
      } else {
        moved.Assign(user, static_cast<std::size_t>(to));
      }
      const double peeked = inc.PeekMove(user, to).aggregate_mbps;
      EXPECT_EQ(peeked, evaluator.Evaluate(net, moved, scratch).aggregate_mbps)
          << step << " move peek";
      ExpectBitIdentical(inc, net, assign, evaluator, scratch,
                         step + " after move peek");
      inc.ApplyMove(user, to);
      assign = moved;
      ExpectBitIdentical(inc, net, assign, evaluator, scratch,
                         step + " after apply");
    }
  }
  EXPECT_GT(contended, 50);
  EXPECT_GT(dead, 0);
  EXPECT_GT(unassigns, 50);
  EXPECT_GT(swaps, 50);
}

// The demand bound's definition: the in-order sum of Evaluate's WiFi
// throughputs over the active cells with a live backhaul.
double DemandSum(const EvalResult& res, const Network& net) {
  double sum = 0.0;
  for (std::size_t j = 0; j < res.extenders.size(); ++j) {
    if (res.extenders[j].num_users == 0 || net.PlcRate(j) <= 0.0) continue;
    sum += res.extenders[j].wifi_throughput_mbps;
  }
  return sum;
}

TEST(IncrementalEvalCoChannel, DemandBoundDominatesEveryPeek) {
  util::Rng rng(0xb0d5);
  int relocations = 0, swaps = 0, unassigns = 0, dead = 0;
  int activity = 0;  // relocations that empty a cell or fill an empty one
  for (int scenario = 0; scenario < 90; ++scenario) {
    CoChannelCase c = CoChannelScenario(scenario, rng);
    const Network& net = c.net;
    Assignment& assign = c.assign;
    for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
      if (net.PlcRate(j) <= 0.0) ++dead;
      // Caps bind the searches, never the evaluation.
      if (rng.Bernoulli(0.3)) c.net.SetMaxUsers(j, rng.UniformInt(1, 4));
    }
    const Evaluator evaluator(c.opt);
    EvalScratch scratch;
    IncrementalEvaluator inc(net, assign, c.opt,
                             IncrementalEvaluator::kDefaultLogFloorMbps,
                             /*track_log_utility=*/false);
    ASSERT_EQ(inc.regime(), IncrementalEvaluator::Regime::kExact);
    const std::string where = "scenario " + std::to_string(scenario);

    // Every usable relocation (unassigns included) and swap. Each bound is
    // read after other candidates' peeks, which must not leak into it.
    const auto check_every_move = [&](const std::string& step) {
      const std::vector<int> load = assign.LoadVector(net.NumExtenders());
      for (std::size_t u = 0; u < net.NumUsers(); ++u) {
        const int from = assign.ExtenderOf(u);
        for (int to = Assignment::kUnassigned;
             to < static_cast<int>(net.NumExtenders()); ++to) {
          if (to == from) continue;
          if (to >= 0 && net.WifiRate(u, static_cast<std::size_t>(to)) <= 0.0) {
            continue;
          }
          Assignment moved = assign;
          if (to == Assignment::kUnassigned) {
            moved.Unassign(u);
            ++unassigns;
          } else {
            moved.Assign(u, static_cast<std::size_t>(to));
          }
          if ((from >= 0 && load[static_cast<std::size_t>(from)] == 1) ||
              (to >= 0 && load[static_cast<std::size_t>(to)] == 0)) {
            ++activity;
          }
          const std::string what =
              step + " move " + std::to_string(u) + " -> " +
              std::to_string(to);
          const double bound =
              DemandSum(evaluator.Evaluate(net, moved, scratch), net);
          const double peeked = inc.PeekMove(u, to).aggregate_mbps;
          EXPECT_LE(peeked, bound) << what;
          // The screen cuts at exactly this bound: no peek at it, the
          // peek one ULP below it.
          EXPECT_FALSE(inc.PeekMoveAbove(u, to, bound)) << what;
          const auto above =
              inc.PeekMoveAbove(u, to, std::nextafter(bound, -1.0));
          ASSERT_TRUE(above) << what;
          EXPECT_EQ(above->aggregate_mbps, peeked) << what;
          ++relocations;
        }
      }
      for (std::size_t u1 = 0; u1 < net.NumUsers(); ++u1) {
        for (std::size_t u2 = u1 + 1; u2 < net.NumUsers(); ++u2) {
          const int e1 = assign.ExtenderOf(u1);
          const int e2 = assign.ExtenderOf(u2);
          if (e1 < 0 || e2 < 0 || e1 == e2 ||
              net.WifiRate(u1, static_cast<std::size_t>(e2)) <= 0.0 ||
              net.WifiRate(u2, static_cast<std::size_t>(e1)) <= 0.0) {
            continue;
          }
          Assignment swapped = assign;
          swapped.Assign(u1, static_cast<std::size_t>(e2));
          swapped.Assign(u2, static_cast<std::size_t>(e1));
          const std::string what =
              step + " swap " + std::to_string(u1) + " <-> " +
              std::to_string(u2);
          const double bound =
              DemandSum(evaluator.Evaluate(net, swapped, scratch), net);
          const double peeked = inc.PeekSwap(u1, u2).aggregate_mbps;
          EXPECT_LE(peeked, bound) << what;
          EXPECT_FALSE(inc.PeekSwapAbove(u1, u2, bound)) << what;
          const auto above =
              inc.PeekSwapAbove(u1, u2, std::nextafter(bound, -1.0));
          ASSERT_TRUE(above) << what;
          EXPECT_EQ(above->aggregate_mbps, peeked) << what;
          ++swaps;
        }
      }
    };

    check_every_move(where + " initial");
    const int moves = rng.UniformInt(3, 10);
    for (int mv = 0; mv < moves; ++mv) {
      std::size_t user = 0;
      int to = Assignment::kUnassigned;
      if (!RandomMove(net, assign, rng, &user, &to)) break;
      inc.ApplyMove(user, to);
      if (to == Assignment::kUnassigned) {
        assign.Unassign(user);
      } else {
        assign.Assign(user, static_cast<std::size_t>(to));
      }
      check_every_move(where + " step " + std::to_string(mv));
    }
  }
  EXPECT_GT(dead, 0);
  EXPECT_GT(unassigns, 1000);
  EXPECT_GT(swaps, 10000);
  // Both ways to a bound: a peer count that changes, and the prefix of
  // committed demands with only the touched cells recomputed.
  EXPECT_GT(activity, 1000);
  EXPECT_GT(relocations - activity, 10000);
}

TEST(IncrementalEvalCoChannel, ScreenedPeeksNeedTheExactRegime) {
  util::Rng rng(17);
  const ScenarioConfig cfg{10, 4, PlcSharing::kMaxMinActive, 1, false, false};
  const Network net = RandomNetwork(cfg, rng);
  const Assignment assign = RandomAssignment(net, rng);
  EvalOptions contention;
  contention.wifi_contention_domain = {0, 0, 1, 1};
  for (const bool track_log : {false, true}) {
    IncrementalEvaluator inc(net, assign,
                             track_log ? contention : EvalOptions{},
                             IncrementalEvaluator::kDefaultLogFloorMbps,
                             track_log);
    ASSERT_NE(inc.regime(), IncrementalEvaluator::Regime::kExact);
    EXPECT_THROW(inc.PeekMoveAbove(0, Assignment::kUnassigned, 0.0),
                 std::logic_error);
    EXPECT_THROW(inc.PeekSwapAbove(0, 1, 0.0), std::logic_error);
  }
  IncrementalEvaluator exact(net, assign, contention,
                             IncrementalEvaluator::kDefaultLogFloorMbps,
                             /*track_log_utility=*/false);
  EXPECT_THROW(exact.PeekMoveAbove(net.NumUsers(), 0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(exact.PeekSwapAbove(0, net.NumUsers(), 0.0),
               std::invalid_argument);
}

TEST(IncrementalEvalCoChannel, RejectsMalformedOptionsLikeEvaluate) {
  util::Rng rng(21);
  const ScenarioConfig cfg{10, 4, PlcSharing::kMaxMinActive, 1, false, false};
  const Network net = RandomNetwork(cfg, rng);
  const Assignment assign = RandomAssignment(net, rng);

  std::vector<EvalOptions> malformed(5);
  malformed[0].wifi_channel = {0, 1, 2};             // plan size mismatch
  malformed[1].wifi_contention_domain = {0, 0};      // domain size mismatch
  malformed[2].wifi_channel = {0, -1, 1, 0};         // negative channel
  malformed[3].wifi_channel = {0, 1, 2, 0};          // both modes set
  malformed[3].wifi_contention_domain = {0, 0, 1, 1};
  malformed[4].wifi_channel = {0, 1, 2, 0};          // negative range
  malformed[4].carrier_sense_range_m = -1.0;
  for (std::size_t k = 0; k < malformed.size(); ++k) {
    EXPECT_THROW(Evaluator(malformed[k]).Evaluate(net, assign),
                 std::invalid_argument)
        << "case " << k;
    for (const bool track_log : {false, true}) {
      EXPECT_THROW(IncrementalEvaluator(
                       net, assign, malformed[k],
                       IncrementalEvaluator::kDefaultLogFloorMbps, track_log),
                   std::invalid_argument)
          << "case " << k << " track_log " << track_log;
    }
  }
}

}  // namespace
}  // namespace wolt::model
