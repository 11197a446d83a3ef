#include "assign/local_search.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "assign/brute_force.h"
#include "model/incremental.h"
#include "obs/obs.h"
#include "testbed/lab.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace wolt::assign {
namespace {

model::Network RandomNetwork(util::Rng& rng, std::size_t users,
                             std::size_t exts) {
  model::Network net(users, exts);
  for (std::size_t j = 0; j < exts; ++j) {
    net.SetPlcRate(j, rng.Uniform(20.0, 160.0));
  }
  for (std::size_t i = 0; i < users; ++i) {
    for (std::size_t j = 0; j < exts; ++j) {
      net.SetWifiRate(i, j, rng.Uniform(5.0, 65.0));
    }
  }
  return net;
}

TEST(Phase2ValueTest, WifiSumMatchesHandComputation) {
  const model::Network net = testbed::CaseStudyNetwork();
  model::Assignment a(2);
  a.Assign(0, 0);
  a.Assign(1, 0);
  // Both on ext0: sum = 2/(1/15 + 1/40) = 240/11.
  EXPECT_NEAR(Phase2Value(net, a, Phase2Objective::kWifiSum, {}),
              240.0 / 11.0, 1e-9);
  a.Assign(1, 1);
  EXPECT_NEAR(Phase2Value(net, a, Phase2Objective::kWifiSum, {}),
              15.0 + 20.0, 1e-9);
}

TEST(Phase2ValueTest, EndToEndUsesEvaluator) {
  const model::Network net = testbed::CaseStudyNetwork();
  model::Assignment a(2);
  a.Assign(0, 0);
  a.Assign(1, 1);
  EXPECT_NEAR(Phase2Value(net, a, Phase2Objective::kEndToEnd, {}), 30.0,
              1e-9);
}

TEST(GreedyInsertTest, PicksBestMarginalExtender) {
  // User 1 fixed on ext0 (rate 15); inserting user 2 onto ext1 gives WiFi
  // sum 15+20=35 vs both-on-ext0 21.8, so greedy must pick ext1.
  const model::Network net = testbed::CaseStudyNetwork();
  model::Assignment a(2);
  a.Assign(0, 0);
  GreedyInsert(net, a, {1});
  EXPECT_EQ(a.ExtenderOf(1), 1);
}

TEST(GreedyInsertTest, SkipsAssignedAndUnreachableUsers) {
  model::Network net(3, 2);
  net.SetPlcRate(0, 100.0);
  net.SetPlcRate(1, 100.0);
  net.SetWifiRate(0, 0, 10.0);
  net.SetWifiRate(1, 1, 10.0);
  // user 2 unreachable everywhere.
  model::Assignment a(3);
  a.Assign(0, 0);
  GreedyInsert(net, a, {0, 1, 2});
  EXPECT_EQ(a.ExtenderOf(0), 0);  // untouched
  EXPECT_EQ(a.ExtenderOf(1), 1);
  EXPECT_FALSE(a.IsAssigned(2));  // left out, no crash
}

TEST(GreedyInsertTest, RespectsCapacityCaps) {
  model::Network net(3, 2);
  net.SetPlcRate(0, 100.0);
  net.SetPlcRate(1, 100.0);
  for (std::size_t i = 0; i < 3; ++i) {
    net.SetWifiRate(i, 0, 60.0);  // everyone prefers ext0
    net.SetWifiRate(i, 1, 10.0);
  }
  net.SetMaxUsers(0, 2);
  model::Assignment a(3);
  GreedyInsert(net, a, {0, 1, 2});
  const std::vector<int> load = a.LoadVector(2);
  EXPECT_EQ(load[0], 2);
  EXPECT_EQ(load[1], 1);
}

TEST(GreedyInsertTest, EndToEndObjectiveVariant) {
  const model::Network net = testbed::CaseStudyNetwork();
  model::Assignment a(2);
  a.Assign(0, 0);
  LocalSearchOptions opts;
  opts.objective = Phase2Objective::kEndToEnd;
  GreedyInsert(net, a, {1}, opts);
  // End-to-end: ext1 gives 30 total vs 21.8 on ext0.
  EXPECT_EQ(a.ExtenderOf(1), 1);
}

TEST(RelocateTest, ImprovesToLocalOptimum) {
  // Start from a bad configuration and verify local search escapes it.
  const model::Network net = testbed::CaseStudyNetwork();
  model::Assignment a(2);
  a.Assign(0, 0);
  a.Assign(1, 0);  // both users on ext0: WiFi sum 21.8
  const LocalSearchStats stats = RelocateLocalSearch(net, a, {0, 1});
  EXPECT_GT(stats.final_value, stats.initial_value);
  EXPECT_GE(stats.moves, 1u);
  // WiFi-sum optimum keeps each user alone on an extender.
  EXPECT_NE(a.ExtenderOf(0), a.ExtenderOf(1));
}

TEST(RelocateTest, OnlyMovesMovableUsers) {
  const model::Network net = testbed::CaseStudyNetwork();
  model::Assignment a(2);
  a.Assign(0, 0);
  a.Assign(1, 0);
  RelocateLocalSearch(net, a, {1});  // user0 pinned
  EXPECT_EQ(a.ExtenderOf(0), 0);
}

TEST(RelocateTest, StopsOnTolerance) {
  const model::Network net = testbed::CaseStudyNetwork();
  model::Assignment a(2);
  a.Assign(0, 1);
  a.Assign(1, 0);  // already the WiFi-sum optimum (10 + 40 = 50)
  const LocalSearchStats stats = RelocateLocalSearch(net, a, {0, 1});
  EXPECT_EQ(stats.moves, 0u);
  EXPECT_DOUBLE_EQ(stats.initial_value, stats.final_value);
}

TEST(RelocateTest, NeverDecreasesObjective) {
  for (int seed = 1; seed <= 25; ++seed) {
    util::Rng rng(static_cast<std::uint64_t>(seed) * 131);
    const model::Network net = RandomNetwork(rng, 8, 3);
    model::Assignment a(8);
    std::vector<std::size_t> movable;
    for (std::size_t i = 0; i < 8; ++i) {
      a.Assign(i, static_cast<std::size_t>(rng.UniformInt(0, 2)));
      movable.push_back(i);
    }
    const LocalSearchStats stats = RelocateLocalSearch(net, a, movable);
    EXPECT_GE(stats.final_value, stats.initial_value - 1e-9) << seed;
    EXPECT_TRUE(a.IsCompleteFor(net));
  }
}

TEST(RelocateTest, ReachesBruteForceOptimumOnWifiSum) {
  // Problem 2 with no fixed users: greedy insertion + relocation should hit
  // the exhaustive WiFi-sum optimum on small instances (Theorem 3 says the
  // continuous relaxation is integral; the discrete landscape is benign).
  int optimal_hits = 0;
  double ratio_sum = 0.0;
  const int cases = 30;
  for (int seed = 1; seed <= cases; ++seed) {
    util::Rng rng(static_cast<std::uint64_t>(seed) * 733);
    const model::Network net = RandomNetwork(rng, 6, 3);
    model::Assignment a(6);
    std::vector<std::size_t> all = {0, 1, 2, 3, 4, 5};
    const double heuristic = SolvePhase2MultiStart(net, a, all);

    const model::Assignment none(6);
    const BruteForceResult bf = SolveBruteForceObjective(
        net, none, [&](const model::Assignment& cand) {
          return Phase2Value(net, cand, Phase2Objective::kWifiSum, {});
        });
    EXPECT_LE(heuristic, bf.best_aggregate_mbps + 1e-6);
    ratio_sum += heuristic / bf.best_aggregate_mbps;
    if (heuristic >= bf.best_aggregate_mbps - 1e-6) ++optimal_hits;
  }
  // A local-search heuristic for an NP-hard landscape: it must hit the
  // exact optimum in a clear majority of instances and stay within a
  // fraction of a percent of it on average.
  EXPECT_GE(optimal_hits, cases * 2 / 3);
  EXPECT_GE(ratio_sum / cases, 0.995);
}

// The in-solve parallel multi-start must be BYTE-identical to the serial
// solve at every thread count: same objective value (exact, no tolerance)
// and the same extender for every user. The merge is deterministic by start
// index, so thread scheduling must never leak into the result.
TEST(MultiStartParallelTest, ByteIdenticalToSerialAtAnyThreadCount) {
  util::Rng rng(0x9a7a11e1);
  for (int inst = 0; inst < 10; ++inst) {
    const std::size_t users = 18 + static_cast<std::size_t>(inst);
    model::Network net = RandomNetwork(rng, users, 5);
    // Punch holes in reachability so the starts genuinely differ.
    for (std::size_t i = 0; i < users; ++i) {
      for (std::size_t j = 0; j < 5; ++j) {
        if (rng.UniformInt(0, 3) == 0 && j != i % 5) {
          net.SetWifiRate(i, j, 0.0);
        }
      }
    }
    std::vector<std::size_t> all(users);
    for (std::size_t i = 0; i < users; ++i) all[i] = i;

    model::Assignment serial(users);
    const double serial_value = SolvePhase2MultiStart(net, serial, all);

    for (int threads : {1, 2, 4, 8}) {
      util::ThreadPool pool(threads);
      util::SolverArena arena;
      std::deque<util::SolverArena> start_arenas;
      model::NetworkSoA soa;
      soa.Refresh(net);
      LocalSearchOptions opts;
      opts.soa = &soa;
      opts.arena = &arena;
      opts.pool = &pool;
      opts.start_arenas = &start_arenas;
      model::Assignment par(users);
      const double par_value = SolvePhase2MultiStart(net, par, all, opts);
      EXPECT_EQ(par_value, serial_value)
          << "inst=" << inst << " threads=" << threads;
      for (std::size_t i = 0; i < users; ++i) {
        EXPECT_EQ(par.ExtenderOf(i), serial.ExtenderOf(i))
            << "inst=" << inst << " threads=" << threads << " user=" << i;
      }
    }
  }
}

// Same identity for the evaluator-backed end-to-end objective, whose
// searches run through model::IncrementalEvaluator on the workers.
TEST(MultiStartParallelTest, ByteIdenticalOnEndToEndObjective) {
  util::Rng rng(0xe2e0);
  for (int inst = 0; inst < 4; ++inst) {
    const model::Network net = RandomNetwork(rng, 12, 4);
    std::vector<std::size_t> all(12);
    for (std::size_t i = 0; i < 12; ++i) all[i] = i;

    LocalSearchOptions base;
    base.objective = Phase2Objective::kEndToEnd;
    model::Assignment serial(12);
    const double serial_value = SolvePhase2MultiStart(net, serial, all, base);

    for (int threads : {2, 8}) {
      util::ThreadPool pool(threads);
      LocalSearchOptions opts = base;
      opts.pool = &pool;
      model::Assignment par(12);
      const double par_value = SolvePhase2MultiStart(net, par, all, opts);
      EXPECT_EQ(par_value, serial_value)
          << "inst=" << inst << " threads=" << threads;
      for (std::size_t i = 0; i < 12; ++i) {
        EXPECT_EQ(par.ExtenderOf(i), serial.ExtenderOf(i))
            << "inst=" << inst << " threads=" << threads << " user=" << i;
      }
    }
  }
}

// --- The co-channel screen ---------------------------------------------

// Candidates the unscreened search generated and evaluated (peeked).
struct SearchCounts {
  std::uint64_t relocate_generated = 0;
  std::uint64_t relocate_evaluated = 0;
  std::uint64_t swap_generated = 0;
  std::uint64_t swap_evaluated = 0;
};

// The evaluator-backed end-to-end search without the demand-bound screen,
// rebuilt on the public peeks: greedy insertion, then the relocate/swap
// passes, peeking every usable candidate. The library's screened searches
// must reproduce its assignments and candidate counts exactly.
class UnscreenedSearch {
 public:
  UnscreenedSearch(const model::Network& net, model::Assignment& assign,
                   const LocalSearchOptions& options)
      : net_(net),
        assign_(assign),
        options_(options),
        inc_(net, assign, options.eval,
             model::IncrementalEvaluator::kDefaultLogFloorMbps,
             /*track_log_utility=*/false) {}

  void Insert(const std::vector<std::size_t>& users) {
    for (std::size_t user : users) {
      if (assign_.IsAssigned(user)) continue;
      int best_ext = -1;
      double best_value = 0.0;
      for (std::size_t j = 0; j < net_.NumExtenders(); ++j) {
        if (!Usable(user, j) || !HasRoom(j)) continue;
        const double candidate =
            inc_.PeekMove(user, static_cast<int>(j)).aggregate_mbps;
        if (best_ext < 0 || candidate > best_value) {
          best_value = candidate;
          best_ext = static_cast<int>(j);
        }
      }
      if (best_ext < 0) continue;
      Move(user, static_cast<std::size_t>(best_ext));
    }
  }

  SearchCounts Relocate(const std::vector<std::size_t>& movable) {
    SearchCounts counts;
    const double tol = options_.improvement_tolerance;
    double value = inc_.aggregate_mbps();
    for (std::size_t pass = 0; pass < options_.max_passes; ++pass) {
      double pass_gain = 0.0;
      for (std::size_t user : movable) {
        const int from = assign_.ExtenderOf(user);
        if (from == model::Assignment::kUnassigned) continue;
        int best_ext = -1;
        double best_value = value;
        for (std::size_t j = 0; j < net_.NumExtenders(); ++j) {
          if (static_cast<int>(j) == from) continue;
          ++counts.relocate_generated;
          if (!Usable(user, j) || !HasRoom(j)) continue;
          ++counts.relocate_evaluated;
          const double candidate =
              inc_.PeekMove(user, static_cast<int>(j)).aggregate_mbps;
          if (candidate > best_value + tol) {
            best_value = candidate;
            best_ext = static_cast<int>(j);
          }
        }
        if (best_ext >= 0) {
          Move(user, static_cast<std::size_t>(best_ext));
          pass_gain += best_value - value;
          value = best_value;
        }
      }
      for (std::size_t a = 0; options_.swap_moves && a < movable.size(); ++a) {
        const std::size_t u1 = movable[a];
        // Read once per u1, as the library does: a swap later in the scan
        // moves u1 without refreshing it.
        const int e1 = assign_.ExtenderOf(u1);
        if (e1 == model::Assignment::kUnassigned) continue;
        for (std::size_t b = a + 1; b < movable.size(); ++b) {
          const std::size_t u2 = movable[b];
          const int e2 = assign_.ExtenderOf(u2);
          if (e2 == model::Assignment::kUnassigned || e1 == e2) continue;
          const std::size_t x1 =
              static_cast<std::size_t>(assign_.ExtenderOf(u1));
          const std::size_t x2 = static_cast<std::size_t>(e2);
          if (x1 == x2) continue;
          ++counts.swap_generated;
          if (!Usable(u1, x2) || !Usable(u2, x1)) continue;
          ++counts.swap_evaluated;
          const double candidate = inc_.PeekSwap(u1, u2).aggregate_mbps;
          if (candidate > value + tol) {
            Move(u1, x2);
            Move(u2, x1);
            pass_gain += candidate - value;
            value = candidate;
          }
        }
      }
      if (pass_gain <= tol) break;
    }
    return counts;
  }

 private:
  bool Usable(std::size_t user, std::size_t ext) const {
    return net_.WifiRate(user, ext) > 0.0 && net_.PlcRate(ext) > 0.0;
  }
  bool HasRoom(std::size_t ext) const {
    const int cap = net_.MaxUsers(ext);
    return cap == 0 || inc_.Load(ext) < cap;
  }
  void Move(std::size_t user, std::size_t ext) {
    inc_.ApplyMove(user, static_cast<int>(ext));
    assign_.Assign(user, ext);
  }

  const model::Network& net_;
  model::Assignment& assign_;
  const LocalSearchOptions& options_;
  model::IncrementalEvaluator inc_;
};

// A random co-channel instance: 1-3 PLC domains, some dead backhauls and
// B_j caps, a channel plan or explicit contention domains. With
// `fast_backhaul` every backhaul is far faster than any cell's air, so every
// cell is WiFi-limited and a move's aggregate equals its demand bound. With
// `quantized`, rates come from a few MCS-like steps, and every other user
// hears each of its extenders at one step give or take a few ULPs, so many
// moves tie or gain a single ULP.
model::Network CoChannelNetwork(util::Rng& rng, std::size_t users,
                                std::size_t exts, bool fast_backhaul,
                                bool quantized) {
  const double steps[] = {6.5, 13.0, 19.5, 26.0, 39.0, 52.0, 58.5, 65.0};
  model::Network net(users, exts);
  const int domains = rng.UniformInt(1, 3);
  for (std::size_t j = 0; j < exts; ++j) {
    const double plc = fast_backhaul ? rng.Uniform(2000.0, 4000.0)
                                     : rng.Uniform(20.0, 400.0);
    net.SetPlcRate(j, rng.Bernoulli(0.1) ? 0.0 : plc);
    net.SetPlcDomain(j, rng.UniformInt(0, domains - 1));
    if (rng.Bernoulli(0.25)) net.SetMaxUsers(j, rng.UniformInt(1, 6));
    net.SetExtenderPosition(
        j, {rng.Uniform(0.0, 120.0), rng.Uniform(0.0, 120.0)});
  }
  const double ulp = std::numeric_limits<double>::epsilon();
  for (std::size_t i = 0; i < users; ++i) {
    const double step = steps[rng.UniformInt(0, 7)];
    for (std::size_t j = 0; j < exts; ++j) {
      if (!rng.Bernoulli(0.7)) continue;
      double rate = rng.Uniform(5.0, 300.0);
      if (quantized) {
        rate = i % 2 == 0 ? steps[rng.UniformInt(0, 7)]
                          : step * (1.0 + rng.UniformInt(0, 3) * ulp);
      }
      net.SetWifiRate(i, j, rate);
    }
  }
  return net;
}

model::EvalOptions CoChannelEval(util::Rng& rng, std::size_t exts, int trial) {
  const model::PlcSharing modes[] = {model::PlcSharing::kMaxMinActive,
                                     model::PlcSharing::kEqualActive,
                                     model::PlcSharing::kEqualAll};
  model::EvalOptions eval;
  eval.plc_sharing = modes[trial % 3];
  if (trial % 4 < 2) {
    const int channels = rng.UniformInt(1, 3);
    eval.wifi_channel.resize(exts);
    for (int& c : eval.wifi_channel) c = rng.UniformInt(0, channels - 1);
    const double ranges[] = {0.0, 25.0, 60.0, 200.0};
    eval.carrier_sense_range_m = ranges[rng.UniformInt(0, 3)];
  } else {
    eval.wifi_contention_domain.resize(exts);
    for (int& d : eval.wifi_contention_domain) d = rng.UniformInt(0, 2);
  }
  return eval;
}

[[maybe_unused]] std::uint64_t CounterValue(const obs::MetricsSnapshot& snap,
                                            const std::string& name) {
  for (const obs::CounterSample& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

TEST(CoChannelScreenTest, ScreenedSearchEqualsUnscreened) {
  util::Rng rng(0x5c7ee7);
  [[maybe_unused]] std::uint64_t evaluated_screened = 0;
  [[maybe_unused]] std::uint64_t evaluated_unscreened = 0;
  std::size_t moved = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const std::size_t users = static_cast<std::size_t>(rng.UniformInt(4, 30));
    const std::size_t exts = static_cast<std::size_t>(rng.UniformInt(2, 8));
    const bool quantized = trial % 4 >= 2;
    const model::Network net = CoChannelNetwork(
        rng, users, exts, /*fast_backhaul=*/trial % 2 == 0, quantized);
    LocalSearchOptions options;
    options.objective = Phase2Objective::kEndToEnd;
    options.eval = CoChannelEval(rng, exts, trial);
    // The paper's tolerance, and none: then a move is accepted for any
    // gain, down to one ULP, and its bound must not be a ULP too low.
    options.improvement_tolerance = quantized || trial % 3 == 0 ? 0.0 : 1e-5;
    std::vector<std::size_t> everyone(users);
    for (std::size_t i = 0; i < users; ++i) everyone[i] = i;
    std::vector<std::size_t> movable;
    for (std::size_t i = 0; i < users; ++i) {
      if (trial % 5 != 0 || rng.Bernoulli(0.7)) movable.push_back(i);
    }

    // Fresh: greedy insertion of everyone into the empty assignment. Or a
    // random previous assignment that respects reachability and caps.
    model::Assignment start(users);
    const bool fresh = trial % 2 == 1;
    if (!fresh) {
      std::vector<int> load(exts, 0);
      for (std::size_t i = 0; i < users; ++i) {
        const std::size_t j = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<int>(exts) - 1));
        const int cap = net.MaxUsers(j);
        if (rng.Bernoulli(0.1) || net.WifiRate(i, j) <= 0.0 ||
            (cap > 0 && load[j] >= cap)) {
          continue;
        }
        start.Assign(i, j);
        ++load[j];
      }
    }
    const std::string where = "trial " + std::to_string(trial);

    model::Assignment want = start;
    UnscreenedSearch reference(net, want, options);
    if (fresh) reference.Insert(everyone);
    const model::Assignment want_inserted = want;
    [[maybe_unused]] const SearchCounts counts = reference.Relocate(movable);

    model::Assignment got = start;
    obs::MetricsRegistry registry;
    {
      const obs::ScopedMetrics scoped(registry);
      if (fresh) {
        GreedyInsert(net, got, everyone, options);
        EXPECT_EQ(got, want_inserted) << where << " insert";
      }
      RelocateLocalSearch(net, got, movable, options);
    }
    ASSERT_EQ(got, want) << where;
    if (got != start) ++moved;
#if WOLT_OBS_ENABLED
    const obs::MetricsSnapshot snap = registry.Snapshot();
    EXPECT_EQ(CounterValue(snap, "ls.relocate.generated"),
              counts.relocate_generated)
        << where;
    EXPECT_EQ(CounterValue(snap, "ls.swap.generated"), counts.swap_generated)
        << where;
    evaluated_screened += CounterValue(snap, "ls.relocate.evaluated") +
                          CounterValue(snap, "ls.swap.evaluated");
    evaluated_unscreened += counts.relocate_evaluated + counts.swap_evaluated;
#endif
  }
  EXPECT_GT(moved, 150u);
#if WOLT_OBS_ENABLED
  EXPECT_LT(evaluated_screened, evaluated_unscreened);
#endif
}

}  // namespace
}  // namespace wolt::assign
