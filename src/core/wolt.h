// WOLT — the paper's primary contribution (Alg. 1).
//
// Phase I solves the modified Problem 1 (constraint (7) relaxed; every
// extender serves >= 1 user): by Lemma 2 exactly one user per extender is
// optimal, and by Theorem 2 the problem becomes a standard assignment
// problem with task utilities u_ij = min(c_j/|A|, r_ij) — solved here with
// the Hungarian algorithm in O(|A|^3). Phase II assigns the remaining users
// U2 to maximize the aggregate WiFi throughput with the Phase-I users fixed
// (Problem 2); per Theorem 3 the continuous optimum is integral, and we
// solve it with marginal-gain greedy insertion + relocation local search
// (the projected-gradient NLP solver is available as an alternative).
//
// For dynamic scenarios WOLT recomputes at every invocation; the `sticky`
// option seeds Phase II with each persisting user's current extender and
// only moves users for material gain, which is what keeps the re-assignment
// load near one swap per arrival (Fig. 6c).
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "assign/joint.h"
#include "assign/local_search.h"
#include "core/policy.h"
#include "model/evaluator.h"
#include "model/soa.h"
#include "util/arena.h"

namespace wolt::core {

// Phase-I utility definition (ablation Abl-3 compares these).
enum class Phase1Utility {
  // The paper's Theorem-2 utility: min(c_j / |A|, r_ij).
  kMinPlcShareWifi,
  // Naive: WiFi rate only (ignores the PLC backhaul).
  kWifiOnly,
};

struct WoltOptions {
  Phase1Utility phase1_utility = Phase1Utility::kMinPlcShareWifi;
  assign::Phase2Objective phase2_objective =
      assign::Phase2Objective::kWifiSum;
  // Solve Phase II with the projected-gradient NLP instead of greedy
  // insertion + local search.
  bool use_nlp_phase2 = false;
  // Run relocation local search after greedy insertion (ignored under NLP).
  bool local_search = true;
  // Seed Phase II from `previous` for persisting users, bounding churn.
  bool sticky = true;
  // Extension (not in the paper): instead of force-activating every
  // extender (modification (b) of Problem 1), also try restricting the
  // network to the top-k extenders by PLC rate for each k and keep the
  // assignment with the best true aggregate. Under physical (active-only)
  // PLC sharing, activating a weak power-line link steals airtime from
  // strong ones, so the unrestricted WOLT over-activates at enterprise
  // scale; the subset search repairs that. Disables stickiness benefits
  // (each candidate is solved fresh).
  bool subset_search = false;
  model::EvalOptions eval;  // used by the kEndToEnd Phase-II objective and
                            // by the subset search's candidate scoring
  // In-solve parallelism: when non-null, the fresh (non-sticky) Phase-II
  // multi-start runs its starts concurrently on this pool with a
  // deterministic merge — same result as serial at any thread count (see
  // LocalSearchOptions::pool). The pool must outlive the policy's solves;
  // null keeps every solve single-threaded.
  util::ThreadPool* phase2_pool = nullptr;
};

// Phase-I outcome, exposed for tests and the ablation benches.
struct Phase1Result {
  // Per extender: the user selected for it, or -1 when the extender cannot
  // be seeded (no reachable user, or fewer users than extenders — or the
  // Hungarian solve was truncated by a deadline before reaching it).
  std::vector<int> user_of_extender;
  std::vector<std::size_t> u1_users;  // the set U1
  double total_utility = 0.0;
  // True iff the Hungarian solve stopped early on deadline expiry.
  bool deadline_hit = false;
};

class WoltPolicy : public AssociationPolicy {
 public:
  explicit WoltPolicy(WoltOptions options = {}) : options_(options) {}

  std::string Name() const override {
    return options_.subset_search ? "WOLT-S" : "WOLT";
  }

  model::Assignment Associate(const model::Network& net,
                              const model::Assignment& previous) override;

  // The kWifiSum Phase II reads rates, capacities, domains and caps, never
  // demand or RSSI, and a solve seeded with its own output returns it
  // unchanged. The end-to-end and proportional-fair objectives read demand,
  // and so does the subset search's end-to-end polish; the NLP Phase II
  // makes no fixed-point promise.
  bool RatesOnlyFixedPoint() const override {
    return options_.phase2_objective == assign::Phase2Objective::kWifiSum &&
           !options_.subset_search && !options_.use_nlp_phase2;
  }

  // Run Phase I alone (Alg. 1 lines 1-4).
  Phase1Result ComputePhase1(const model::Network& net) const;
  // Phase I restricted to an extender activation mask (empty = all
  // enabled). Used by the subset search, which no longer copies the
  // Network per candidate activation set.
  Phase1Result ComputePhase1(const model::Network& net,
                             std::span<const std::uint8_t> mask) const;

  const WoltOptions& options() const { return options_; }

 private:
  // One full Phase I + Phase II solve restricted to the extenders enabled
  // in `mask` (empty = all).
  model::Assignment AssociateOnce(const model::Network& net,
                                  const model::Assignment& previous,
                                  std::span<const std::uint8_t> mask);
  // Extension: best-of-k activation search (see WoltOptions::subset_search).
  model::Assignment AssociateSubsetSearch(const model::Network& net,
                                          const model::Assignment& previous);

  WoltOptions options_;

  // Solve-lifetime scratch, retained across Associate calls so repeated
  // solves run allocation-free in steady state. `arena_` is reset at the
  // start of every Phase I (the solve boundary); everything below it on the
  // stack of one solve — Hungarian scratch, then Phase-II search state —
  // only allocates. `start_arenas_` holds one arena per concurrent
  // multi-start; `soa_` caches the network's structure-of-arrays view
  // keyed on Network::Version().
  mutable util::SolverArena arena_;
  std::deque<util::SolverArena> start_arenas_;
  model::NetworkSoA soa_;
};

// Adapts the full WOLT policy into the joint solver's association oracle
// (assign::SolveJointAlternating): each call solves with `base`'s options
// under the eval model the joint solver passes in (which carries the
// candidate channel plan), threading the deadline token through. The base's
// phase2_objective is forced to kEndToEnd so the association actually sees
// co-channel airtime costs — the kWifiSum proxy is blind to them.
assign::JointAssociator WoltJointAssociator(WoltOptions base = {});

}  // namespace wolt::core
