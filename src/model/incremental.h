// Incremental evaluation engine for the Phase-II search.
//
// The Phase-II local search (relocate / swap / greedy-insert moves) needs
// the objective value of thousands of candidate assignments that each
// differ from the current one by a single user. Re-running the full
// Evaluator per candidate costs O(U + E) with fresh result vectors; this
// engine keeps the evaluation state as per-extender / per-PLC-domain
// aggregates and updates only what a move touches. It picks one of three
// regimes from its inputs (`regime()` reports which):
//
//   * kDelta — saturated users, no co-channel WiFi contention. Per
//     extender it keeps the user count n_j and the WiFi harmonic sum (so
//     T_WiFi_j = n_j / sum 1/r_ij is O(1) to update on a single-user move);
//     per PLC contention domain, the max-min (or equal-share) airtime
//     allocation over its members, recomputed only for the <= 2 domains a
//     move touches; and running objective totals (aggregate end-to-end
//     throughput and the proportional-fairness log-utility, both sums of
//     per-extender contributions in the saturated model, where every user
//     of extender j gets end_to_end_j / n_j). A move costs O(|domain|).
//     The totals are kept with += / -=, so they drift from a fresh
//     Evaluate by a few ULPs; searches compare them with a tolerance.
//   * kExact — saturated users under co-channel WiFi contention
//     (EvalOptions::wifi_channel or wifi_contention_domain), aggregate
//     only. A cell going active or idle changes the airtime of every other
//     cell in its contention domain, so a move is not separable per PLC
//     domain. The engine keeps each extender's users in ascending index
//     order and, per move, re-sums the <= 2 touched cells' harmonic sums in
//     the order Evaluate sums them, then runs one O(E) pass with
//     Evaluate's own expressions in its order: active cells per contention
//     domain, each cell's demand, the airtime shares per PLC domain, and
//     the aggregate summed by extender index. Every value it reports —
//     aggregate_mbps(), peeks and UserThroughput() — is bit-identical to
//     Evaluator::Evaluate of the same assignment. The contention domains
//     come from Evaluator::ResolveWifiDomains. PeekMoveAbove and
//     PeekSwapAbove bound a peek's aggregate from above without the O(E)
//     airtime pass (see below), so a search can skip a move that cannot
//     pass its acceptance test.
//   * kReevaluate — some user carries a finite demand (demand-capped
//     allocations couple users within a cell), or co-channel contention
//     with log-utility tracking. Each move runs a full, allocation-free
//     Evaluate through a reused EvalScratch.
//
// Callers get the same semantics in every regime: every entry point that
// takes a user index throws std::invalid_argument("unknown user") for an
// index >= the network's NumUsers(), and every move target is validated the
// same way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "model/assignment.h"
#include "model/evaluator.h"
#include "model/network.h"

namespace wolt::model {

// Objective values maintained by the engine. `log_utility` is the
// proportional-fairness objective: sum over assigned users of
// log(max(throughput, floor)).
struct IncrementalValues {
  double aggregate_mbps = 0.0;
  double log_utility = 0.0;
};

class IncrementalEvaluator {
 public:
  // Matches the floor used by the Phase-II proportional-fair objective.
  static constexpr double kDefaultLogFloorMbps = 1e-3;

  // Builds the engine state from `assign` (validated like
  // Evaluator::Evaluate: assigned users must have positive WiFi rate to a
  // known extender; malformed co-channel options throw as Evaluate does).
  // `net` must outlive the engine. Passing `track_log_utility = false`
  // skips the per-extender log bookkeeping (one transcendental per domain
  // member per move) for searches that only consume the aggregate, and
  // lets a co-channel engine take the kExact regime; log_utility() then
  // throws.
  IncrementalEvaluator(const Network& net, const Assignment& assign,
                       EvalOptions options = {},
                       double log_floor_mbps = kDefaultLogFloorMbps,
                       bool track_log_utility = true);

  // How moves are evaluated; chosen from the inputs (see the file comment).
  enum class Regime { kDelta, kExact, kReevaluate };
  Regime regime() const { return regime_; }

  double aggregate_mbps() const { return values_.aggregate_mbps; }
  double log_utility() const;
  IncrementalValues values() const { return values_; }

  // Number of state-changing ApplyMove calls so far. A user's failed target
  // scan needs no repeat while this is unchanged (peeks do not mutate).
  std::uint64_t mutations() const { return mutations_; }

  int ExtenderOf(std::size_t user) const {
    CheckUser(user);
    return ext_of_[user];
  }
  int Load(std::size_t ext) const { return load_[ext]; }

  // End-to-end throughput of `user` under the current assignment (0 when
  // unassigned or behind a dead backhaul). Non-const: the kReevaluate
  // regime may need to refresh its cached evaluation.
  double UserThroughput(std::size_t user);

  // Move `user` to extender `to`, or detach it with
  // Assignment::kUnassigned. Throws std::invalid_argument for an unknown
  // user, an unknown extender or one the user cannot reach. No-op if `to`
  // is the user's current extender.
  void ApplyMove(std::size_t user, int to);

  // Objective values the assignment would have after moving `user` to
  // `to`, without changing the engine state. Throws like ApplyMove.
  IncrementalValues PeekMove(std::size_t user, int to);

  // Objective values the assignment would have after users u1 and u2
  // (both assigned, on different extenders) traded extenders, without
  // changing the engine state. One recompute per affected PLC domain —
  // cheaper than four ApplyMove calls.
  IncrementalValues PeekSwap(std::size_t u1, std::size_t u2);

  // Convenience: change in aggregate / log-utility caused by the
  // hypothetical move (PeekMove minus current values).
  IncrementalValues MoveDelta(std::size_t user, int to);

  // kExact only (std::logic_error in any other regime): PeekMove(user, to)
  // or PeekSwap(u1, u2) when the move's demand bound exceeds `threshold`,
  // and nullopt when it does not, since the peek's aggregate cannot exceed
  // `threshold` then. The demand bound is the sum, in extender order, of
  // the WiFi demand d_j = n_j / sum_j / peers_j of every active cell with a
  // live backhaul under the hypothetical assignment: bit for bit the
  // in-order sum of Evaluate's wifi_throughput_mbps over those cells. The
  // aggregate sums min(d_j, t_j * c_j) over the same cells in the same
  // order; each term is at most its d_j, and floating-point addition is
  // monotone in each argument, so the bound holds exactly, with no margin.
  // It costs the touched cells' harmonic sums, which the peek then reuses,
  // plus additions from the first cell whose demand the move changes (the
  // committed demands before it are a prefix sum); a move that turns a cell
  // active or idle changes the peer count, and with it the demand, of every
  // cell in that contention domain. Throws like PeekMove / PeekSwap on bad
  // arguments.
  std::optional<IncrementalValues> PeekMoveAbove(std::size_t user, int to,
                                                 double threshold);
  std::optional<IncrementalValues> PeekSwapAbove(std::size_t u1,
                                                 std::size_t u2,
                                                 double threshold);

 private:
  // Throw std::invalid_argument unless `user` is known / `to` is a legal
  // target for it (kUnassigned or a reachable extender).
  void CheckUser(std::size_t user) const;
  void CheckTarget(std::size_t user, int to) const;
  // Airtime shares of one PLC domain's members under options_.plc_sharing.
  void ShareAirtime(const int* members, std::size_t count,
                    const double* demand, double* time_share);
  void RecomputeDomain(std::size_t domain);
  void ContributionOf(std::size_t ext, const double* time_share, double* agg,
                      double* log) const;
  void RefreshWifiDemand(std::size_t ext);
  void RecomputeFallback();
  // Objective values with up to two cells temporarily holding the given
  // (load, wifi_demand); affected domains are recomputed into scratch
  // buffers, committed state is untouched. Cells are processed in order.
  IncrementalValues PeekCells(const std::size_t* cells,
                              const int* peek_load,
                              const double* peek_demand, std::size_t count);

  // kExact: harmonic sum of `cell`'s users with `drop` left out and `add`
  // put in (kNoUser for neither), summed in ascending user order.
  double CellSum(std::size_t cell, std::size_t drop, std::size_t add) const;
  // kExact: Evaluate's per-extender pass over load_ and inv_sum_, writing
  // the active cells per contention domain, each cell's demand and airtime
  // share; returns the aggregate.
  double ExactPass(int* active, double* demand, double* time_share);
  // kExact: ExactPass over the committed state, then the demand prefix sums
  // the bounds start from.
  void CommitExact();
  // kExact: the aggregate with up to two cells temporarily holding the
  // given (load, harmonic sum); committed state is untouched.
  IncrementalValues PeekExact(const std::size_t* cells, const int* peek_load,
                              const double* peek_sum, std::size_t count);
  // kExact: the demand bound with up to two cells holding the given (load,
  // harmonic sum), read against the committed counts and demands.
  double DemandBound(const std::size_t* cells, const int* peek_load,
                     const double* peek_sum, std::size_t count) const;
  // kExact: the cells moving `user` to `to` touches, with their
  // hypothetical loads and harmonic sums; returns how many (<= 2).
  std::size_t ExactMoveCells(std::size_t user, int to, std::size_t* cells,
                             int* peek_load, double* peek_sum) const;
  // kExact: PeekExact unless the demand bound is <= threshold; a move of
  // no cells (count 0) changes nothing.
  std::optional<IncrementalValues> ScreenedPeek(const std::size_t* cells,
                                                const int* peek_load,
                                                const double* peek_sum,
                                                std::size_t count,
                                                double threshold);
  void CheckExact() const;

  static constexpr std::size_t kNoUser = static_cast<std::size_t>(-1);

  const Network* net_;
  EvalOptions options_;
  double log_floor_;
  double log_of_floor_;
  Regime regime_ = Regime::kDelta;
  bool track_log_ = true;
  std::uint64_t mutations_ = 0;
  IncrementalValues values_;

  std::vector<int> ext_of_;

  // --- kDelta and kExact state ------------------------------------------
  std::vector<int> load_;
  std::vector<double> inv_sum_;
  std::vector<double> wifi_demand_;
  std::vector<double> plc_rate_;
  std::vector<double> time_share_;
  std::vector<double> contrib_agg_;  // kDelta only
  std::vector<double> contrib_log_;  // kDelta only
  // 1 / r_ij, row-major; 0 when user i cannot reach extender j.
  std::vector<double> inv_rate_;
  // CSR grouping of extenders by PLC domain.
  std::vector<int> domain_of_;
  std::vector<int> domain_start_;
  std::vector<int> domain_items_;
  std::vector<std::size_t> mm_idx_;  // max-min scratch
  std::vector<double> peek_ts_;      // time-share scratch for peeks

  // --- kExact state ------------------------------------------------------
  // Users of each extender, ascending.
  std::vector<std::vector<std::size_t>> members_;
  std::vector<int> wifi_domain_;     // contention domain per extender
  std::vector<int> wifi_first_;      // lowest extender of each domain
  // Committed active cells per contention domain. Peeks count into
  // peek_active_, so the bounds can read the committed counts after one.
  std::vector<int> wifi_active_;
  std::vector<int> peek_active_;
  std::vector<double> peek_demand_;  // demand scratch for peeks
  // demand_prefix_[j]: in-order sum of the committed wifi_demand_ of the
  // cells before j (0 for idle and dead cells, which adds exactly).
  std::vector<double> demand_prefix_;

  // --- kReevaluate state (the evaluator also resolves kExact's domains) --
  Evaluator evaluator_;
  Assignment mirror_;
  EvalScratch scratch_;
  bool result_stale_ = false;
};

}  // namespace wolt::model
