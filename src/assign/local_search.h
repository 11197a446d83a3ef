// Discrete Phase-II solvers for Problem 2 (WiFi User Assignment Only).
//
// Phase II of WOLT assigns the remaining users U2 = U \ U1 so that the
// aggregate throughput degradation is minimized with the Phase-I users
// fixed. The paper solves a continuous relaxation numerically and proves
// (Theorem 3) the optimum is integral; the proof's exchange argument —
// shifting a user's fractional mass to the extender minimizing
// sum_{i' in N_j} 1/r_i'j + 1/r_ij (Eq. 18) — directly yields the discrete
// method here: marginal-gain greedy insertion followed by single-user
// relocation local search with the paper's 1e-5 improvement stopping rule.
//
// All three objectives are evaluated incrementally per candidate move: the
// WiFi-sum objective via O(1) harmonic-sum deltas, the end-to-end and
// proportional-fair objectives via model::IncrementalEvaluator (O(|PLC
// domain|) per move without co-channel contention, O(cell + E) with it; no
// allocations). No full evaluator run happens inside the relocate/swap
// inner loops, except when users carry demands or the proportional-fair
// objective runs under co-channel contention (the engine's kReevaluate
// regime). Under co-channel contention the end-to-end search reads the
// engine's exact demand bound first and does not peek a move whose bound
// cannot pass the acceptance test; such a move could not be accepted, so
// the search visits, accepts and rejects the same moves, and tallies it as
// pruned.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "model/assignment.h"
#include "model/evaluator.h"
#include "model/network.h"
#include "model/soa.h"
#include "util/arena.h"
#include "util/deadline.h"

namespace wolt::util {
class ThreadPool;
}  // namespace wolt::util

namespace wolt::assign {

// Which objective the insertion/relocation maximizes.
enum class Phase2Objective {
  // Problem 2's objective: sum of per-extender WiFi throughputs (Eq. 14).
  kWifiSum,
  // Extension: full end-to-end aggregate min(T_WiFi, T_PLC) — more
  // expensive per move but aware of PLC bottlenecks (ablation Abl-2).
  kEndToEnd,
  // Extension: proportional fairness — sum of log per-user end-to-end
  // throughputs over assigned users. Trades a little aggregate for much
  // better Jain fairness (the fairness direction §V-D leaves open).
  kProportionalFair,
};

struct LocalSearchOptions {
  Phase2Objective objective = Phase2Objective::kWifiSum;
  // Stop when a full relocation pass improves the objective by less than
  // this (the paper's interior-point stopping criterion, §IV-B).
  double improvement_tolerance = 1e-5;
  std::size_t max_passes = 100;
  // Also try exchanging the extenders of pairs of movable users. Escapes
  // the local optima single-user relocation cannot (two users parked on
  // each other's best extender).
  bool swap_moves = true;
  model::EvalOptions eval;  // used only for kEndToEnd / kProportionalFair
  // Optional per-extender availability mask (the subset search's activation
  // restriction): empty means every extender is allowed; otherwise size
  // NumExtenders(), and only extenders with a non-zero entry are placement
  // targets. The span must stay valid for the duration of the call.
  std::span<const std::uint8_t> extender_mask;
  // Optional cooperative wall-clock budget (null = unlimited), polled once
  // per user scan / insertion. On expiry the search stops and returns its
  // best-so-far assignment — always valid, possibly not locally optimal.
  // An unexpired deadline never alters the result.
  const util::Deadline* deadline = nullptr;
  // Optional prebuilt SoA view of the network. When it matches the network's
  // current version, the search borrows its reciprocal-rate matrix instead
  // of rebuilding the O(U x E) placement tables per call. Stale or null
  // views are ignored (the tables are built locally).
  const model::NetworkSoA* soa = nullptr;
  // Optional scratch arena for the search state (per-extender accumulators,
  // memos, swap aggregates). The search only allocates, never resets: a
  // caller that resets the arena between solves runs them allocation-free
  // in steady state. Null = a call-local arena.
  util::SolverArena* arena = nullptr;
  // In-solve parallelism: when non-null, SolvePhase2MultiStart runs its
  // unique starts concurrently on this pool and merges deterministically by
  // start index — byte-identical to the serial path at any thread count
  // (provided the deadline does not expire mid-solve; expiry degrades to
  // valid best-so-far results whose identity depends on timing, exactly as
  // it does serially). The pool outlives the call; a size-1 pool runs
  // entirely on the caller.
  util::ThreadPool* pool = nullptr;
  // Per-start scratch arenas for the parallel path (each concurrent start
  // needs its own). Grown to the start count on demand and reset per start;
  // a caller that keeps the deque alive across solves makes the parallel
  // starts allocation-free in steady state. Null = call-local arenas.
  std::deque<util::SolverArena>* start_arenas = nullptr;
};

// Objective value of a (possibly partial) assignment under the selected
// Phase-II objective.
double Phase2Value(const model::Network& net, const model::Assignment& assign,
                   Phase2Objective objective, const model::EvalOptions& eval);

// Insert each user of `users` (in the given order) at the extender that
// maximizes the objective increase, respecting reachability and B_j.
// Modifies `assign` in place. Users already assigned are skipped.
void GreedyInsert(const model::Network& net, model::Assignment& assign,
                  const std::vector<std::size_t>& users,
                  const LocalSearchOptions& options = {});

struct LocalSearchStats {
  std::size_t passes = 0;
  std::size_t moves = 0;
  double initial_value = 0.0;
  double final_value = 0.0;
  // True iff the search stopped early because options.deadline expired.
  bool deadline_hit = false;
};

// Repeatedly relocate single users from `movable` to better extenders until
// no move improves the objective by more than the tolerance.
LocalSearchStats RelocateLocalSearch(const model::Network& net,
                                     model::Assignment& assign,
                                     const std::vector<std::size_t>& movable,
                                     const LocalSearchOptions& options = {});

// Full Phase-II solve with multi-start: greedy insertion of `movable` under
// several orderings (given order, best-rate-descending, best-rate-ascending),
// each followed by relocation/swap local search; the best result is written
// back into `assign`. Users already assigned in `assign` are held fixed.
// Returns the best objective value found.
double SolvePhase2MultiStart(const model::Network& net,
                             model::Assignment& assign,
                             const std::vector<std::size_t>& movable,
                             const LocalSearchOptions& options = {});

}  // namespace wolt::assign
