#include "core/wolt.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "assign/hungarian.h"
#include "assign/nlp.h"

namespace wolt::core {
namespace {

bool MaskAllows(std::span<const std::uint8_t> mask, std::size_t ext) {
  return mask.empty() || mask[ext] != 0;
}

// Extenders eligible for Phase I: enabled by the mask, live PLC link, and
// at least one user that can hear them.
std::vector<std::size_t> ServiceableExtenders(
    const model::Network& net, std::span<const std::uint8_t> mask) {
  std::vector<std::size_t> extenders;
  for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
    if (!MaskAllows(mask, j)) continue;
    if (net.PlcRate(j) <= 0.0) continue;
    bool reachable = false;
    for (std::size_t i = 0; i < net.NumUsers(); ++i) {
      if (net.WifiRate(i, j) > 0.0) {
        reachable = true;
        break;
      }
    }
    if (reachable) extenders.push_back(j);
  }
  return extenders;
}

// A user counts as reachable when some enabled extender hears it.
bool ReachableUnderMask(const model::Network& net, std::size_t user,
                        std::span<const std::uint8_t> mask) {
  if (mask.empty()) return net.UserReachable(user);
  for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
    if (mask[j] && net.WifiRate(user, j) > 0.0) return true;
  }
  return false;
}

// Greedy insertion leaves a user out when every extender it can use is
// full, and relocation can then free a slot at one of them. Re-insert such
// users and relocate again until none of `users` is left out while an
// extender it can use has room, so a reachable user is never stranded
// beside a free slot (constraint (7)). Networks without B_j caps never
// have such users, and this costs them one scan.
void InsertStranded(const model::Network& net, model::Assignment& assign,
                    const std::vector<std::size_t>& users,
                    const assign::LocalSearchOptions& ls) {
  std::vector<std::size_t> stranded;
  for (;;) {
    const std::vector<int> load = assign.LoadVector(net.NumExtenders());
    stranded.clear();
    for (std::size_t user : users) {
      if (assign.IsAssigned(user)) continue;
      for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
        const int cap = net.MaxUsers(j);
        if (MaskAllows(ls.extender_mask, j) && net.PlcRate(j) > 0.0 &&
            net.WifiRate(user, j) > 0.0 && (cap == 0 || load[j] < cap)) {
          stranded.push_back(user);
          break;
        }
      }
    }
    if (stranded.empty()) return;
    const std::size_t placed = assign.AssignedCount();
    assign::GreedyInsert(net, assign, stranded, ls);
    // Only an expired deadline places nobody here; stop rather than spin.
    if (assign.AssignedCount() == placed) return;
    assign::RelocateLocalSearch(net, assign, users, ls);
  }
}

}  // namespace

Phase1Result WoltPolicy::ComputePhase1(const model::Network& net) const {
  return ComputePhase1(net, {});
}

Phase1Result WoltPolicy::ComputePhase1(
    const model::Network& net, std::span<const std::uint8_t> mask) const {
  // Phase I opens a solve: rewind the solve arena so this solve's scratch
  // (Hungarian workspace, then the Phase-II search state stacked on top)
  // reuses the blocks warmed by earlier solves.
  arena_.Reset();

  Phase1Result result;
  result.user_of_extender.assign(net.NumExtenders(), -1);

  const std::vector<std::size_t> extenders = ServiceableExtenders(net, mask);
  const std::size_t num_users = net.NumUsers();
  if (extenders.empty() || num_users == 0) return result;

  // Alg. 1 lines 1-3: task utilities. |A| is the number of extenders that
  // participate in the assignment within the extender's own PLC contention
  // domain (all of them are active in the modified problem by
  // construction; with the paper's single domain this is just the total).
  std::vector<double> domain_count;
  for (std::size_t j : extenders) {
    const std::size_t d = static_cast<std::size_t>(net.PlcDomain(j));
    if (d >= domain_count.size()) domain_count.resize(d + 1, 0.0);
    domain_count[d] += 1.0;
  }
  const auto utility = [&](std::size_t user, std::size_t ext) {
    const double r = net.WifiRate(user, ext);
    if (r <= 0.0) return assign::kForbidden;
    if (options_.phase1_utility == Phase1Utility::kWifiOnly) return r;
    const double peers =
        domain_count[static_cast<std::size_t>(net.PlcDomain(ext))];
    return std::min(net.PlcRate(ext) / peers, r);
  };

  // Per-extender PLC share, hoisted out of the O(rows x cols) matrix fill
  // (the division and domain lookup are invariant per extender). +inf makes
  // the min() below collapse to the raw WiFi rate, reproducing kWifiOnly
  // without a branch in the inner loop.
  std::vector<double> share(extenders.size());
  for (std::size_t k = 0; k < extenders.size(); ++k) {
    const std::size_t ext = extenders[k];
    share[k] =
        options_.phase1_utility == Phase1Utility::kWifiOnly
            ? std::numeric_limits<double>::infinity()
            : net.PlcRate(ext) /
                  domain_count[static_cast<std::size_t>(net.PlcDomain(ext))];
  }

  // Hungarian needs rows <= cols; transpose when users are the scarce side.
  // Either way the fill walks each user's contiguous rate row exactly once.
  const bool extenders_are_rows = extenders.size() <= num_users;
  const std::size_t rows =
      extenders_are_rows ? extenders.size() : num_users;
  const std::size_t cols =
      extenders_are_rows ? num_users : extenders.size();
  assign::Matrix utilities(rows, cols, 0.0);
  if (extenders_are_rows) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double* rates = net.WifiRateRow(c);
      for (std::size_t r = 0; r < rows; ++r) {
        const double rate = rates[extenders[r]];
        utilities(r, c) =
            rate <= 0.0 ? assign::kForbidden : std::min(share[r], rate);
      }
    }
  } else {
    for (std::size_t r = 0; r < rows; ++r) {
      const double* rates = net.WifiRateRow(r);
      double* out = utilities.Row(r);
      for (std::size_t c = 0; c < cols; ++c) {
        const double rate = rates[extenders[c]];
        out[c] = rate <= 0.0 ? assign::kForbidden : std::min(share[c], rate);
      }
    }
  }

  const assign::HungarianResult hungarian =
      assign::SolveAssignmentMax(utilities, deadline_, &arena_);
  result.deadline_hit = hungarian.deadline_hit;
  result.total_utility = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    if (hungarian.col_of_row[r] < 0) continue;  // deadline-truncated row
    const std::size_t c = static_cast<std::size_t>(hungarian.col_of_row[r]);
    const std::size_t user = extenders_are_rows ? c : r;
    const std::size_t ext = extenders_are_rows ? extenders[r] : extenders[c];
    if (net.WifiRate(user, ext) <= 0.0) continue;  // forbidden fallback pick
    result.user_of_extender[ext] = static_cast<int>(user);
    result.u1_users.push_back(user);
    result.total_utility += utility(user, ext);
  }
  std::sort(result.u1_users.begin(), result.u1_users.end());
  return result;
}

model::Assignment WoltPolicy::Associate(const model::Network& net,
                                        const model::Assignment& previous) {
  if (previous.NumUsers() != net.NumUsers()) {
    throw std::invalid_argument("previous assignment size mismatch");
  }
  if (options_.subset_search) return AssociateSubsetSearch(net, previous);
  return AssociateOnce(net, previous, {});
}

model::Assignment WoltPolicy::AssociateSubsetSearch(
    const model::Network& net, const model::Assignment& previous) {
  // Rank extenders by PLC rate; candidate k keeps the k strongest links
  // enabled via an activation mask so neither phase can use the rest (no
  // per-candidate Network copy). The candidate with the best true aggregate
  // wins; leftover users (only reachable via excluded extenders) are
  // re-inserted on the full network afterwards so constraint (7) still
  // holds.
  std::vector<std::size_t> order;
  for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
    if (net.PlcRate(j) > 0.0) order.push_back(j);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return net.PlcRate(a) > net.PlcRate(b);
  });

  const model::Evaluator evaluator(options_.eval);
  model::EvalScratch scratch;
  model::Assignment best(net.NumUsers());
  double best_aggregate = -1.0;
  std::vector<std::uint8_t> mask(net.NumExtenders(), 0);
  for (std::size_t k = 1; k <= order.size(); ++k) {
    // Always evaluate the first candidate (every inner solver truncates
    // internally on expiry, so a result always exists); skip the rest of
    // the activation ladder once the budget is gone.
    if (k > 1 && util::DeadlineExpired(deadline_)) break;
    mask[order[k - 1]] = 1;  // masks are nested: candidate k adds one link
    model::Assignment candidate = AssociateOnce(net, previous, mask);
    const double aggregate =
        evaluator.Evaluate(net, candidate, scratch).aggregate_mbps;
    if (aggregate > best_aggregate) {
      best_aggregate = aggregate;
      best = std::move(candidate);
    }
  }

  // Connect users the winning candidate had to leave out, then polish the
  // whole assignment against the true end-to-end aggregate (the subset
  // prefixes are ranked by PLC rate only; geography can make a non-prefix
  // activation set better, which single-user moves recover).
  assign::LocalSearchOptions polish;
  polish.objective = assign::Phase2Objective::kEndToEnd;
  polish.eval = options_.eval;
  polish.deadline = deadline_;
  soa_.Refresh(net);
  polish.soa = &soa_;
  polish.arena = &arena_;
  std::vector<std::size_t> leftover;
  std::vector<std::size_t> everyone;
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    if (!net.UserReachable(i)) continue;
    everyone.push_back(i);
    if (!best.IsAssigned(i)) leftover.push_back(i);
  }
  if (!leftover.empty()) {
    GreedyInsert(net, best, leftover, polish);
  }
  assign::RelocateLocalSearch(net, best, everyone, polish);
  InsertStranded(net, best, everyone, polish);
  return best;
}

model::Assignment WoltPolicy::AssociateOnce(
    const model::Network& net, const model::Assignment& previous,
    std::span<const std::uint8_t> mask) {
  // Phase I: seed each extender with its Hungarian-selected user.
  const Phase1Result phase1 = ComputePhase1(net, mask);
  model::Assignment assign(net.NumUsers());
  for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
    const int user = phase1.user_of_extender[j];
    if (user >= 0) assign.Assign(static_cast<std::size_t>(user), j);
  }

  // Phase II: place U2 = everyone not chosen in Phase I.
  std::vector<std::size_t> u2;
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    if (!assign.IsAssigned(i) && ReachableUnderMask(net, i, mask)) {
      u2.push_back(i);
    }
  }

  if (options_.use_nlp_phase2) {
    assign::NlpOptions nlp_options;
    nlp_options.deadline = deadline_;
    if (mask.empty()) {
      const assign::NlpResult nlp =
          assign::SolvePhase2Nlp(net, assign, u2, nlp_options);
      return nlp.rounded;
    }
    // The projected-gradient solver has no activation-mask concept; blank
    // the masked-out extenders from a network copy (rare path: NLP inside
    // the subset search).
    model::Network masked = net;
    for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
      if (mask[j]) continue;
      for (std::size_t i = 0; i < net.NumUsers(); ++i) {
        masked.SetWifiRate(i, j, 0.0);
      }
    }
    const assign::NlpResult nlp =
        assign::SolvePhase2Nlp(masked, assign, u2, nlp_options);
    return nlp.rounded;
  }

  assign::LocalSearchOptions ls;
  ls.objective = options_.phase2_objective;
  ls.eval = options_.eval;
  ls.extender_mask = mask;
  ls.deadline = deadline_;
  // Data-oriented hot path: the search borrows the cached SoA view (rebuilt
  // only when the network changed) and stacks its scratch on the solve
  // arena Phase I already opened. Steady-state solves touch no heap.
  soa_.Refresh(net);
  ls.soa = &soa_;
  ls.arena = &arena_;
  ls.pool = options_.phase2_pool;
  ls.start_arenas = &start_arenas_;

  bool seeded = false;
  if (options_.sticky) {
    // Persisting users keep their extender as the Phase-II starting point;
    // local search then only moves them for material gain. This is what
    // bounds per-epoch churn (Fig. 6c).
    std::vector<int> load = assign.LoadVector(net.NumExtenders());
    for (std::size_t user : u2) {
      const int prev = previous.ExtenderOf(user);
      if (prev == model::Assignment::kUnassigned) continue;
      const std::size_t ext = static_cast<std::size_t>(prev);
      // A previous extender that became unreachable, masked out of the
      // candidate activation set, or whose power-line link died is not a
      // valid seed — the user re-enters as an arrival.
      if (!MaskAllows(mask, ext)) continue;
      if (net.WifiRate(user, ext) <= 0.0 || net.PlcRate(ext) <= 0.0) continue;
      const int cap = net.MaxUsers(ext);
      if (cap > 0 && load[ext] >= cap) continue;
      assign.Assign(user, ext);
      ++load[ext];
      seeded = true;
    }
  }

  if (seeded) {
    // Sticky path: single start from the carried-over configuration.
    GreedyInsert(net, assign, u2, ls);
    if (options_.local_search) {
      assign::RelocateLocalSearch(net, assign, u2, ls);
    }
  } else if (options_.local_search) {
    assign::SolvePhase2MultiStart(net, assign, u2, ls);
  } else {
    GreedyInsert(net, assign, u2, ls);
  }
  // Only relocation frees slots, so greedy insertion alone strands nobody.
  if (options_.local_search) InsertStranded(net, assign, u2, ls);
  return assign;
}

assign::JointAssociator WoltJointAssociator(WoltOptions base) {
  base.phase2_objective = assign::Phase2Objective::kEndToEnd;
  return [base](const model::Network& net, const model::EvalOptions& eval,
                const model::Assignment& previous,
                const util::Deadline* deadline) {
    WoltOptions o = base;
    o.eval = eval;
    WoltPolicy policy(o);
    policy.SetDeadline(deadline);
    return policy.Associate(net, previous);
  };
}

}  // namespace wolt::core
