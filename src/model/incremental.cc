#include "model/incremental.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wolt::model {

IncrementalEvaluator::IncrementalEvaluator(const Network& net,
                                           const Assignment& assign,
                                           EvalOptions options,
                                           double log_floor_mbps,
                                           bool track_log_utility)
    : net_(&net),
      options_(std::move(options)),
      log_floor_(log_floor_mbps),
      log_of_floor_(std::log(log_floor_mbps)),
      track_log_(track_log_utility),
      evaluator_(options_) {
  if (assign.NumUsers() != net.NumUsers()) {
    throw std::invalid_argument("assignment/network user count mismatch");
  }
  const std::size_t num_users = net.NumUsers();
  const std::size_t num_ext = net.NumExtenders();

  // Per-extender state describes a cell only for saturated users: any
  // finite demand (even on a currently unassigned user — it could be moved
  // in later) forces a full re-evaluation per move. Co-channel coupling
  // takes the exact regime, which keeps the aggregate only.
  const bool co_channel = !options_.wifi_contention_domain.empty() ||
                          !options_.wifi_channel.empty();
  bool any_demand = false;
  for (std::size_t i = 0; i < num_users && !any_demand; ++i) {
    any_demand = net.UserDemand(i) > 0.0;
  }
  regime_ = any_demand || (co_channel && track_log_) ? Regime::kReevaluate
            : co_channel                            ? Regime::kExact
                                                    : Regime::kDelta;

  ext_of_.assign(num_users, Assignment::kUnassigned);
  for (std::size_t i = 0; i < num_users; ++i) {
    ext_of_[i] = assign.ExtenderOf(i);
  }
  load_.assign(num_ext, 0);

  if (regime_ == Regime::kReevaluate) {
    mirror_ = assign;
    for (std::size_t i = 0; i < num_users; ++i) {
      const int e = ext_of_[i];
      if (e >= 0) ++load_[static_cast<std::size_t>(e)];
    }
    RecomputeFallback();
    return;
  }

  inv_rate_.assign(num_users * num_ext, 0.0);
  for (std::size_t i = 0; i < num_users; ++i) {
    double* inv = &inv_rate_[i * num_ext];
    for (std::size_t j = 0; j < num_ext; ++j) {
      const double r = net.WifiRate(i, j);
      if (r > 0.0) inv[j] = 1.0 / r;
    }
  }

  // In ascending user order, as Evaluate sums them (kExact relies on it).
  inv_sum_.assign(num_ext, 0.0);
  if (regime_ == Regime::kExact) members_.assign(num_ext, {});
  for (std::size_t i = 0; i < num_users; ++i) {
    const int e = ext_of_[i];
    if (e == Assignment::kUnassigned) continue;
    if (e < 0 || static_cast<std::size_t>(e) >= num_ext) {
      throw std::invalid_argument("assignment references unknown extender");
    }
    const double inv = inv_rate_[i * num_ext + static_cast<std::size_t>(e)];
    if (inv <= 0.0) {
      throw std::invalid_argument("user assigned to unreachable extender");
    }
    ++load_[static_cast<std::size_t>(e)];
    inv_sum_[static_cast<std::size_t>(e)] += inv;
    if (regime_ == Regime::kExact) {
      members_[static_cast<std::size_t>(e)].push_back(i);
    }
  }

  plc_rate_.assign(num_ext, 0.0);
  wifi_demand_.assign(num_ext, 0.0);
  for (std::size_t j = 0; j < num_ext; ++j) {
    plc_rate_[j] = net.PlcRate(j);
    if (regime_ == Regime::kDelta) RefreshWifiDemand(j);
  }

  // CSR grouping of extenders by PLC domain (counting sort, ascending
  // extender order within a domain — the same member order the full
  // evaluator uses, so airtime arithmetic matches bit for bit).
  std::size_t num_domains = 0;
  domain_of_.assign(num_ext, 0);
  for (std::size_t j = 0; j < num_ext; ++j) {
    const int d = net.PlcDomain(j);
    domain_of_[j] = d;
    num_domains = std::max(num_domains, static_cast<std::size_t>(d) + 1);
  }
  domain_start_.assign(num_domains + 1, 0);
  for (std::size_t j = 0; j < num_ext; ++j) {
    ++domain_start_[static_cast<std::size_t>(domain_of_[j]) + 1];
  }
  for (std::size_t d = 0; d < num_domains; ++d) {
    domain_start_[d + 1] += domain_start_[d];
  }
  domain_items_.assign(num_ext, 0);
  std::vector<int> cursor(num_domains, 0);
  for (std::size_t j = 0; j < num_ext; ++j) {
    const std::size_t d = static_cast<std::size_t>(domain_of_[j]);
    domain_items_[static_cast<std::size_t>(domain_start_[d] + cursor[d]++)] =
        static_cast<int>(j);
  }

  time_share_.assign(num_ext, 0.0);
  mm_idx_.assign(num_ext, 0);
  peek_ts_.assign(num_ext, 0.0);
  values_ = IncrementalValues{};

  if (regime_ == Regime::kExact) {
    wifi_domain_ = *evaluator_.ResolveWifiDomains(net, scratch_);
    int max_domain = -1;
    for (int d : wifi_domain_) max_domain = std::max(max_domain, d);
    const std::size_t num_wifi = static_cast<std::size_t>(max_domain + 1);
    wifi_first_.assign(num_wifi, 0);
    for (std::size_t j = num_ext; j-- > 0;) {
      wifi_first_[static_cast<std::size_t>(wifi_domain_[j])] =
          static_cast<int>(j);
    }
    wifi_active_.assign(num_wifi, 0);
    peek_active_.assign(num_wifi, 0);
    peek_demand_.assign(num_ext, 0.0);
    demand_prefix_.assign(num_ext + 1, 0.0);
    CommitExact();
    return;
  }

  contrib_agg_.assign(num_ext, 0.0);
  contrib_log_.assign(num_ext, 0.0);
  for (std::size_t d = 0; d < num_domains; ++d) RecomputeDomain(d);
}

double IncrementalEvaluator::log_utility() const {
  if (!track_log_) {
    throw std::logic_error(
        "log_utility() on an engine built with track_log_utility = false");
  }
  return values_.log_utility;
}

void IncrementalEvaluator::RefreshWifiDemand(std::size_t ext) {
  wifi_demand_[ext] = (load_[ext] > 0 && plc_rate_[ext] > 0.0)
                          ? static_cast<double>(load_[ext]) / inv_sum_[ext]
                          : 0.0;
}

void IncrementalEvaluator::ContributionOf(std::size_t ext,
                                          const double* time_share,
                                          double* agg, double* log) const {
  *agg = 0.0;
  *log = 0.0;
  const int n = load_[ext];
  if (n == 0) return;
  if (plc_rate_[ext] <= 0.0) {
    // Dead backhaul: users are stuck at zero end-to-end throughput; the
    // proportional-fair objective floors them.
    if (track_log_) *log = static_cast<double>(n) * log_of_floor_;
    return;
  }
  const double end_to_end =
      std::min(wifi_demand_[ext], time_share[ext] * plc_rate_[ext]);
  *agg = end_to_end;
  if (track_log_) {
    const double per_user = end_to_end / static_cast<double>(n);
    *log = static_cast<double>(n) * std::log(std::max(per_user, log_floor_));
  }
}

void IncrementalEvaluator::ShareAirtime(const int* members,
                                        std::size_t count,
                                        const double* demand,
                                        double* time_share) {
  switch (options_.plc_sharing) {
    case PlcSharing::kMaxMinActive:
      detail::MaxMinSharesInPlace(members, count, plc_rate_.data(), demand,
                                  time_share, mm_idx_.data());
      break;
    case PlcSharing::kEqualActive:
      detail::EqualSharesInPlace(members, count, demand, time_share,
                                 /*denominator_all=*/false);
      break;
    case PlcSharing::kEqualAll:
      detail::EqualSharesInPlace(members, count, demand, time_share,
                                 /*denominator_all=*/true);
      break;
  }
}

void IncrementalEvaluator::RecomputeDomain(std::size_t domain) {
  const std::size_t begin = static_cast<std::size_t>(domain_start_[domain]);
  const std::size_t count =
      static_cast<std::size_t>(domain_start_[domain + 1]) - begin;
  if (count == 0) return;
  const int* members = domain_items_.data() + begin;

  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t j = static_cast<std::size_t>(members[k]);
    values_.aggregate_mbps -= contrib_agg_[j];
    values_.log_utility -= contrib_log_[j];
  }

  ShareAirtime(members, count, wifi_demand_.data(), time_share_.data());

  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t j = static_cast<std::size_t>(members[k]);
    ContributionOf(j, time_share_.data(), &contrib_agg_[j], &contrib_log_[j]);
    values_.aggregate_mbps += contrib_agg_[j];
    values_.log_utility += contrib_log_[j];
  }
}

IncrementalValues IncrementalEvaluator::PeekCells(const std::size_t* cells,
                                                  const int* peek_load,
                                                  const double* peek_demand,
                                                  std::size_t count) {
  // Temporarily install the hypothetical (load, wifi_demand) of the touched
  // cells; everything below reads only those two arrays plus plc_rate_.
  int saved_load[2];
  double saved_demand[2];
  for (std::size_t k = 0; k < count; ++k) {
    saved_load[k] = load_[cells[k]];
    saved_demand[k] = wifi_demand_[cells[k]];
    load_[cells[k]] = peek_load[k];
    wifi_demand_[cells[k]] = peek_demand[k];
  }

  IncrementalValues peeked = values_;
  const int d0 = domain_of_[cells[0]];
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t d = static_cast<std::size_t>(domain_of_[cells[k]]);
    if (k > 0 && static_cast<int>(d) == d0) continue;  // already recomputed
    const std::size_t begin = static_cast<std::size_t>(domain_start_[d]);
    const std::size_t n =
        static_cast<std::size_t>(domain_start_[d + 1]) - begin;
    const int* members = domain_items_.data() + begin;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = static_cast<std::size_t>(members[i]);
      peeked.aggregate_mbps -= contrib_agg_[j];
      peeked.log_utility -= contrib_log_[j];
    }
    ShareAirtime(members, n, wifi_demand_.data(), peek_ts_.data());
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = static_cast<std::size_t>(members[i]);
      double agg = 0.0, lg = 0.0;
      ContributionOf(j, peek_ts_.data(), &agg, &lg);
      peeked.aggregate_mbps += agg;
      peeked.log_utility += lg;
    }
  }

  for (std::size_t k = 0; k < count; ++k) {
    load_[cells[k]] = saved_load[k];
    wifi_demand_[cells[k]] = saved_demand[k];
  }
  return peeked;
}

double IncrementalEvaluator::CellSum(std::size_t cell, std::size_t drop,
                                     std::size_t add) const {
  const std::size_t num_ext = load_.size();
  const double* inv = inv_rate_.data() + cell;
  double sum = 0.0;
  for (const std::size_t u : members_[cell]) {
    if (add < u) {  // kNoUser is never below a user index
      sum += inv[add * num_ext];
      add = kNoUser;
    }
    if (u != drop) sum += inv[u * num_ext];
  }
  if (add != kNoUser) sum += inv[add * num_ext];
  return sum;
}

double IncrementalEvaluator::ExactPass(int* active, double* demand,
                                       double* time_share) {
  // Evaluator::Evaluate's saturated arithmetic, expression for expression
  // and in its order, so every value matches it bit for bit.
  const std::size_t num_ext = load_.size();
  std::fill(active, active + wifi_active_.size(), 0);
  for (std::size_t j = 0; j < num_ext; ++j) {
    if (load_[j] > 0) ++active[static_cast<std::size_t>(wifi_domain_[j])];
  }
  for (std::size_t j = 0; j < num_ext; ++j) {
    demand[j] = 0.0;
    if (load_[j] == 0 || plc_rate_[j] <= 0.0) continue;
    const double peers = static_cast<double>(
        active[static_cast<std::size_t>(wifi_domain_[j])]);
    demand[j] = static_cast<double>(load_[j]) / inv_sum_[j] / peers;
  }
  for (std::size_t d = 0; d + 1 < domain_start_.size(); ++d) {
    const std::size_t begin = static_cast<std::size_t>(domain_start_[d]);
    const std::size_t count =
        static_cast<std::size_t>(domain_start_[d + 1]) - begin;
    if (count == 0) continue;
    ShareAirtime(domain_items_.data() + begin, count, demand, time_share);
  }
  double aggregate = 0.0;
  for (std::size_t j = 0; j < num_ext; ++j) {
    if (load_[j] == 0 || plc_rate_[j] <= 0.0) continue;
    aggregate += std::min(demand[j], time_share[j] * plc_rate_[j]);
  }
  return aggregate;
}

IncrementalValues IncrementalEvaluator::PeekExact(const std::size_t* cells,
                                                  const int* peek_load,
                                                  const double* peek_sum,
                                                  std::size_t count) {
  int saved_load[2];
  double saved_sum[2];
  for (std::size_t k = 0; k < count; ++k) {
    saved_load[k] = load_[cells[k]];
    saved_sum[k] = inv_sum_[cells[k]];
    load_[cells[k]] = peek_load[k];
    inv_sum_[cells[k]] = peek_sum[k];
  }
  IncrementalValues peeked;
  peeked.aggregate_mbps =
      ExactPass(peek_active_.data(), peek_demand_.data(), peek_ts_.data());
  for (std::size_t k = 0; k < count; ++k) {
    load_[cells[k]] = saved_load[k];
    inv_sum_[cells[k]] = saved_sum[k];
  }
  return peeked;
}

void IncrementalEvaluator::CommitExact() {
  values_.aggregate_mbps =
      ExactPass(wifi_active_.data(), wifi_demand_.data(), time_share_.data());
  for (std::size_t j = 0; j < wifi_demand_.size(); ++j) {
    demand_prefix_[j + 1] = demand_prefix_[j] + wifi_demand_[j];
  }
}

double IncrementalEvaluator::DemandBound(const std::size_t* cells,
                                         const int* peek_load,
                                         const double* peek_sum,
                                         std::size_t count) const {
  // The contention domains whose active count the move changes, and by
  // how much; a cell emptied and one filled in the same domain cancel.
  int changed[2] = {-1, -1};
  int step[2] = {0, 0};
  for (std::size_t k = 0; k < count; ++k) {
    const int delta =
        (peek_load[k] > 0 ? 1 : 0) - (load_[cells[k]] > 0 ? 1 : 0);
    if (delta == 0) continue;
    const int d = wifi_domain_[cells[k]];
    const std::size_t c = changed[0] < 0 || changed[0] == d ? 0 : 1;
    changed[c] = d;
    step[c] += delta;
  }
  const auto peer_step = [&](std::size_t j) {
    const int d = wifi_domain_[j];
    return d == changed[0] ? step[0] : d == changed[1] ? step[1] : 0;
  };
  const auto demand = [&](std::size_t j, int load, double sum) {
    if (load == 0 || plc_rate_[j] <= 0.0) return 0.0;
    const int peers =
        wifi_active_[static_cast<std::size_t>(wifi_domain_[j])] + peer_step(j);
    return static_cast<double>(load) / sum / static_cast<double>(peers);
  };

  // From the first cell whose demand the move changes: a touched cell, or
  // the first cell of a domain whose peer count it changes.
  double touched[2] = {0.0, 0.0};
  std::size_t start = cells[0];
  for (std::size_t k = 0; k < count; ++k) {
    start = std::min(start, cells[k]);
    touched[k] = demand(cells[k], peek_load[k], peek_sum[k]);
  }
  for (std::size_t c = 0; c < 2; ++c) {
    if (step[c] == 0) continue;
    start = std::min(start, static_cast<std::size_t>(
                                wifi_first_[static_cast<std::size_t>(
                                    changed[c])]));
  }
  // Idle and dead cells add +0.0, which leaves the sum unchanged.
  double bound = demand_prefix_[start];
  for (std::size_t j = start; j < load_.size(); ++j) {
    if (j == cells[0]) {
      bound += touched[0];
    } else if (count == 2 && j == cells[1]) {
      bound += touched[1];
    } else if (peer_step(j) == 0) {
      bound += wifi_demand_[j];
    } else {
      bound += demand(j, load_[j], inv_sum_[j]);
    }
  }
  return bound;
}

void IncrementalEvaluator::CheckExact() const {
  if (regime_ != Regime::kExact) {
    throw std::logic_error("demand bound outside the kExact regime");
  }
}

std::size_t IncrementalEvaluator::ExactMoveCells(std::size_t user, int to,
                                                 std::size_t* cells,
                                                 int* peek_load,
                                                 double* peek_sum) const {
  const int from = ext_of_[user];
  std::size_t count = 0;
  if (from != Assignment::kUnassigned) {
    const std::size_t f = static_cast<std::size_t>(from);
    cells[count] = f;
    peek_load[count] = load_[f] - 1;
    peek_sum[count] = CellSum(f, user, kNoUser);
    ++count;
  }
  if (to != Assignment::kUnassigned) {
    const std::size_t t = static_cast<std::size_t>(to);
    cells[count] = t;
    peek_load[count] = load_[t] + 1;
    peek_sum[count] = CellSum(t, kNoUser, user);
    ++count;
  }
  return count;
}

void IncrementalEvaluator::RecomputeFallback() {
  const EvalResult& result = evaluator_.Evaluate(*net_, mirror_, scratch_);
  values_.aggregate_mbps = result.aggregate_mbps;
  double logsum = 0.0;
  for (std::size_t i = 0; i < mirror_.NumUsers(); ++i) {
    if (!mirror_.IsAssigned(i)) continue;
    logsum +=
        std::log(std::max(result.user_throughput_mbps[i], log_floor_));
  }
  values_.log_utility = logsum;
  result_stale_ = false;
}

void IncrementalEvaluator::CheckUser(std::size_t user) const {
  if (user >= ext_of_.size()) throw std::invalid_argument("unknown user");
}

void IncrementalEvaluator::CheckTarget(std::size_t user, int to) const {
  if (to == Assignment::kUnassigned) return;
  const std::size_t num_ext = load_.size();
  if (to < 0 || static_cast<std::size_t>(to) >= num_ext) {
    throw std::invalid_argument("move references unknown extender");
  }
  const std::size_t t = static_cast<std::size_t>(to);
  const bool reachable = regime_ == Regime::kReevaluate
                             ? net_->WifiRate(user, t) > 0.0
                             : inv_rate_[user * num_ext + t] > 0.0;
  if (!reachable) throw std::invalid_argument("move to unreachable extender");
}

double IncrementalEvaluator::UserThroughput(std::size_t user) {
  CheckUser(user);
  const int e = ext_of_[user];
  if (e == Assignment::kUnassigned) return 0.0;
  if (regime_ == Regime::kReevaluate) {
    if (result_stale_) RecomputeFallback();
    return scratch_.result.user_throughput_mbps[user];
  }
  const std::size_t j = static_cast<std::size_t>(e);
  if (plc_rate_[j] <= 0.0) return 0.0;
  const double end_to_end =
      std::min(wifi_demand_[j], time_share_[j] * plc_rate_[j]);
  return end_to_end / static_cast<double>(load_[j]);
}

void IncrementalEvaluator::ApplyMove(std::size_t user, int to) {
  CheckUser(user);
  const int from = ext_of_[user];
  if (to == from) return;
  CheckTarget(user, to);
  ++mutations_;

  if (regime_ == Regime::kReevaluate) {
    if (to == Assignment::kUnassigned) {
      mirror_.Unassign(user);
      --load_[static_cast<std::size_t>(from)];
    } else {
      if (from != Assignment::kUnassigned) {
        --load_[static_cast<std::size_t>(from)];
      }
      mirror_.Assign(user, static_cast<std::size_t>(to));
      ++load_[static_cast<std::size_t>(to)];
    }
    ext_of_[user] = to;
    RecomputeFallback();
    return;
  }

  if (regime_ == Regime::kExact) {
    // Re-sum the touched cells from their member lists: no drift.
    if (from != Assignment::kUnassigned) {
      const std::size_t f = static_cast<std::size_t>(from);
      std::vector<std::size_t>& m = members_[f];
      m.erase(std::lower_bound(m.begin(), m.end(), user));
      --load_[f];
      inv_sum_[f] = CellSum(f, kNoUser, kNoUser);
    }
    if (to != Assignment::kUnassigned) {
      const std::size_t t = static_cast<std::size_t>(to);
      std::vector<std::size_t>& m = members_[t];
      m.insert(std::upper_bound(m.begin(), m.end(), user), user);
      ++load_[t];
      inv_sum_[t] = CellSum(t, kNoUser, kNoUser);
    }
    ext_of_[user] = to;
    CommitExact();
    return;
  }

  const double* inv = &inv_rate_[user * load_.size()];
  if (from != Assignment::kUnassigned) {
    const std::size_t f = static_cast<std::size_t>(from);
    --load_[f];
    inv_sum_[f] -= inv[f];
    if (load_[f] == 0) inv_sum_[f] = 0.0;  // kill accumulated error
    RefreshWifiDemand(f);
  }
  if (to != Assignment::kUnassigned) {
    const std::size_t t = static_cast<std::size_t>(to);
    ++load_[t];
    inv_sum_[t] += inv[t];
    RefreshWifiDemand(t);
  }
  ext_of_[user] = to;

  const int d_from =
      from != Assignment::kUnassigned
          ? domain_of_[static_cast<std::size_t>(from)]
          : -1;
  const int d_to = to != Assignment::kUnassigned
                       ? domain_of_[static_cast<std::size_t>(to)]
                       : -1;
  if (d_from >= 0) RecomputeDomain(static_cast<std::size_t>(d_from));
  if (d_to >= 0 && d_to != d_from) {
    RecomputeDomain(static_cast<std::size_t>(d_to));
  }
}

IncrementalValues IncrementalEvaluator::PeekMove(std::size_t user, int to) {
  CheckUser(user);
  const int from = ext_of_[user];
  if (to == from) return values_;
  CheckTarget(user, to);

  if (regime_ == Regime::kReevaluate) {
    // Evaluate the hypothetical assignment, then restore the mirror and the
    // cached values without a second evaluation; the cached EvalResult is
    // refreshed lazily if per-user throughputs are queried before the next
    // ApplyMove.
    const IncrementalValues saved = values_;
    if (to == Assignment::kUnassigned) {
      mirror_.Unassign(user);
    } else {
      mirror_.Assign(user, static_cast<std::size_t>(to));
    }
    RecomputeFallback();
    const IncrementalValues peeked = values_;
    if (from == Assignment::kUnassigned) {
      mirror_.Unassign(user);
    } else {
      mirror_.Assign(user, static_cast<std::size_t>(from));
    }
    values_ = saved;
    result_stale_ = true;
    return peeked;
  }

  std::size_t cells[2];
  int peek_load[2];
  if (regime_ == Regime::kExact) {
    double peek_sum[2];
    const std::size_t count =
        ExactMoveCells(user, to, cells, peek_load, peek_sum);
    return PeekExact(cells, peek_load, peek_sum, count);
  }

  const double* inv = &inv_rate_[user * load_.size()];
  double peek_demand[2];
  std::size_t count = 0;
  if (from != Assignment::kUnassigned) {
    const std::size_t f = static_cast<std::size_t>(from);
    const int n = load_[f] - 1;
    cells[count] = f;
    peek_load[count] = n;
    double s = inv_sum_[f] - inv[f];
    if (n == 0) s = 0.0;  // kill accumulated error, as ApplyMove does
    peek_demand[count] =
        (n > 0 && plc_rate_[f] > 0.0) ? static_cast<double>(n) / s : 0.0;
    ++count;
  }
  if (to != Assignment::kUnassigned) {
    const std::size_t t = static_cast<std::size_t>(to);
    const int n = load_[t] + 1;
    cells[count] = t;
    peek_load[count] = n;
    peek_demand[count] =
        plc_rate_[t] > 0.0 ? static_cast<double>(n) / (inv_sum_[t] + inv[t])
                           : 0.0;
    ++count;
  }
  return PeekCells(cells, peek_load, peek_demand, count);
}

IncrementalValues IncrementalEvaluator::PeekSwap(std::size_t u1,
                                                 std::size_t u2) {
  CheckUser(u1);
  CheckUser(u2);
  const int e1 = ext_of_[u1];
  const int e2 = ext_of_[u2];
  if (e1 == Assignment::kUnassigned || e2 == Assignment::kUnassigned) {
    throw std::invalid_argument("swap requires two assigned users");
  }
  if (e1 == e2) return values_;
  const std::size_t x1 = static_cast<std::size_t>(e1);
  const std::size_t x2 = static_cast<std::size_t>(e2);

  if (regime_ == Regime::kReevaluate) {
    const IncrementalValues saved = values_;
    if (net_->WifiRate(u1, x2) <= 0.0 || net_->WifiRate(u2, x1) <= 0.0) {
      throw std::invalid_argument("swap to unreachable extender");
    }
    mirror_.Assign(u1, x2);
    mirror_.Assign(u2, x1);
    RecomputeFallback();
    const IncrementalValues peeked = values_;
    mirror_.Assign(u1, x1);
    mirror_.Assign(u2, x2);
    values_ = saved;
    result_stale_ = true;
    return peeked;
  }

  const std::size_t num_ext = load_.size();
  const double* inv1 = &inv_rate_[u1 * num_ext];
  const double* inv2 = &inv_rate_[u2 * num_ext];
  if (inv1[x2] <= 0.0 || inv2[x1] <= 0.0) {
    throw std::invalid_argument("swap to unreachable extender");
  }
  // Loads are unchanged by an exchange; only the harmonic sums move.
  const std::size_t cells[2] = {x1, x2};
  const int peek_load[2] = {load_[x1], load_[x2]};
  if (regime_ == Regime::kExact) {
    const double peek_sum[2] = {CellSum(x1, u1, u2), CellSum(x2, u2, u1)};
    return PeekExact(cells, peek_load, peek_sum, 2);
  }
  double peek_demand[2];
  const double s1 = inv_sum_[x1] - inv1[x1] + inv2[x1];
  const double s2 = inv_sum_[x2] - inv2[x2] + inv1[x2];
  peek_demand[0] = plc_rate_[x1] > 0.0
                       ? static_cast<double>(load_[x1]) / s1
                       : 0.0;
  peek_demand[1] = plc_rate_[x2] > 0.0
                       ? static_cast<double>(load_[x2]) / s2
                       : 0.0;
  return PeekCells(cells, peek_load, peek_demand, 2);
}

std::optional<IncrementalValues> IncrementalEvaluator::PeekMoveAbove(
    std::size_t user, int to, double threshold) {
  CheckExact();
  CheckUser(user);
  if (to == ext_of_[user]) {
    return ScreenedPeek(nullptr, nullptr, nullptr, 0, threshold);
  }
  CheckTarget(user, to);
  std::size_t cells[2];
  int peek_load[2];
  double peek_sum[2];
  const std::size_t count =
      ExactMoveCells(user, to, cells, peek_load, peek_sum);
  return ScreenedPeek(cells, peek_load, peek_sum, count, threshold);
}

std::optional<IncrementalValues> IncrementalEvaluator::PeekSwapAbove(
    std::size_t u1, std::size_t u2, double threshold) {
  CheckExact();
  CheckUser(u1);
  CheckUser(u2);
  const int e1 = ext_of_[u1];
  const int e2 = ext_of_[u2];
  if (e1 == Assignment::kUnassigned || e2 == Assignment::kUnassigned) {
    throw std::invalid_argument("swap requires two assigned users");
  }
  if (e1 == e2) return ScreenedPeek(nullptr, nullptr, nullptr, 0, threshold);
  const std::size_t x1 = static_cast<std::size_t>(e1);
  const std::size_t x2 = static_cast<std::size_t>(e2);
  const std::size_t num_ext = load_.size();
  if (inv_rate_[u1 * num_ext + x2] <= 0.0 ||
      inv_rate_[u2 * num_ext + x1] <= 0.0) {
    throw std::invalid_argument("swap to unreachable extender");
  }
  const std::size_t cells[2] = {x1, x2};
  const int peek_load[2] = {load_[x1], load_[x2]};
  const double peek_sum[2] = {CellSum(x1, u1, u2), CellSum(x2, u2, u1)};
  return ScreenedPeek(cells, peek_load, peek_sum, 2, threshold);
}

std::optional<IncrementalValues> IncrementalEvaluator::ScreenedPeek(
    const std::size_t* cells, const int* peek_load, const double* peek_sum,
    std::size_t count, double threshold) {
  if (count == 0) {  // the move changes nothing
    if (demand_prefix_.back() <= threshold) return std::nullopt;
    return values_;
  }
  if (DemandBound(cells, peek_load, peek_sum, count) <= threshold) {
    return std::nullopt;
  }
  return PeekExact(cells, peek_load, peek_sum, count);
}

IncrementalValues IncrementalEvaluator::MoveDelta(std::size_t user, int to) {
  const IncrementalValues before = values_;
  const IncrementalValues after = PeekMove(user, to);
  return {after.aggregate_mbps - before.aggregate_mbps,
          after.log_utility - before.log_utility};
}

}  // namespace wolt::model
