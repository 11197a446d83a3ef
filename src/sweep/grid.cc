#include "sweep/grid.h"

#include <bit>
#include <stdexcept>

#include "core/greedy.h"
#include "core/rssi.h"
#include "core/wolt.h"
#include "util/rng.h"

namespace wolt::sweep {

const char* ToString(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kWolt:
      return "WOLT";
    case PolicyKind::kWoltSubset:
      return "WOLT-S";
    case PolicyKind::kGreedy:
      return "Greedy";
    case PolicyKind::kRssi:
      return "RSSI";
    case PolicyKind::kJointWolt:
      return "WOLT-J";
  }
  return "?";
}

core::PolicyPtr MakePolicy(PolicyKind kind, const model::EvalOptions& eval) {
  switch (kind) {
    case PolicyKind::kWolt: {
      core::WoltOptions options;
      options.eval = eval;
      return std::make_unique<core::WoltPolicy>(options);
    }
    case PolicyKind::kWoltSubset: {
      core::WoltOptions options;
      options.subset_search = true;
      options.eval = eval;
      return std::make_unique<core::WoltPolicy>(options);
    }
    case PolicyKind::kGreedy:
      return std::make_unique<core::GreedyPolicy>();
    case PolicyKind::kRssi:
      return std::make_unique<core::RssiPolicy>();
    case PolicyKind::kJointWolt: {
      // The plan-free degenerate form (num_channels == 0 tasks): plain
      // WOLT. The engine routes num_channels > 0 tasks through the joint
      // solver instead of this instance.
      core::WoltOptions options;
      options.eval = eval;
      return std::make_unique<core::WoltPolicy>(options);
    }
  }
  throw std::invalid_argument("unknown PolicyKind");
}

void SweepGrid::SeedRange(std::size_t n) {
  seeds.resize(n);
  for (std::size_t k = 0; k < n; ++k) seeds[k] = k;
}

bool SweepGrid::Valid() const {
  return !seeds.empty() && !users.empty() && !extenders.empty() &&
         !sharing.empty() && !num_channels.empty() && !policies.empty() &&
         !mobility.empty() && !churn_rates.empty() && !load_curves.empty() &&
         !reopt_budgets.empty();
}

std::size_t SweepGrid::NumTasks() const {
  return seeds.size() * users.size() * extenders.size() * sharing.size() *
         num_channels.size() * mobility.size() * churn_rates.size() *
         load_curves.size() * reopt_budgets.size() * policies.size();
}

std::size_t SweepGrid::NumConfigs() const {
  return NumTasks() / seeds.size();
}

TaskSpec SweepGrid::TaskAt(std::size_t index) const {
  if (!Valid() || index >= NumTasks()) {
    throw std::out_of_range("SweepGrid::TaskAt: bad grid or index");
  }
  TaskSpec spec;
  spec.index = index;

  // Innermost to outermost: seed, policy, budget, load, churn, mobility,
  // channels, sharing, extenders, users. Policy stays adjacent to seed so
  // config_index % policies.size() still recovers the policy ordinal
  // (ToPolicyTrials relies on this).
  std::size_t rest = index;
  spec.seed_ordinal = rest % seeds.size();
  rest /= seeds.size();
  const std::size_t policy_idx = rest % policies.size();
  rest /= policies.size();
  const std::size_t budget_idx = rest % reopt_budgets.size();
  rest /= reopt_budgets.size();
  const std::size_t load_idx = rest % load_curves.size();
  rest /= load_curves.size();
  const std::size_t churn_idx = rest % churn_rates.size();
  rest /= churn_rates.size();
  const std::size_t mobility_idx = rest % mobility.size();
  rest /= mobility.size();
  const std::size_t chan_idx = rest % num_channels.size();
  rest /= num_channels.size();
  const std::size_t sharing_idx = rest % sharing.size();
  rest /= sharing.size();
  const std::size_t ext_idx = rest % extenders.size();
  rest /= extenders.size();
  const std::size_t users_idx = rest;

  spec.seed = seeds[spec.seed_ordinal];
  spec.policy = policies[policy_idx];
  spec.reopt_budget = reopt_budgets[budget_idx];
  spec.load = load_curves[load_idx];
  spec.churn_rate = churn_rates[churn_idx];
  spec.mobility = mobility[mobility_idx];
  spec.num_channels = num_channels[chan_idx];
  spec.sharing = sharing[sharing_idx];
  spec.num_extenders = extenders[ext_idx];
  spec.num_users = users[users_idx];
  spec.config_index = index / seeds.size();
  spec.scenario_ordinal =
      (users_idx * extenders.size() + ext_idx) * seeds.size() +
      spec.seed_ordinal;
  return spec;
}

std::uint64_t Fingerprint(const SweepGrid& grid) {
  std::uint64_t h = 0x574f4c545357504aULL;  // "WOLTSWPJ"
  const auto mix = [&h](std::uint64_t v) { h = util::HashCombine64(h, v); };
  const auto mix_d = [&mix](double v) {
    mix(std::bit_cast<std::uint64_t>(v));
  };

  mix(grid.master_seed);
  mix(grid.seeds.size());
  for (std::uint64_t s : grid.seeds) mix(s);
  mix(grid.users.size());
  for (std::size_t u : grid.users) mix(u);
  mix(grid.extenders.size());
  for (std::size_t e : grid.extenders) mix(e);
  mix(grid.sharing.size());
  for (model::PlcSharing s : grid.sharing) {
    mix(static_cast<std::uint64_t>(s));
  }
  mix(grid.num_channels.size());
  for (int c : grid.num_channels) mix(static_cast<std::uint64_t>(c));
  mix_d(grid.carrier_sense_range_m);
  mix(grid.policies.size());
  for (PolicyKind p : grid.policies) mix(static_cast<std::uint64_t>(p));

  mix(grid.mobility.size());
  for (sim::MobilityModel m : grid.mobility) {
    mix(static_cast<std::uint64_t>(m));
  }
  mix(grid.churn_rates.size());
  for (double c : grid.churn_rates) mix_d(c);
  mix(grid.load_curves.size());
  for (sim::LoadCurve l : grid.load_curves) {
    mix(static_cast<std::uint64_t>(l));
  }
  mix(grid.reopt_budgets.size());
  for (int u : grid.reopt_budgets) mix(static_cast<std::uint64_t>(u));

  const sim::WorkloadParams& w = grid.workload;
  mix_d(w.horizon);
  mix_d(w.arrival_rate);
  mix_d(w.mean_session);
  mix(w.initial_users);
  mix(static_cast<std::uint64_t>(w.mobility.model));
  mix_d(w.mobility.speed_min);
  mix_d(w.mobility.speed_max);
  mix_d(w.mobility.pause);
  mix(static_cast<std::uint64_t>(w.mobility.num_hotspots));
  mix_d(w.mobility.hotspot_sigma_m);
  mix_d(w.mobility.hotspot_bias);
  mix_d(w.move_tick);
  mix(static_cast<std::uint64_t>(w.load));
  mix_d(w.base_demand_mbps);
  mix_d(w.load_period);
  mix_d(w.load_floor);
  mix_d(w.burst_rate);
  mix_d(w.burst_high);
  mix_d(w.burst_low);
  mix_d(w.background_share);
  mix_d(w.background_flip_rate);
  mix_d(grid.frontier_epoch_length);
  mix(static_cast<std::uint64_t>(grid.frontier_epochs));
  mix(grid.frontier_oracle ? 1u : 0u);
  mix(grid.frontier_oracle_bf_max_users);
  mix(static_cast<std::uint64_t>(grid.frontier_quarantine.flap_threshold));
  mix_d(grid.frontier_quarantine.window);
  mix_d(grid.frontier_quarantine.hold);

  const sim::ScenarioParams& b = grid.base;
  mix_d(b.width_m);
  mix_d(b.height_m);
  mix(b.num_extenders);
  mix(b.num_users);
  mix_d(b.path_loss.pl0_db);
  mix_d(b.path_loss.exponent);
  mix_d(b.path_loss.tx_power_dbm);
  mix(b.rate_table.entries().size());
  for (const wifi::McsEntry& e : b.rate_table.entries()) {
    mix(static_cast<std::uint64_t>(e.index));
    mix_d(e.min_rssi_dbm);
    mix_d(e.phy_rate_mbps);
  }
  mix_d(b.rate_table.mac_efficiency());
  mix_d(b.shadowing_sigma_db);
  mix(static_cast<std::uint64_t>(b.plc.source));
  mix(b.plc.measured_anchors.size());
  for (double a : b.plc.measured_anchors) mix_d(a);
  mix_d(b.plc.anchor_jitter_sigma);
  mix_d(b.plc.min_wire_m);
  mix_d(b.plc.max_wire_m);
  mix(static_cast<std::uint64_t>(b.plc.max_branch_taps));
  mix_d(b.plc.shadowing_sigma_db);
  mix_d(b.plc.min_capacity_mbps);
  mix_d(b.plc.max_capacity_mbps);
  mix_d(b.extender_grid_jitter);
  mix(static_cast<std::uint64_t>(b.max_placement_retries));
  return h;
}

std::uint64_t Fingerprint(const SweepGrid& grid,
                          const model::EvalOptions& eval) {
  std::uint64_t h = Fingerprint(grid);
  const auto mix = [&h](std::uint64_t v) { h = util::HashCombine64(h, v); };
  mix(eval.wifi_channel.size());
  for (int c : eval.wifi_channel) mix(static_cast<std::uint64_t>(c));
  mix(eval.wifi_contention_domain.size());
  for (int d : eval.wifi_contention_domain) mix(static_cast<std::uint64_t>(d));
  mix(std::bit_cast<std::uint64_t>(eval.carrier_sense_range_m));
  return h;
}

}  // namespace wolt::sweep
