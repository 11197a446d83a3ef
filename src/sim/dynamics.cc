#include "sim/dynamics.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <stdexcept>
#include <utility>

#include "assign/brute_force.h"
#include "core/wolt.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sim/des.h"
#include "sim/workload.h"
#include "util/stats.h"

namespace wolt::sim {

std::vector<EpochStats> RunDynamicSimulation(
    const ScenarioGenerator& generator,
    const std::vector<core::AssociationPolicy*>& policies,
    const DynamicsParams& params, util::Rng& rng) {
  if (policies.empty()) throw std::invalid_argument("no policies");
  // An infinite rate or epoch length would never let the event loop reach
  // a boundary, and a NaN would slip past every comparison.
  if (!std::isfinite(params.arrival_rate) || params.arrival_rate <= 0.0 ||
      !std::isfinite(params.epoch_length) || params.epoch_length <= 0.0 ||
      !std::isfinite(params.departure_rate) || params.departure_rate < 0.0 ||
      params.epochs <= 0) {
    throw std::invalid_argument("bad dynamics parameters");
  }

  // Start with extenders only; the arrival process populates users.
  ScenarioParams scenario = generator.params();
  scenario.num_users = 0;
  ScenarioGenerator empty_gen(scenario);
  model::Network net = empty_gen.Generate(rng);

  std::vector<model::Assignment> assignments(
      policies.size(), model::Assignment(net.NumUsers()));
  const model::Evaluator evaluator(params.eval);

  EventQueue queue;
  std::size_t arrivals_this_epoch = 0;
  std::size_t departures_this_epoch = 0;

  // Self-rescheduling arrival process.
  std::function<void()> arrival = [&] {
    generator.AddRandomUser(net, rng);
    for (auto& a : assignments) a.AppendUser();
    ++arrivals_this_epoch;
    queue.ScheduleAfter(rng.Exponential(params.arrival_rate), arrival);
  };
  queue.ScheduleAfter(rng.Exponential(params.arrival_rate), arrival);

  // Global departure process: each event removes one uniformly random user.
  std::function<void()> departure = [&] {
    if (net.NumUsers() > 0) {
      const std::size_t victim = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(net.NumUsers()) - 1));
      net.RemoveUser(victim);
      for (auto& a : assignments) a.EraseUser(victim);
      ++departures_this_epoch;
    }
    queue.ScheduleAfter(rng.Exponential(params.departure_rate), departure);
  };
  if (params.departure_rate > 0.0) {
    queue.ScheduleAfter(rng.Exponential(params.departure_rate), departure);
  }

  std::vector<EpochStats> history;
  for (int epoch = 1; epoch <= params.epochs; ++epoch) {
    // One span per online epoch: drives the fig6b trace recipe
    // (EXPERIMENTS.md). Inert unless a global tracer is installed.
    obs::ScopedTimer epoch_span("dynamics.epoch", "dynamics");
    arrivals_this_epoch = 0;
    departures_this_epoch = 0;
    queue.RunUntil(static_cast<double>(epoch) * params.epoch_length);

    EpochStats stats;
    stats.epoch = epoch;
    stats.population = net.NumUsers();
    stats.arrivals = arrivals_this_epoch;
    stats.departures = departures_this_epoch;

    for (std::size_t p = 0; p < policies.size(); ++p) {
      obs::ScopedTimer policy_span("dynamics.reassociate", "dynamics");
      const model::Assignment before = assignments[p];
      assignments[p] = policies[p]->Associate(net, before);
      const model::EvalResult eval = evaluator.Evaluate(net, assignments[p]);

      PolicyEpochStats ps;
      ps.policy = policies[p]->Name();
      ps.aggregate_mbps = eval.aggregate_mbps;
      ps.jain_fairness = util::JainFairnessIndex(eval.user_throughput_mbps);
      ps.reassignments =
          model::Assignment::CountReassignments(before, assignments[p]);
      stats.per_policy.push_back(std::move(ps));
    }
    history.push_back(std::move(stats));
  }
  return history;
}

// Frozen-snapshot optimum for one epoch. Brute force (relaxed problem:
// users may stay unassigned, which makes it a true upper bound on anything
// the controller can commit) when the space fits; otherwise WOLT-S with
// subset search solved from scratch — no stickiness, so it tracks the
// per-epoch optimum instead of the previous plan. Counts itself, so a
// shared oracle counts once, where it is solved.
EpochOracle SolveFrontierOracle(const model::Network& snap,
                                const FrontierParams& params) {
  obs::MetricsScope* const scope = obs::CurrentScope();
  if (scope != nullptr) scope->workload.oracle_solves.Add(1);
  const auto exact = [scope](double mbps) {
    if (scope != nullptr) scope->workload.oracle_exact.Add(1);
    return EpochOracle{mbps, true};
  };
  if (snap.NumUsers() == 0) return exact(0.0);
  if (snap.NumUsers() <= params.oracle_bf_max_users) {
    const std::uint64_t arms =
        static_cast<std::uint64_t>(snap.NumExtenders()) + 1;  // + unassigned
    std::uint64_t space = 1;
    bool fits = true;
    for (std::size_t i = 0; i < snap.NumUsers(); ++i) {
      if (space > params.oracle_max_combinations / arms) {
        fits = false;
        break;
      }
      space *= arms;
    }
    if (fits && space <= params.oracle_max_combinations) {
      assign::BruteForceOptions bf;
      bf.max_combinations = params.oracle_max_combinations;
      bf.allow_unassigned = true;
      bf.eval = params.eval;
      return exact(assign::SolveBruteForce(snap, bf).best_aggregate_mbps);
    }
  }
  core::WoltOptions wolt;
  wolt.sticky = false;
  wolt.subset_search = true;
  wolt.eval = params.eval;
  core::WoltPolicy oracle(wolt);
  const model::Assignment fresh(snap.NumUsers());
  return {model::Evaluator(params.eval)
              .AggregateThroughput(snap, oracle.Associate(snap, fresh)),
          false};
}

FrontierResult RunTraceFrontier(const model::Network& base,
                                const WorkloadTrace& trace,
                                core::PolicyPtr policy,
                                const FrontierParams& params) {
  if (base.NumUsers() != 0) {
    throw std::invalid_argument("frontier base network must be extenders-only");
  }
  if (base.NumExtenders() != trace.num_extenders) {
    throw std::invalid_argument("trace/network extender count mismatch");
  }
  if (params.epochs <= 0 || params.epoch_length <= 0.0 ||
      !std::isfinite(params.epoch_length)) {
    throw std::invalid_argument("bad frontier parameters");
  }

  core::CentralController ctrl(base.NumExtenders(), std::move(policy),
                               params.retry, params.quarantine);
  // Seed backhaul capacities from the ground-truth topology; baselines are
  // retained so background busy shares scale from the true capacity, not
  // from whatever the previous background level left behind.
  std::vector<double> baselines(base.NumExtenders());
  for (std::size_t j = 0; j < base.NumExtenders(); ++j) {
    baselines[j] = base.PlcRate(j);
    ctrl.HandleCapacityReport(
        {static_cast<int>(j), baselines[j]});
  }

  // The controller's internal network carries no PLC topology (every
  // extender defaults to domain 0), so scoring snapshots get the base
  // network's contention domains patched back in before evaluation.
  const model::Evaluator evaluator(params.eval);
  const auto scoring_snapshot = [&] {
    model::Network snap = ctrl.network();
    for (std::size_t j = 0; j < base.NumExtenders(); ++j) {
      snap.SetPlcDomain(j, base.PlcDomain(j));
    }
    return snap;
  };

  // Replay-side user state: last links plus the unscaled base demand, so
  // load-curve events can re-derive every live user's effective demand.
  struct ReplayUser {
    std::vector<double> rates_mbps;
    std::vector<double> rssi_dbm;
    double base_demand_mbps = 0.0;
  };
  std::map<std::int64_t, ReplayUser> live;  // ordered: deterministic refresh
  double load_scale = 1.0;

  const auto send_scan = [&](std::int64_t uid, const ReplayUser& ru) {
    core::ScanReport scan;
    scan.user_id = uid;
    scan.rates_mbps = ru.rates_mbps;
    scan.rssi_dbm = ru.rssi_dbm;
    scan.demand_mbps = ru.base_demand_mbps > 0.0
                           ? ru.base_demand_mbps * load_scale
                           : 0.0;  // 0 = saturated
    ctrl.IngestScan(scan);
  };

  FrontierResult out;
  std::size_t ev_idx = 0;
  std::size_t arrivals = 0, departures = 0, moves = 0;
  std::size_t prev_trips = 0;
  std::size_t population_epochs = 0;
  double regret_sum = 0.0;
  int regret_epochs = 0;

  for (int epoch = 1; epoch <= params.epochs; ++epoch) {
    const double boundary = static_cast<double>(epoch) * params.epoch_length;
    arrivals = departures = moves = 0;
    for (; ev_idx < trace.events.size() && trace.events[ev_idx].time <= boundary;
         ++ev_idx) {
      const TraceEvent& ev = trace.events[ev_idx];
      ctrl.AdvanceTime(ev.time);
      switch (ev.kind) {
        case TraceEventKind::kArrival: {
          ReplayUser ru{ev.rates_mbps, ev.rssi_dbm, ev.demand_mbps};
          send_scan(ev.user, ru);
          live.emplace(ev.user, std::move(ru));
          ++arrivals;
          break;
        }
        case TraceEventKind::kMove: {
          const auto it = live.find(ev.user);
          if (it == live.end()) break;  // loader guarantees this is dead code
          it->second.rates_mbps = ev.rates_mbps;
          it->second.rssi_dbm = ev.rssi_dbm;
          send_scan(ev.user, it->second);
          ++moves;
          break;
        }
        case TraceEventKind::kDeparture:
          live.erase(ev.user);
          ctrl.HandleUserDeparture(ev.user);
          ++departures;
          break;
        case TraceEventKind::kLoad:
          load_scale = ev.value;
          for (const auto& [uid, ru] : live) {
            if (ru.base_demand_mbps > 0.0) send_scan(uid, ru);
          }
          break;
        case TraceEventKind::kBackground:
          for (std::size_t j = 0; j < base.NumExtenders(); ++j) {
            if (base.PlcDomain(j) != ev.domain) continue;
            ctrl.HandleCapacityReport(
                {static_cast<int>(j), baselines[j] * (1.0 - ev.value)});
          }
          break;
      }
    }
    ctrl.AdvanceTime(boundary);

    // Association before the boundary solve, keyed by stable user id so
    // index churn from departures cannot masquerade as a reassociation.
    std::map<std::int64_t, int> before;
    for (const std::int64_t id : ctrl.UserIds()) {
      if (const std::optional<int> e = ctrl.ExtenderOf(id)) before[id] = *e;
    }

    const core::ReoptReport report = ctrl.ReoptimizeUpToTier(params.tier);

    FrontierEpoch es;
    es.epoch = epoch;
    es.population = ctrl.NumUsers();
    es.arrivals = arrivals;
    es.departures = departures;
    es.moves = moves;
    es.served_tier = report.tier;
    for (const std::int64_t id : ctrl.UserIds()) {
      const std::optional<int> e = ctrl.ExtenderOf(id);
      const auto it = before.find(id);
      if (e && it != before.end() && it->second != *e) ++es.reassociations;
    }
    es.quarantine_trips = ctrl.QuarantineTrips() - prev_trips;
    prev_trips = ctrl.QuarantineTrips();

    const model::Network snap = scoring_snapshot();
    const model::EvalResult eval = evaluator.Evaluate(snap, ctrl.assignment());
    es.aggregate_mbps = eval.aggregate_mbps;
    es.jain_fairness = util::JainFairnessIndex(eval.user_throughput_mbps);

    if (params.compute_oracle) {
      const EpochOracle oracle = params.oracle
                                     ? params.oracle(epoch, snap)
                                     : SolveFrontierOracle(snap, params);
      es.oracle_mbps = oracle.mbps;
      es.oracle_exact = oracle.exact;
      if (es.oracle_mbps > 0.0) {
        regret_sum +=
            std::max(0.0, (es.oracle_mbps - es.aggregate_mbps) / es.oracle_mbps);
        ++regret_epochs;
      }
    }

    if (obs::MetricsScope* s = obs::CurrentScope()) {
      s->workload.epochs.Add(1);
      s->workload.reassociations.Add(
          static_cast<std::int64_t>(es.reassociations));
    }

    out.mean_aggregate_mbps += es.aggregate_mbps;
    out.mean_oracle_mbps += es.oracle_mbps;
    out.mean_jain += es.jain_fairness;
    out.total_reassociations += es.reassociations;
    population_epochs += es.population;
    if (epoch == params.epochs) {
      out.final_user_throughput_mbps = eval.user_throughput_mbps;
    }
    out.epochs.push_back(std::move(es));
  }

  const double n = static_cast<double>(params.epochs);
  out.mean_aggregate_mbps /= n;
  out.mean_oracle_mbps /= n;
  out.mean_jain /= n;
  out.regret = regret_epochs > 0 ? regret_sum / regret_epochs : 0.0;
  out.reassoc_per_user_epoch =
      population_epochs > 0
          ? static_cast<double>(out.total_reassociations) /
                static_cast<double>(population_epochs)
          : 0.0;
  out.quarantine_trips = ctrl.QuarantineTrips();
  return out;
}

}  // namespace wolt::sim
