#include "fault/chaos.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <unordered_map>

#include "util/thread_pool.h"

#include "core/wolt.h"
#include "sim/des.h"
#include "util/rng.h"

namespace wolt::fault {

ChaosParams DefaultChaosParams() {
  ChaosParams p;
  p.scenario.num_extenders = 8;
  p.scenario.num_users = 16;
  WireFaults w;
  w.loss = 0.15;
  w.duplicate = 0.10;
  w.corrupt = 0.10;
  w.delay_prob = 0.30;
  w.delay_mean = 0.4;
  w.base_latency = 0.02;
  p.wire = FaultPlaneParams::Uniform(w);
  p.health.crash_rate = 0.25;   // ~1 hard backhaul failure per epoch
  p.health.repair_rate = 0.2;   // mean 5 time units of downtime
  p.health.flap_rate = 0.3;
  p.health.flap_down_mean = 0.5;
  p.health.drift_rate = 0.5;
  return p;
}

ChaosResult RunChaosScenario(const ChaosParams& params, std::uint64_t seed) {
  ChaosResult res;
  try {
    util::Rng rng(seed);
    const sim::ScenarioGenerator gen(params.scenario);
    model::Network net = gen.Generate(rng);  // ground truth
    const std::size_t num_ext = net.NumExtenders();
    const std::size_t num_users = net.NumUsers();
    res.extenders = num_ext;
    res.initial_users = num_users;

    // The client plane: one row per truth-network user. `extender` is where
    // the client actually camps — it only changes when a directive survives
    // the wire and passes the client's own reachability check.
    struct Client {
      std::int64_t id = 0;
      bool alive = true;
      int extender = -1;
    };
    std::vector<Client> clients(num_users);
    std::unordered_map<std::int64_t, std::size_t> client_of_id;
    for (std::size_t i = 0; i < num_users; ++i) {
      clients[i].id = 1000 + static_cast<std::int64_t>(i);
      client_of_id[clients[i].id] = i;
    }

    core::CentralController cc(num_ext, std::make_unique<core::WoltPolicy>(),
                               params.retry);
    // Clean wire during warmup; the fault config is swapped in later.
    FaultPlane plane(FaultPlaneParams{}, rng.Next());
    std::vector<double> baselines(num_ext);
    for (std::size_t j = 0; j < num_ext; ++j) baselines[j] = net.PlcRate(j);
    HealthModel health(baselines, params.health, rng.Next());
    sim::EventQueue queue;
    const model::Evaluator evaluator(params.eval);

    // --- wire plumbing ---------------------------------------------------
    std::function<void(const std::string&)> deliver_to_cc;
    std::function<void(const std::string&)> deliver_to_client;

    auto send_to_cc = [&](MessageClass cls, const std::string& bytes) {
      for (auto& d : plane.Transmit(cls, bytes)) {
        queue.ScheduleAfter(d.delay, [&, payload = std::move(d.bytes)] {
          deliver_to_cc(payload);
        });
      }
    };
    auto send_directives =
        [&](const std::vector<core::AssociationDirective>& ds) {
          for (const auto& d : ds) {
            for (auto& del :
                 plane.Transmit(MessageClass::kDirective, core::Encode(d))) {
              queue.ScheduleAfter(del.delay,
                                  [&, payload = std::move(del.bytes)] {
                                    deliver_to_client(payload);
                                  });
            }
          }
        };

    deliver_to_client = [&](const std::string& bytes) {
      const auto d = core::DecodeAssociationDirective(bytes);
      if (!d) {
        ++res.decode_rejects;
        return;
      }
      const auto it = client_of_id.find(d->user_id);
      if (it == client_of_id.end()) return;  // corrupted id: nobody home
      Client& c = clients[it->second];
      if (!c.alive) return;
      // Client-side sanity: never camp on an extender it cannot hear (a
      // corrupted-but-decodable directive could point anywhere).
      if (!net.CanHear(it->second, d->extender)) return;
      c.extender = d->extender;  // idempotent under re-delivery
      send_to_cc(MessageClass::kAck,
                 core::Encode(core::DirectiveAck{c.id, d->extender}));
    };

    deliver_to_cc = [&](const std::string& bytes) {
      cc.AdvanceTime(queue.Now());
      std::istringstream in(bytes);
      std::string type;
      in >> type;
      if (type == "SCAN") {
        const auto m = core::DecodeScanReport(bytes);
        if (!m) {
          ++res.decode_rejects;
          return;
        }
        const core::HandleResult r = cc.KnowsUser(m->user_id)
                                         ? cc.HandleScanUpdate(*m)
                                         : cc.HandleUserArrival(*m);
        if (!r.ok()) ++res.status_rejects;
        send_directives(r.directives);
      } else if (type == "CAPACITY") {
        const auto m = core::DecodeCapacityReport(bytes);
        if (!m) {
          ++res.decode_rejects;
          return;
        }
        if (cc.HandleCapacityReport(*m) != core::HandleStatus::kOk) {
          ++res.status_rejects;
        }
      } else if (type == "ACK") {
        const auto m = core::DecodeDirectiveAck(bytes);
        if (!m) {
          ++res.decode_rejects;
          return;
        }
        if (cc.HandleDirectiveAck(*m) != core::HandleStatus::kOk) {
          ++res.status_rejects;
        }
      } else if (type == "DEPART") {
        const auto m = core::DecodeDepartureNotice(bytes);
        if (!m) {
          ++res.decode_rejects;
          return;
        }
        if (cc.HandleUserDeparture(m->user_id) != core::HandleStatus::kOk) {
          ++res.status_rejects;
        }
      } else {
        ++res.decode_rejects;  // type word itself got mangled
      }
    };

    // --- client scan processes -------------------------------------------
    std::function<void(std::size_t)> scan_loop = [&](std::size_t i) {
      Client& c = clients[i];
      if (!c.alive) return;
      core::ScanReport r;
      r.user_id = c.id;
      r.rates_mbps.resize(num_ext);
      bool rssi_ok = true;
      std::vector<double> rssi(num_ext);
      for (std::size_t j = 0; j < num_ext; ++j) {
        r.rates_mbps[j] = net.WifiRate(i, j);
        rssi[j] = net.Rssi(i, j);
        rssi_ok = rssi_ok && std::isfinite(rssi[j]);
      }
      if (rssi_ok) r.rssi_dbm = std::move(rssi);
      r.associated_extender = c.extender;  // -1 while unassociated
      send_to_cc(MessageClass::kScan, core::Encode(r));
      // Jittered periodic re-scans (clients scan on a timer, not a Poisson
      // process): gaps are bounded, so a live client on a clean wire can
      // never look stale.
      queue.ScheduleAfter(rng.Uniform(0.5 * params.scan_interval_mean,
                                      1.5 * params.scan_interval_mean),
                          [&, i] { scan_loop(i); });
    };
    for (std::size_t i = 0; i < num_users; ++i) {
      queue.ScheduleAfter(rng.Uniform(0.0, params.scan_interval_mean),
                          [&, i] { scan_loop(i); });
    }

    // --- capacity probes ---------------------------------------------------
    auto send_probe = [&](std::size_t j) {
      send_to_cc(MessageClass::kCapacity,
                 core::Encode(core::CapacityReport{static_cast<int>(j),
                                                   net.PlcRate(j)}));
    };
    std::function<void(std::size_t)> probe_loop = [&](std::size_t j) {
      send_probe(j);
      queue.ScheduleAfter(params.probe_interval, [&, j] { probe_loop(j); });
    };
    for (std::size_t j = 0; j < num_ext; ++j) {
      queue.ScheduleAfter(rng.Uniform(0.0, params.probe_interval),
                          [&, j] { probe_loop(j); });
    }

    // --- mid-chaos departures ---------------------------------------------
    const double fault_start = params.warmup_epochs * params.epoch_length;
    const double fault_end =
        fault_start + params.fault_epochs * params.epoch_length;
    for (std::size_t i = 0; i < num_users; ++i) {
      if (params.departure_prob > 0.0 &&
          rng.Bernoulli(params.departure_prob)) {
        queue.ScheduleAt(rng.Uniform(fault_start, fault_end), [&, i] {
          clients[i].alive = false;
          clients[i].extender = -1;
          ++res.departures;
          send_to_cc(MessageClass::kDeparture,
                     core::Encode(core::DepartureNotice{clients[i].id}));
        });
      }
    }

    // --- retry pump --------------------------------------------------------
    std::function<void()> retry_loop = [&] {
      cc.AdvanceTime(queue.Now());
      const auto due = cc.CollectRetries();
      res.retries_sent += due.size();
      send_directives(due);
      queue.ScheduleAfter(params.retry_tick, retry_loop);
    };
    queue.ScheduleAfter(params.retry_tick, retry_loop);

    // --- ground-truth throughput of the client plane ----------------------
    auto truth_aggregate = [&] {
      model::Assignment a(num_users);
      for (std::size_t i = 0; i < num_users; ++i) {
        const Client& c = clients[i];
        if (c.alive && net.CanHear(i, c.extender)) {
          a.Assign(i, static_cast<std::size_t>(c.extender));
        }
      }
      return evaluator.AggregateThroughput(net, a);
    };

    // --- the epoch loop ----------------------------------------------------
    const int total_epochs =
        params.warmup_epochs + params.fault_epochs + params.settle_epochs;
    bool margin_ok = true;
    double worst_margin = std::numeric_limits<double>::infinity();
    for (int epoch = 1; epoch <= total_epochs; ++epoch) {
      queue.RunUntil(epoch * params.epoch_length);
      cc.AdvanceTime(queue.Now());
      res.evictions += cc.EvictStale(params.stale_age).size();

      // Evacuation baseline on the controller's view: the pre-reopt
      // assignment with every user on a (believed-)dead backhaul unassigned.
      const model::Assignment before = cc.assignment();
      model::Assignment evac = before;
      for (std::size_t i = 0; i < evac.NumUsers(); ++i) {
        if (evac.IsAssigned(i) &&
            cc.network().PlcRate(
                static_cast<std::size_t>(evac.ExtenderOf(i))) <= 0.0) {
          evac.Unassign(i);
        }
      }
      const double evac_agg =
          evaluator.AggregateThroughput(cc.network(), evac);
      const std::vector<core::AssociationDirective> directives =
          cc.Reoptimize();
      const double reopt_agg =
          evaluator.AggregateThroughput(cc.network(), cc.assignment());
      const double margin = reopt_agg - evac_agg;
      worst_margin = std::min(worst_margin, margin);
      if (margin < -1e-6) margin_ok = false;

      const std::size_t moves =
          model::Assignment::CountReassignments(before, cc.assignment());
      res.total_reassignments += moves;
      res.max_epoch_reassignments =
          std::max(res.max_epoch_reassignments, moves);
      send_directives(directives);
      const auto due = cc.CollectRetries();
      res.retries_sent += due.size();
      send_directives(due);

      if (epoch == params.warmup_epochs) {
        // End of warmup: record the healthy ground truth, then unleash the
        // fault universe.
        res.prefault_aggregate = truth_aggregate();
        plane.SetParams(params.wire);
        if (params.health.any()) {
          health.Schedule(queue, [&](std::size_t j, double mbps) {
            net.SetPlcRate(j, mbps);
            send_probe(j);
          });
        }
      }
      if (epoch == params.warmup_epochs + params.fault_epochs) {
        // Faults clear: clean wire first so the restoration probes and the
        // settle-phase control traffic all get through.
        plane.SetParams(FaultPlaneParams{});
        health.StopAndRestore();
      }
      if (epoch > params.warmup_epochs + params.fault_epochs &&
          res.epochs_to_quiesce < 0 && directives.empty() && due.empty() &&
          cc.PendingDirectives() == 0) {
        res.epochs_to_quiesce =
            epoch - (params.warmup_epochs + params.fault_epochs);
      }
    }

    // Drain in-flight deliveries (clean wire, tiny latencies) and take the
    // final measurements.
    queue.RunUntil(total_epochs * params.epoch_length + 1.0);
    cc.AdvanceTime(queue.Now());

    std::set<std::int64_t> cc_ids;
    for (std::int64_t id : cc.UserIds()) cc_ids.insert(id);
    std::set<std::int64_t> alive_ids;
    for (const Client& c : clients) {
      if (c.alive) alive_ids.insert(c.id);
    }
    res.surviving_users = alive_ids.size();
    res.ids_consistent = cc_ids == alive_ids;

    bool match = true;
    for (const Client& c : clients) {
      if (!c.alive) continue;
      if (c.extender < 0) ++res.unassociated_clients;
      const auto believed = cc.ExtenderOf(c.id);
      if (believed.value_or(-1) != c.extender) match = false;
    }
    res.clients_match_controller = match && res.ids_consistent;
    res.quiesced = cc.PendingDirectives() == 0 && res.epochs_to_quiesce > 0;
    res.final_aggregate = truth_aggregate();
    res.aggregate_ge_evacuation = margin_ok;
    res.worst_margin = std::isfinite(worst_margin) ? worst_margin : 0.0;
    res.wire_stats = plane.stats();
    res.health_stats = health.stats();
    res.directives_given_up = cc.DirectivesGivenUp();
    res.completed = true;
  } catch (const std::exception& e) {
    res.error = e.what();
  } catch (...) {
    res.error = "non-standard exception";
  }
  return res;
}

std::vector<ChaosResult> RunChaosSoakParallel(
    const ChaosParams& params, std::uint64_t base_seed, int count,
    int threads, const std::atomic<bool>* cancel) {
  std::vector<ChaosResult> out(static_cast<std::size_t>(std::max(0, count)));
  util::ThreadPool pool(threads);
  pool.ParallelFor(
      out.size(), /*chunk=*/1,
      [&](std::size_t k) { out[k] = RunChaosScenario(params, base_seed + k); },
      cancel);
  return out;
}

}  // namespace wolt::fault
