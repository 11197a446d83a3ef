// End-to-end chaos scenario driver: the §V-A control plane (clients,
// capacity probes, Central Controller) run over a lossy wire (FaultPlane)
// while extender backhauls crash, flap and drift (HealthModel), all on the
// discrete-event engine.
//
// A scenario has three phases on one simulated timeline:
//   warmup  — clean wire, users join and the controller converges;
//   faults  — wire faults + backhaul faults active, epoch reoptimizations
//             and retries keep running; some users depart mid-chaos (their
//             goodbye may be lost — staleness eviction reaps the ghosts);
//   settle  — faults stop, capacities restore, the wire is clean; the
//             control plane must reconverge and quiesce.
//
// RunChaosScenario never lets an exception escape: any throw is captured
// in ChaosResult::error, which the soak test asserts empty. The driver also
// checks the degradation invariants (see DESIGN.md "Failure semantics and
// the fault plane"): controller/client id consistency, aggregate >= the
// evacuate-dead-extenders baseline at every reoptimization, bounded churn,
// and post-fault reconvergence.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/controller.h"
#include "fault/health.h"
#include "fault/plane.h"
#include "model/evaluator.h"
#include "sim/scenario.h"

namespace wolt::fault {

struct ChaosParams {
  sim::ScenarioParams scenario;  // topology; chaos soak shrinks this
  int warmup_epochs = 2;
  int fault_epochs = 5;
  int settle_epochs = 3;
  double epoch_length = 4.0;

  double scan_interval_mean = 1.5;  // per-user re-scan period (+-50% jitter)
  double probe_interval = 2.0;      // per-extender capacity probe period
  double retry_tick = 1.0;          // retry collection cadence
  double departure_prob = 0.15;     // per-user chance to leave mid-chaos
  double stale_age = 6.0;           // ghost eviction threshold

  FaultPlaneParams wire;   // active during the fault phase only
  HealthParams health;     // active during the fault phase only
  core::RetryParams retry;
  model::EvalOptions eval;
};

// A small mixed-fault default: 8 extenders / 16 users with lossy, corrupting,
// reordering wire and crash+flap+drift backhaul faults.
ChaosParams DefaultChaosParams();

struct ChaosResult {
  // Run outcome. `error` is empty iff the scenario completed without any
  // exception escaping the control plane.
  std::string error;
  bool completed = false;

  std::size_t extenders = 0;
  std::size_t initial_users = 0;
  std::size_t surviving_users = 0;  // clients still alive at the end

  // Plumbing statistics.
  FaultPlaneStats wire_stats;
  HealthStats health_stats;
  std::size_t decode_rejects = 0;   // messages dropped at the decoders
  std::size_t status_rejects = 0;   // typed non-kOk handler statuses
  std::size_t retries_sent = 0;
  std::size_t directives_given_up = 0;
  std::size_t evictions = 0;
  std::size_t departures = 0;

  // Invariants.
  bool ids_consistent = false;      // CC user set == surviving client set
  bool clients_match_controller = false;  // believed == actual association
  std::size_t unassociated_clients = 0;   // survivors without an extender
  bool aggregate_ge_evacuation = false;   // at every reoptimization epoch
  double worst_margin = 0.0;  // min(reopt aggregate - evacuation baseline)
  std::size_t total_reassignments = 0;
  std::size_t max_epoch_reassignments = 0;
  bool quiesced = false;            // settle ended: no directives pending
  int epochs_to_quiesce = -1;       // settle epochs until quiescence
  double prefault_aggregate = 0.0;  // ground truth, end of warmup
  double final_aggregate = 0.0;     // ground truth, end of settle
};

ChaosResult RunChaosScenario(const ChaosParams& params, std::uint64_t seed);

// Runs `count` scenarios seeded base_seed, base_seed+1, ... (one fault
// universe each) on a fixed-size work-stealing thread pool. Each scenario is
// a pure function of its seed and writes only its own slot of the result
// vector, so the output is element-for-element identical at any thread
// count or completion order.
// If `cancel` is non-null and becomes true (e.g. from a SIGINT handler),
// workers stop claiming new scenarios; unrun slots stay default-constructed
// (completed=false).
std::vector<ChaosResult> RunChaosSoakParallel(
    const ChaosParams& params, std::uint64_t base_seed, int count,
    int threads, const std::atomic<bool>* cancel = nullptr);

}  // namespace wolt::fault
