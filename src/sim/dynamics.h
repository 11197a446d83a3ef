// Dynamic (online) user population for the paper's §V-E experiments:
// users arrive as a Poisson process and depart at random, the association
// policies are invoked at epoch boundaries, and per-epoch aggregate
// throughput / fairness / re-assignment counts are recorded (Figs. 6b, 6c).
// The driver models static users on healthy backhauls, as the paper does.
// Mobility runs through GenerateTrace + RunTraceFrontier (below), and
// backhaul faults through fault::RunChaosScenario and the fleet.
//
// Calibration: the paper states Poisson arrivals with "arrival rate of 3 and
// departure rate of 1" and a population trajectory of 36 -> 66 -> 102 users
// over three epochs (net ~ +33 users/epoch). We therefore use arrival rate 3
// per time unit, an epoch of 12 time units (36 expected arrivals/epoch), and
// a global departure process whose default rate of 0.25 per time unit yields
// ~3 departures/epoch — reproducing the reported net growth. All three knobs
// are parameters.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/policy.h"
#include "model/evaluator.h"
#include "sim/scenario.h"
#include "sim/workload.h"
#include "util/rng.h"

namespace wolt::sim {

struct DynamicsParams {
  double arrival_rate = 3.0;     // users per time unit
  double departure_rate = 0.25;  // departure events per time unit
  double epoch_length = 12.0;    // time units per epoch
  int epochs = 3;
  model::EvalOptions eval;
};

struct PolicyEpochStats {
  std::string policy;
  double aggregate_mbps = 0.0;
  double jain_fairness = 0.0;
  // Existing users whose extender changed at this epoch's re-association
  // (new arrivals are not counted).
  std::size_t reassignments = 0;
};

struct EpochStats {
  int epoch = 0;
  std::size_t population = 0;  // users present at the epoch boundary
  std::size_t arrivals = 0;    // users that arrived during the epoch
  std::size_t departures = 0;  // users that departed during the epoch
  std::vector<PolicyEpochStats> per_policy;
};

// Runs the birth-death process once on a shared network; every policy sees
// the identical user trace and maintains its own association. Policies are
// re-invoked at each epoch boundary with their previous association (new
// arrivals unassigned), so online baselines place only the new users while
// WOLT re-optimizes globally. Throws std::invalid_argument unless
// arrival_rate and epoch_length are finite and > 0, departure_rate is
// finite and >= 0 (0 = no departures), and epochs > 0.
std::vector<EpochStats> RunDynamicSimulation(
    const ScenarioGenerator& generator,
    const std::vector<core::AssociationPolicy*>& policies,
    const DynamicsParams& params, util::Rng& rng);

// --- Trace-driven stickiness-vs-throughput frontier ----------------------
//
// Replays a pre-generated WorkloadTrace (sim/workload.h) into a
// CentralController: scans are ingested without running the policy
// (IngestScan), departures and background capacity changes are applied as
// they occur, and the controller reoptimizes once per epoch boundary at an
// explicit ladder tier. Because the trace is fully precomputed and the
// replay draws no randomness, the outcome is a pure function of
// (base network, trace, policy, params) — byte-identical at any thread
// count, which is what lets the sweep engine parallelize frontier tasks.

// One epoch's frozen-snapshot optimum (see FrontierParams::compute_oracle).
struct EpochOracle {
  double mbps = 0.0;
  bool exact = false;  // brute force; false = the WOLT-S proxy
};

struct FrontierParams {
  double epoch_length = 12.0;  // time units between reoptimizations
  int epochs = 3;
  // Top ladder rung the controller may afford each epoch (the sweep's
  // reopt_budget axis maps budget units onto tiers via
  // core::TierForBudgetUnits). The boundary solve is the cumulative
  // ladder (ReoptimizeUpToTier): every rung within this budget competes
  // and the best-scoring candidate is committed, so throughput — and
  // regret against the fixed per-epoch oracle — is monotone in the budget.
  core::ReoptTier tier = core::ReoptTier::kFull;
  // Per-epoch oracle on the frozen snapshot: exact brute force when the
  // population is at most oracle_bf_max_users AND the relaxed search space
  // (|A|+1)^|U| fits oracle_max_combinations; WOLT-S with subset search
  // (solved from scratch, no stickiness) otherwise.
  bool compute_oracle = true;
  std::size_t oracle_bf_max_users = 9;
  std::uint64_t oracle_max_combinations = 20'000'000;
  core::RetryParams retry;
  core::QuarantineParams quarantine;  // flap-quarantine interaction knob
  model::EvalOptions eval;
  // Internal hook of the sweep engine, which shares one oracle among the
  // tasks that score the same snapshot (sweep/engine.h): when set, it
  // returns epoch `epoch`'s oracle for `snapshot`, which must equal
  // SolveFrontierOracle(snapshot, *this). Empty = solve in place.
  std::function<EpochOracle(int epoch, const model::Network& snapshot)>
      oracle;
};

struct FrontierEpoch {
  int epoch = 0;
  std::size_t population = 0;  // users known at the epoch boundary
  std::size_t arrivals = 0;
  std::size_t departures = 0;
  std::size_t moves = 0;
  double aggregate_mbps = 0.0;  // achieved at the boundary solve
  double jain_fairness = 0.0;
  // Frozen-snapshot optimum (0 when compute_oracle is off). oracle_exact
  // marks brute-force epochs; false means the WOLT-S upper-bound proxy.
  double oracle_mbps = 0.0;
  bool oracle_exact = false;
  // Previously-associated users whose extender changed at this boundary
  // (arrivals placed for the first time are not counted).
  std::size_t reassociations = 0;
  core::ReoptTier served_tier = core::ReoptTier::kFull;
  std::size_t quarantine_trips = 0;  // trips during this epoch
};

struct FrontierResult {
  std::vector<FrontierEpoch> epochs;
  double mean_aggregate_mbps = 0.0;
  double mean_oracle_mbps = 0.0;
  double mean_jain = 0.0;
  // Mean over epochs of max(0, (oracle - achieved) / oracle); 0 when the
  // oracle is disabled or the population was empty all run.
  double regret = 0.0;
  // Stickiness: total reassociations / sum over epochs of population.
  double reassoc_per_user_epoch = 0.0;
  std::size_t total_reassociations = 0;
  std::size_t quarantine_trips = 0;
  // Per-user end-to-end throughput at the final epoch boundary.
  std::vector<double> final_user_throughput_mbps;
};

// The per-epoch oracle of RunTraceFrontier on a scoring snapshot: a
// function of the snapshot's users, rates, demands, capacities, caps, PLC
// domains and extender positions and of `params`' oracle and eval fields,
// never of an assignment.
EpochOracle SolveFrontierOracle(const model::Network& snapshot,
                                const FrontierParams& params);

// `base` must be the extenders-only network the trace was generated
// against (NumUsers() == 0, NumExtenders() == trace.num_extenders); it
// supplies PLC capacities and contention domains. Throws
// std::invalid_argument on mismatched inputs or bad params.
FrontierResult RunTraceFrontier(const model::Network& base,
                                const WorkloadTrace& trace,
                                core::PolicyPtr policy,
                                const FrontierParams& params);

}  // namespace wolt::sim
