// Declarative experiment grids for the parallel sweep engine: the cartesian
// product of a replicate-seed axis and four scenario/algorithm axes (users,
// extenders, PLC sharing mode, association policy), flattened into a dense
// task index space that the engine's thread pool chunks over.
//
// Axis order (outermost to innermost): users, extenders, sharing, channels,
// mobility, churn, load, budget, policy, seed. The seed axis is innermost
// so each configuration's replicates are contiguous, and a task's
// *scenario* coordinates (users, extenders, seed) — but not its policy,
// sharing mode, channel count or dynamic coordinates —
// determine the topology RNG stream: every algorithm axis value sees the
// identical network for a given replicate, which keeps paired comparisons
// (win counts, per-user deltas) meaningful, exactly as the sequential
// runner's shared-network trials do.
//
// The channels axis (num_channels) selects the channel-plan model per task:
// 0 = the paper's orthogonal assumption (no plan, no overlap — the
// pre-existing behaviour), k > 0 = only k orthogonal channels exist, a plan
// is computed per task and the score is taken under the overlap model
// (EvalOptions::wifi_channel). See src/assign/joint.h.
//
// Dynamic-workload axes (mobility, churn_rates, load_curves, reopt_budgets)
// select the trace-driven frontier path per task: any non-default value
// makes the task generate a WorkloadTrace (sim/workload.h) over the shared
// topology and replay it through a CentralController via
// sim::RunTraceFrontier, scoring mean achieved throughput, per-epoch-oracle
// regret and the reassociation (stickiness) rate. The all-default axes
// ({kStatic}, {0}, {kConstant}, {0}) preserve pre-existing static grids
// bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/controller.h"
#include "core/policy.h"
#include "model/evaluator.h"
#include "sim/scenario.h"
#include "sim/workload.h"

namespace wolt::sweep {

// The association policies a sweep can fan out over (constructed fresh per
// task — policy instances hold scratch state and are not shared across
// threads).
// kJointWolt runs the alternating joint association + channel-assignment
// solver (assign::SolveJointAlternating over the WOLT associator) when the
// task's num_channels > 0; with num_channels == 0 it degenerates to kWolt.
// The other kinds associate plan-blind; under num_channels > 0 their
// assignment is paired with an unweighted greedy colouring and scored under
// overlap (assign::SolveJointNaive — the retired assumption made explicit).
enum class PolicyKind { kWolt, kWoltSubset, kGreedy, kRssi, kJointWolt };

const char* ToString(PolicyKind kind);

// Fresh policy instance. `eval` parameterizes WOLT's internal candidate
// scoring (the subset search evaluates under the same sharing model the
// task is scored with); baselines ignore it.
core::PolicyPtr MakePolicy(PolicyKind kind, const model::EvalOptions& eval);

// One decoded grid point.
struct TaskSpec {
  std::size_t index = 0;         // dense task index in [0, NumTasks())
  std::size_t config_index = 0;  // index ignoring the seed axis
  std::uint64_t seed = 0;        // replicate-seed axis *value*
  std::size_t seed_ordinal = 0;  // position on the seed axis
  std::size_t num_users = 0;
  std::size_t num_extenders = 0;
  model::PlcSharing sharing = model::PlcSharing::kMaxMinActive;
  PolicyKind policy = PolicyKind::kWolt;
  int num_channels = 0;  // 0 = orthogonal assumption (no plan)
  // Dynamic-workload coordinates (defaults = the static path).
  sim::MobilityModel mobility = sim::MobilityModel::kStatic;
  double churn_rate = 0.0;  // trace arrival rate (users per time unit)
  sim::LoadCurve load = sim::LoadCurve::kConstant;
  // Reoptimization budget in ladder units (core::TierForBudgetUnits);
  // 0 = unbudgeted (kFull).
  int reopt_budget = 0;
  // Ordinal over (users, extenders, seed) only — the topology stream index
  // shared by every policy/sharing/channels combination of the same
  // replicate.
  std::size_t scenario_ordinal = 0;

  // True when any dynamic axis left its default: the task runs the
  // trace-driven frontier instead of the one-shot static solve.
  bool IsDynamic() const {
    return mobility != sim::MobilityModel::kStatic || churn_rate > 0.0 ||
           load != sim::LoadCurve::kConstant || reopt_budget != 0;
  }
};

struct SweepGrid {
  // Master seed of the whole sweep; per-task streams are splitmix-jumps of
  // HashCombine64(master_seed, seed-axis value) at the scenario ordinal.
  std::uint64_t master_seed = 1;

  std::vector<std::uint64_t> seeds;            // replicate axis (values
                                               // should be distinct)
  std::vector<std::size_t> users;
  std::vector<std::size_t> extenders;
  std::vector<model::PlcSharing> sharing;
  // Channel-plan axis: 0 keeps the orthogonal assumption, k > 0 restricts
  // the plan to k channels (see the header comment). The default single 0
  // preserves pre-existing grids bit-for-bit.
  std::vector<int> num_channels{0};
  std::vector<PolicyKind> policies;
  // Co-channel contention radius shared by every num_channels > 0 task.
  double carrier_sense_range_m = 60.0;

  // Dynamic-workload axes. The defaults are the identity point: a grid
  // that leaves all four untouched decodes and runs exactly as before.
  std::vector<sim::MobilityModel> mobility{sim::MobilityModel::kStatic};
  std::vector<double> churn_rates{0.0};  // trace arrival rate per time unit
  std::vector<sim::LoadCurve> load_curves{sim::LoadCurve::kConstant};
  std::vector<int> reopt_budgets{0};  // ladder units; 0 = kFull

  // Shared workload knobs for dynamic tasks. Per task, `arrival_rate`,
  // `mobility.model`, `load` and `initial_users` are overridden by the axis
  // values (initial_users from the users axis); `horizon` is derived from
  // the frontier epochs. Everything else (speeds, session length, demand
  // curve shape, background traffic) comes from here.
  sim::WorkloadParams workload;
  double frontier_epoch_length = 12.0;
  int frontier_epochs = 3;
  bool frontier_oracle = true;  // per-epoch oracle + regret columns
  std::size_t frontier_oracle_bf_max_users = 9;
  core::QuarantineParams frontier_quarantine;  // default: quarantine off

  // Geometry / PHY / PLC knobs shared by every grid point; num_users and
  // num_extenders are overridden per task.
  sim::ScenarioParams base;

  // Convenience: seeds = {0, 1, ..., n-1}.
  void SeedRange(std::size_t n);

  bool Valid() const;  // every axis non-empty
  std::size_t NumTasks() const;
  std::size_t NumConfigs() const;  // NumTasks() / seeds.size()
  // Decodes `index`; requires Valid() and index < NumTasks().
  TaskSpec TaskAt(std::size_t index) const;
};

// Order-sensitive hash of everything in a grid that determines a sweep's
// task space and per-task results: master seed, every axis (lengths and
// values), and the shared scenario parameters, rate table included.
std::uint64_t Fingerprint(const SweepGrid& grid);

// Fingerprint(grid) with the evaluation options every task shares mixed in:
// the channel plan, the contention domains and the carrier-sense range
// (plc_sharing is not, since the sharing axis overrides it per task).
// Stamped into the checkpoint journal header, so a journal can never be
// resumed against a different grid or evaluation model.
std::uint64_t Fingerprint(const SweepGrid& grid,
                          const model::EvalOptions& eval);

}  // namespace wolt::sweep
