#include "sweep/engine.h"

#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "assign/joint.h"
#include "core/controller.h"
#include "core/wolt.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "recover/journal.h"
#include "sim/dynamics.h"
#include "sim/workload.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace wolt::sweep {
namespace {

recover::TaskRecord ToRecord(const TaskResult& task) {
  recover::TaskRecord rec;
  rec.index = task.spec.index;
  rec.error = task.error;
  rec.aggregate_mbps = task.aggregate_mbps;
  rec.jain_fairness = task.jain_fairness;
  rec.oracle_mbps = task.oracle_mbps;
  rec.regret = task.regret;
  rec.reassoc_per_user_epoch = task.reassoc_per_user_epoch;
  rec.quarantine_trips = task.quarantine_trips;
  rec.elapsed_us = task.elapsed_us;
  rec.user_throughput = task.user_throughput.Samples();
  rec.has_metrics = !task.metrics.Empty();
  if (rec.has_metrics) rec.metrics = task.metrics;
  return rec;
}

// Rebuilds a TaskResult slot from its journaled record. Re-Add'ing the raw
// samples in order reproduces the Accumulator's Welford state bit-exactly,
// so every downstream merge sees the same inputs as the uninterrupted run.
void FromRecord(const recover::TaskRecord& rec, const SweepGrid& grid,
                TaskResult* task) {
  task->spec = grid.TaskAt(static_cast<std::size_t>(rec.index));
  task->error = rec.error;
  task->aggregate_mbps = rec.aggregate_mbps;
  task->jain_fairness = rec.jain_fairness;
  task->oracle_mbps = rec.oracle_mbps;
  task->regret = rec.regret;
  task->reassoc_per_user_epoch = rec.reassoc_per_user_epoch;
  task->quarantine_trips = rec.quarantine_trips;
  task->elapsed_us = rec.elapsed_us;
  for (double x : rec.user_throughput) task->user_throughput.Add(x);
  if (rec.has_metrics) task->metrics = rec.metrics;
  task->completed = true;
}

// ---------------------------------------------------------------------------
// The per-run memo of shared task inputs (see "Shared inputs" in engine.h).

// Names one shared value of a Run. The grid and options are fixed for the
// Run, so the key determines the value (a frontier oracle's also needs its
// snapshot, which its slot checks byte for byte). Unused trailing entries
// are 0.
using SlotKey = std::array<std::uint64_t, 6>;

// One value that several tasks derive from the same inputs.
template <typename T>
struct Slot {
  std::size_t owner = 0;  // lowest task index in the grid that uses it
  std::size_t uses = 0;   // tasks in the grid that use it
  std::atomic<std::size_t> pending{0};  // users this Run has yet to finish
  std::mutex mu;                        // held while the value is computed
  std::optional<T> value;               // read-only once set
  obs::MetricsSnapshot work;            // the computation's metrics
};

template <typename T>
class SlotTable {
 public:
  // Counts task `index` as a user of `key`'s slot; `runs` is false for a
  // task restored from the journal.
  Slot<T>* Add(const SlotKey& key, std::size_t index, bool runs) {
    auto [it, fresh] = index_.try_emplace(key, nullptr);
    if (fresh) {
      it->second = &slots_.emplace_back();
      it->second->owner = index;
    }
    Slot<T>* slot = it->second;
    ++slot->uses;
    if (runs) slot->pending.fetch_add(1, std::memory_order_relaxed);
    return slot;
  }

 private:
  std::map<SlotKey, Slot<T>*> index_;
  std::deque<Slot<T>> slots_;  // stable addresses
};

// The policy whose plan-blind association a task uses: at num_channels == 0
// MakePolicy(kJointWolt) builds the same WoltPolicy as kWolt.
PolicyKind PlanBlindKind(PolicyKind kind) {
  return kind == PolicyKind::kJointWolt ? PolicyKind::kWolt : kind;
}

// The bytes of every field of a scoring snapshot that the frontier oracle
// can read (sim::SolveFrontierOracle): the counts; per extender its PLC
// rate, PLC domain, user cap, WiFi channel and position; per user its rate
// row and demand. Doubles go in as their bits, so equal bytes mean equal
// inputs.
std::string OracleInputBytes(const model::Network& net) {
  std::string out;
  const auto put = [&out](const auto& value) {
    out.append(reinterpret_cast<const char*>(&value), sizeof value);
  };
  const std::size_t num_ext = net.NumExtenders();
  put(net.NumUsers());
  put(num_ext);
  for (std::size_t j = 0; j < num_ext; ++j) {
    const model::Extender& e = net.ExtenderAt(j);
    put(e.plc_rate_mbps);
    put(e.plc_domain);
    put(e.max_users);
    put(e.wifi_channel);
    put(e.position.x);
    put(e.position.y);
  }
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    out.append(reinterpret_cast<const char*>(net.WifiRateRow(i)),
               num_ext * sizeof(double));
    put(net.UserDemand(i));
  }
  return out;
}

// One epoch's frontier oracle and the snapshot it was solved on.
struct SharedOracle {
  std::string snapshot;  // OracleInputBytes
  std::size_t hash = 0;  // of `snapshot`
  sim::EpochOracle oracle;
};

// The slots one task uses; null for a value it does not use or (the
// association, when SweepOptions::eval carries a plan) must not share.
struct TaskSlots {
  Slot<model::Network>* network = nullptr;
  Slot<model::Assignment>* association = nullptr;
  Slot<sim::WorkloadTrace>* trace = nullptr;
  std::vector<Slot<SharedOracle>*> oracles;  // by epoch - 1
};

class SharedInputs {
 public:
  SharedInputs(const SweepGrid& grid, const model::EvalOptions& eval,
               const std::vector<char>& restored)
      : tasks_(grid.NumTasks()) {
    // SolveJointNaive associates under `eval` with the channel plan and the
    // contention domains cleared; only when both are empty already is that
    // association the channels = 0 task's as well.
    const bool share_associations =
        eval.wifi_channel.empty() && eval.wifi_contention_domain.empty();
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      const TaskSpec spec = grid.TaskAt(i);
      const bool runs = restored.empty() || !restored[i];
      const std::uint64_t scenario = spec.scenario_ordinal;
      TaskSlots& t = tasks_[i];
      // The ordinal fixes users, extenders and replicate seed, and with
      // them the topology stream; dynamic tasks generate no users.
      t.network = networks_.Add({scenario, spec.IsDynamic(), 0, 0}, i, runs);
      if (spec.IsDynamic()) {
        // The trace seed folds in neither policy, budget nor sharing.
        if (spec.num_channels <= 0) {
          SlotKey key = {scenario, static_cast<std::uint64_t>(spec.mobility),
                         std::bit_cast<std::uint64_t>(spec.churn_rate),
                         static_cast<std::uint64_t>(spec.load)};
          t.trace = traces_.Add(key, i, runs);
          // The trace drives every scoring snapshot; the oracle scores it
          // under the task's sharing mode.
          if (grid.frontier_oracle) {
            key[4] = static_cast<std::uint64_t>(spec.sharing);
            for (int epoch = 1; epoch <= grid.frontier_epochs; ++epoch) {
              key[5] = static_cast<std::uint64_t>(epoch);
              t.oracles.push_back(oracles_.Add(key, i, runs));
            }
          }
        }
      } else if (share_associations &&
                 !(spec.num_channels > 0 &&
                   spec.policy == PolicyKind::kJointWolt)) {
        t.association = associations_.Add(
            {scenario, static_cast<std::uint64_t>(PlanBlindKind(spec.policy)),
             static_cast<std::uint64_t>(spec.sharing), 0},
            i, runs);
      }
    }
  }

  const TaskSlots& slots(std::size_t index) const { return tasks_[index]; }

 private:
  SlotTable<model::Network> networks_;
  SlotTable<model::Assignment> associations_;
  SlotTable<sim::WorkloadTrace> traces_;
  SlotTable<SharedOracle> oracles_;
  std::vector<TaskSlots> tasks_;
};

// One task's access to its inputs. Releases the task's slots on
// destruction; a slot's last user frees its value, so memory follows the
// slots in flight rather than the grid.
class TaskInputs {
 public:
  // `registry` is the task's (null unless collect_metrics).
  TaskInputs(const SharedInputs& memo, std::size_t index,
             obs::MetricsRegistry* registry)
      : slots_(memo.slots(index)), index_(index), registry_(registry) {}
  ~TaskInputs() {
    Release(slots_.network);
    Release(slots_.association);
    Release(slots_.trace);
    for (Slot<SharedOracle>* slot : slots_.oracles) Release(slot);
  }
  TaskInputs(const TaskInputs&) = delete;
  TaskInputs& operator=(const TaskInputs&) = delete;

  template <typename Compute>
  const model::Network& Network(Compute&& compute) {
    return Use(slots_.network, network_, compute);
  }
  template <typename Compute>
  const model::Assignment& Association(Compute&& compute) {
    return Use(slots_.association, association_, compute);
  }
  template <typename Compute>
  const sim::WorkloadTrace& Trace(Compute&& compute) {
    return Use(slots_.trace, trace_, compute);
  }

  // Epoch `epoch`'s frontier oracle for `snapshot`. A shared slot's value
  // is read only when the snapshot it was solved on has the same bytes as
  // this one. Otherwise `solve` runs here, charged to this task, and
  // sweep.shared.mismatched counts it.
  template <typename Solve>
  sim::EpochOracle Oracle(int epoch, const model::Network& snapshot,
                          Solve&& solve) {
    const std::size_t e = static_cast<std::size_t>(epoch - 1);
    Slot<SharedOracle>* slot =
        e < slots_.oracles.size() ? slots_.oracles[e] : nullptr;
    if (slot == nullptr || slot->uses < 2) return solve();
    std::string bytes = OracleInputBytes(snapshot);
    const std::size_t hash = std::hash<std::string_view>{}(bytes);
    // A filling call hands its bytes to the slot and needs no compare.
    const auto compute = [&] {
      return SharedOracle{std::move(bytes), hash, solve()};
    };
    const bool filled = Fill(slot, compute);
    const SharedOracle& shared = *slot->value;
    if (!filled && (shared.hash != hash || shared.snapshot != bytes)) {
      if (registry_ != nullptr) {
        registry_->GetCounter("sweep.shared.mismatched").Add(1);
      }
      return solve();
    }
    Charge(*slot);
    return shared.oracle;
  }

  // The metrics of the shared computations this task owns, whichever task
  // ran them.
  const obs::MetricsSnapshot& owned_work() const { return owned_work_; }

 private:
  template <typename T, typename Compute>
  const T& Use(Slot<T>* slot, std::optional<T>& local, Compute& compute) {
    // Inline when the memo keeps no slot for the value or no other task of
    // the grid uses it.
    if (slot == nullptr || slot->uses < 2) return local.emplace(compute());
    Fill(slot, compute);
    Charge(*slot);
    return *slot->value;
  }

  // Computes the slot's value unless another user already has; true when
  // this call computed it. The value is read-only once set.
  template <typename T, typename Compute>
  bool Fill(Slot<T>* slot, Compute& compute) {
    const std::lock_guard<std::mutex> lock(slot->mu);
    if (slot->value) return false;
    // Under its own registry, so its work lands on the owner alone and
    // the run's metrics cannot see which task got here first. A throw
    // leaves the slot empty for the next user to retry.
    if (registry_ != nullptr) {
      obs::MetricsRegistry work;
      {
        const obs::ScopedMetrics scoped(work);
        slot->value.emplace(compute());
      }
      slot->work = work.Snapshot();
    } else {
      slot->value.emplace(compute());
    }
    return true;
  }

  // Charges the slot's computation to its owner and counts this use.
  template <typename T>
  void Charge(const Slot<T>& slot) {
    const bool owner = slot.owner == index_;
    if (owner) owned_work_.Merge(slot.work);
    if (registry_ != nullptr) {
      registry_->GetCounter(owner ? "sweep.shared.computed"
                                  : "sweep.shared.reused")
          .Add(1);
    }
  }

  template <typename T>
  static void Release(Slot<T>* slot) {
    if (slot != nullptr &&
        slot->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      slot->value.reset();
      slot->work = {};
    }
  }

  const TaskSlots& slots_;
  std::size_t index_;
  obs::MetricsRegistry* registry_;
  // Values no other task uses, computed inline.
  std::optional<model::Network> network_;
  std::optional<model::Assignment> association_;
  std::optional<sim::WorkloadTrace> trace_;
  obs::MetricsSnapshot owned_work_;
};

// A record from a precomputed assignment, scored with the caller's
// evaluator (the overlap one for a channel plan): sim::EvaluateTrial minus
// the association, so every task path populates identical statistics.
sim::TrialRecord RecordFor(const model::Evaluator& evaluator,
                           const model::Network& net,
                           const model::Assignment& assignment) {
  const model::EvalResult res = evaluator.Evaluate(net, assignment);
  sim::TrialRecord record;
  record.aggregate_mbps = res.aggregate_mbps;
  record.jain_fairness = util::JainFairnessIndex(res.user_throughput_mbps);
  record.user_throughput_mbps = res.user_throughput_mbps;
  return record;
}

// One channel-plan task (spec.num_channels > 0): kJointWolt runs the
// alternating joint solver; every other policy associates plan-blind and is
// paired with an unweighted colouring (the orthogonal assumption evaluated
// under overlap). Either way the record is scored under the overlap model.
// The plan-blind association comes through `inputs`, shared with the
// scenario's other users of it.
sim::TrialRecord RunJointTask(const SweepGrid& grid, const TaskSpec& spec,
                              const model::Network& net,
                              const model::EvalOptions& eval,
                              TaskInputs& inputs) {
  assign::JointOptions jopt;
  jopt.num_channels = spec.num_channels;
  jopt.carrier_sense_range_m = grid.carrier_sense_range_m;
  jopt.eval = eval;
  assign::JointResult jr;
  if (spec.policy == PolicyKind::kJointWolt) {
    jr = assign::SolveJointAlternating(net, core::WoltJointAssociator(),
                                       jopt);
  } else {
    const auto associate = [&spec, &inputs](
                               const model::Network& n,
                               const model::EvalOptions& e,
                               const model::Assignment& previous,
                               const util::Deadline* deadline) {
      return model::Assignment(inputs.Association([&] {
        const core::PolicyPtr policy = MakePolicy(spec.policy, e);
        policy->SetDeadline(deadline);
        return policy->Associate(n, previous);
      }));
    };
    jr = assign::SolveJointNaive(net, associate, jopt);
  }
  model::EvalOptions overlap = eval;
  overlap.wifi_contention_domain.clear();
  overlap.wifi_channel = std::move(jr.channels);
  overlap.carrier_sense_range_m = grid.carrier_sense_range_m;
  return RecordFor(model::Evaluator(overlap), net, jr.assignment);
}

// One dynamic-workload task: generate the deterministic trace over the
// shared extenders-only topology, replay it through a CentralController at
// the budgeted ladder tier and return the frontier statistics. The trace
// seed folds in only the scenario coordinates plus a domain salt — never
// policy, budget or sharing — so paired policies replay identical traces,
// and the trace comes through `inputs`, generated once for all of them.
sim::FrontierResult RunFrontierTask(const SweepGrid& grid,
                                    const TaskSpec& spec,
                                    const sim::ScenarioGenerator& generator,
                                    const model::Network& net,
                                    const model::EvalOptions& eval,
                                    TaskInputs& inputs) {
  const sim::WorkloadTrace& trace = inputs.Trace([&] {
    sim::WorkloadParams wp = grid.workload;
    wp.mobility.model = spec.mobility;
    wp.arrival_rate = spec.churn_rate;
    wp.load = spec.load;
    wp.initial_users = spec.num_users;
    wp.horizon = grid.frontier_epoch_length *
                 static_cast<double>(grid.frontier_epochs);
    const std::uint64_t trace_seed = util::HashCombine64(
        util::HashCombine64(grid.master_seed, spec.seed),
        0x544b4c4f57545243ULL + spec.scenario_ordinal);  // trace-domain salt
    return sim::GenerateTrace(generator, net, wp, trace_seed);
  });

  sim::FrontierParams fp;
  fp.epoch_length = grid.frontier_epoch_length;
  fp.epochs = grid.frontier_epochs;
  fp.tier = core::TierForBudgetUnits(spec.reopt_budget);
  fp.compute_oracle = grid.frontier_oracle;
  fp.oracle_bf_max_users = grid.frontier_oracle_bf_max_users;
  fp.quarantine = grid.frontier_quarantine;
  fp.eval = eval;
  // Policy and budget change only the assignment, which the oracle never
  // reads, so the scenario's other tasks score the same snapshots; the
  // memo checks that byte for byte before sharing an epoch's oracle.
  fp.oracle = [&inputs, &fp](int epoch, const model::Network& snapshot) {
    return inputs.Oracle(epoch, snapshot, [&] {
      return sim::SolveFrontierOracle(snapshot, fp);
    });
  };
  return sim::RunTraceFrontier(net, trace, MakePolicy(spec.policy, eval), fp);
}

}  // namespace

SweepEngine::SweepEngine(SweepOptions options) : options_(std::move(options)) {}

SweepResult SweepEngine::Run(const SweepGrid& grid) {
  if (!grid.Valid()) {
    throw std::invalid_argument("SweepGrid has an empty axis");
  }
  cancel_.store(false, std::memory_order_relaxed);

  const std::size_t num_tasks = grid.NumTasks();
  SweepResult result;
  result.tasks.resize(num_tasks);

  // Checkpoint journal: restore already-completed tasks, then append each
  // task as it finishes. `restored[i]` marks slots whose bodies must not
  // re-run.
  std::unique_ptr<recover::JournalWriter> journal;
  std::vector<char> restored;
  if (!options_.journal_path.empty()) {
    recover::JournalHeader header;
    header.fingerprint = Fingerprint(grid, options_.eval);
    header.num_tasks = num_tasks;
    recover::JournalWriter::Options jopts;
    jopts.after_append = options_.after_journal_append;
    jopts.vfs = options_.vfs;
    jopts.sync_every_append = options_.journal_sync_every_append;
    bool resumed = false;
    if (options_.resume) {
      recover::JournalReadResult existing =
          recover::ReadJournal(options_.journal_path, options_.vfs);
      if (existing.ok && (existing.header.fingerprint != header.fingerprint ||
                          existing.header.num_tasks != header.num_tasks)) {
        // A *valid* journal from a different grid or evaluation model is
        // caller error, never silently discarded — resuming over it would
        // destroy good data.
        throw std::runtime_error(
            "cannot resume sweep: journal was written by a different grid "
            "or evaluation model (fingerprint or task-count mismatch): " +
            options_.journal_path);
      }
      if (existing.ok) {
        restored.assign(num_tasks, 0);
        for (const recover::TaskRecord& rec : existing.records) {
          const auto index = static_cast<std::size_t>(rec.index);
          if (index >= num_tasks || restored[index]) continue;
          FromRecord(rec, grid, &result.tasks[index]);
          restored[index] = 1;
          ++result.resumed_tasks;
        }
        journal = std::make_unique<recover::JournalWriter>(
            options_.journal_path, existing, std::move(jopts));
        resumed = true;
      } else {
        // Unreadable/headerless journal (e.g. the crash landed before the
        // header was durable): nothing to restore, restart fresh. The sweep
        // must not die because its checkpoint did.
        std::fprintf(stderr,
                     "wolt: sweep journal %s unreadable (%s); restarting "
                     "the sweep fresh\n",
                     options_.journal_path.c_str(), existing.error.c_str());
      }
    }
    if (!resumed) {
      journal = std::make_unique<recover::JournalWriter>(
          options_.journal_path, header, std::move(jopts));
    }
    // A journal that failed to open has already degraded itself (one loud
    // warning + counters); the sweep continues unjournaled.
  }

  obs::ScopedTimer run_span("sweep.run", "sweep");
  const auto wall_start = std::chrono::steady_clock::now();
  const SharedInputs shared(grid, options_.eval, restored);
  util::ThreadPool pool(options_.threads);
  const bool complete = pool.ParallelFor(
      num_tasks, options_.chunk,
      [this, &grid, &result, &journal, &restored, &shared](std::size_t index) {
        TaskResult& task = result.tasks[index];
        if (!restored.empty() && restored[index]) return;  // from journal
        task.spec = grid.TaskAt(index);
        if (options_.before_task) options_.before_task(index);

        // Per-task registry: solver/evaluator hooks on this thread feed it
        // while `scoped` is installed; the snapshot is merged in task-index
        // order after the pool drains, so the deterministic section cannot
        // observe thread count. The engine's own timing histograms register
        // through the same registry (timing-flagged -> quarantined).
        std::optional<obs::MetricsRegistry> registry;
        std::optional<obs::ScopedMetrics> scoped;
        obs::Histogram* task_hist = nullptr;
        obs::Histogram* gen_hist = nullptr;
        obs::Histogram* solve_hist = nullptr;
        if (options_.collect_metrics) {
          registry.emplace();
          scoped.emplace(*registry);
          task_hist = &registry->GetHistogram("sweep.task_latency_us",
                                              obs::kLatencyBoundsUs,
                                              /*timing=*/true);
          gen_hist = &registry->GetHistogram("sweep.phase.generate_us",
                                             obs::kLatencyBoundsUs,
                                             /*timing=*/true);
          solve_hist = &registry->GetHistogram("sweep.phase.solve_us",
                                               obs::kLatencyBoundsUs,
                                               /*timing=*/true);
        }
        TaskInputs inputs(shared, index, registry ? &*registry : nullptr);

        const auto start = std::chrono::steady_clock::now();
        {
          obs::ScopedTimer task_span("sweep.task", "sweep",
                                     obs::Tracer::Global(), task_hist);
          try {
            const TaskSpec& spec = task.spec;
            sim::ScenarioParams params = grid.base;
            // Dynamic tasks build the extenders-only topology from the
            // same stream; users come from the trace (the users-axis value
            // becomes the initial arrival batch).
            params.num_users = spec.IsDynamic() ? 0 : spec.num_users;
            params.num_extenders = spec.num_extenders;
            const sim::ScenarioGenerator generator(params);
            const model::Network* net = nullptr;
            {
              obs::ScopedTimer span("sweep.generate", "sweep",
                                    obs::Tracer::Global(), gen_hist);
              net = &inputs.Network([&] {
                // Topology stream: a pure function of (master seed,
                // replicate seed value, scenario coordinates). Policy and
                // sharing axes do not enter, so paired policies see
                // identical networks.
                util::Rng rng = util::Rng::Substream(
                    util::HashCombine64(grid.master_seed, spec.seed),
                    spec.scenario_ordinal);
                return generator.Generate(rng);
              });
            }

            model::EvalOptions eval = options_.eval;
            eval.plc_sharing = spec.sharing;

            sim::TrialRecord record;
            {
              obs::ScopedTimer span("sweep.solve", "sweep",
                                    obs::Tracer::Global(), solve_hist);
              if (spec.IsDynamic()) {
                if (spec.num_channels > 0) {
                  throw std::invalid_argument(
                      "dynamic-workload axes are incompatible with the "
                      "channels axis");
                }
                const sim::FrontierResult fr = RunFrontierTask(
                    grid, spec, generator, *net, eval, inputs);
                record.aggregate_mbps = fr.mean_aggregate_mbps;
                record.jain_fairness = fr.mean_jain;
                record.user_throughput_mbps = fr.final_user_throughput_mbps;
                task.oracle_mbps = fr.mean_oracle_mbps;
                task.regret = fr.regret;
                task.reassoc_per_user_epoch = fr.reassoc_per_user_epoch;
                task.quarantine_trips = fr.quarantine_trips;
              } else if (spec.num_channels > 0) {
                record = RunJointTask(grid, spec, *net, eval, inputs);
              } else {
                // sim::EvaluateTrial, with the association shared.
                const model::Assignment& assignment =
                    inputs.Association([&] {
                      return MakePolicy(spec.policy, eval)
                          ->AssociateFresh(*net);
                    });
                record = RecordFor(model::Evaluator(eval), *net, assignment);
              }
            }
            task.aggregate_mbps = record.aggregate_mbps;
            task.jain_fairness = record.jain_fairness;
            for (double x : record.user_throughput_mbps) {
              task.user_throughput.Add(x);
            }
            if (registry) {
              registry->GetCounter("sweep.tasks.completed").Add(1);
            }
          } catch (const std::exception& e) {
            task.error = e.what();
            if (registry) {
              registry->GetCounter("sweep.tasks.failed").Add(1);
            }
          }
        }
        task.elapsed_us =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (registry) {
          scoped.reset();  // uninstall before reading
          task.metrics = registry->Snapshot();
          task.metrics.Merge(inputs.owned_work());
        }
        task.completed = true;
        if (journal) journal->Append(ToRecord(task));
      },
      &cancel_);
  if (journal) {
    journal->Close();  // final flush + fsync, even on cancel
    result.journal_degraded = journal->degraded();
  }
  result.cancelled = !complete;
  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  // Merge strictly in task-index order: the one place results are combined,
  // and the reason thread count cannot leak into the merged statistics.
  result.groups.resize(grid.NumConfigs());
  for (const TaskResult& task : result.tasks) {
    if (!task.completed || !task.error.empty()) continue;
    GroupStats& group = result.groups[task.spec.config_index];
    if (group.aggregate_mbps.Count() == 0) {
      group.num_users = task.spec.num_users;
      group.num_extenders = task.spec.num_extenders;
      group.sharing = task.spec.sharing;
      group.policy = task.spec.policy;
      group.num_channels = task.spec.num_channels;
      group.mobility = task.spec.mobility;
      group.churn_rate = task.spec.churn_rate;
      group.load = task.spec.load;
      group.reopt_budget = task.spec.reopt_budget;
    }
    group.aggregate_mbps.Add(task.aggregate_mbps);
    group.jain.Add(task.jain_fairness);
    group.user_throughput.Merge(task.user_throughput);
    group.oracle_mbps.Add(task.oracle_mbps);
    group.regret.Add(task.regret);
    group.reassoc.Add(task.reassoc_per_user_epoch);
  }

  if (options_.collect_metrics) {
    // Same rule as the group fold: strictly task-index order. Counter and
    // histogram merges are commutative anyway; the ordered fold keeps the
    // guarantee independent of that property.
    for (const TaskResult& task : result.tasks) {
      if (!task.completed) continue;
      result.metrics.Merge(task.metrics);
    }
    // Engine-level scheduling telemetry: thread-count/wall-clock dependent
    // by nature, so every entry is timing-flagged.
    obs::MetricsRegistry engine_reg;
    engine_reg.GetGauge("sweep.threads", /*timing=*/true)
        .Set(static_cast<double>(pool.size()));
    engine_reg.GetGauge("sweep.steals", /*timing=*/true)
        .Set(static_cast<double>(pool.StealCount()));
    engine_reg.GetGauge("sweep.wall_seconds", /*timing=*/true)
        .Set(result.wall_seconds);
    result.metrics.Merge(engine_reg.Snapshot());
  }
  return result;
}

std::vector<sim::PolicyTrials> ToPolicyTrials(const SweepGrid& grid,
                                              const SweepResult& result) {
  if (grid.users.size() != 1 || grid.extenders.size() != 1 ||
      grid.sharing.size() != 1 || grid.num_channels.size() != 1 ||
      grid.mobility.size() != 1 || grid.churn_rates.size() != 1 ||
      grid.load_curves.size() != 1 || grid.reopt_budgets.size() != 1) {
    throw std::invalid_argument(
        "ToPolicyTrials needs a single-configuration grid (policy axis "
        "excepted)");
  }
  if (result.cancelled) {
    throw std::invalid_argument("ToPolicyTrials on a cancelled sweep");
  }
  std::vector<sim::PolicyTrials> trials(grid.policies.size());
  for (std::size_t p = 0; p < grid.policies.size(); ++p) {
    trials[p].policy = ToString(grid.policies[p]);
    trials[p].trials.reserve(grid.seeds.size());
  }
  // Seed is the innermost axis, so scanning tasks in index order appends
  // each policy's replicates in seed order.
  for (const TaskResult& task : result.tasks) {
    if (!task.error.empty()) {
      throw std::runtime_error("sweep task failed: " + task.error);
    }
    sim::TrialRecord record;
    record.aggregate_mbps = task.aggregate_mbps;
    record.jain_fairness = task.jain_fairness;
    // Accumulator samples preserve insertion order = user index order.
    record.user_throughput_mbps = task.user_throughput.Samples();
    const std::size_t p = task.spec.config_index % grid.policies.size();
    trials[p].trials.push_back(std::move(record));
  }
  return trials;
}

}  // namespace wolt::sweep
