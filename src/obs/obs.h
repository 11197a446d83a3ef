// Instrumentation hook layer: how the hot code paths (model/Evaluator, the
// assign/ solvers, core/controller, sweep/Engine) report into a
// MetricsRegistry without paying registry lookups per event.
//
// Usage at an instrumentation site:
//
//   if (obs::MetricsScope* s = obs::CurrentScope()) {
//     s->solver.swap_evaluated.Add(1);
//   }
//
// A MetricsScope pre-resolves every hook counter against one registry (a
// handful of mutex-guarded lookups, paid once per ScopedMetrics install —
// e.g. once per sweep task); the hot path is then one thread-local load,
// one branch, and a relaxed atomic add. With no scope installed the hooks
// cost the load+branch only, so un-instrumented runs (every existing test
// and bench) are unaffected.
//
// Compile-time kill switch: building with -DWOLT_OBS=OFF (CMake) defines
// WOLT_OBS_ENABLED=0, CurrentScope() becomes a constexpr nullptr, and every
// hook folds to dead code — zero overhead, verified by the bench guard in
// bench_scaling_runtime.cc. The obs library itself (metrics, tracer) always
// builds; only the hooks vanish.
#pragma once

#include <cstdint>

#include "obs/metrics.h"

#ifndef WOLT_OBS_ENABLED
#define WOLT_OBS_ENABLED 1
#endif

namespace wolt::obs {

// Shared bucket edges for timing histograms: latency decades, 1µs..10s.
// Everything that registers a *_us histogram uses these bounds so per-task
// snapshots always merge cleanly.
inline constexpr double kLatencyBoundsUs[] = {1.0, 10.0, 100.0, 1000.0,
                                              1e4, 1e5,  1e6,   1e7};

#if WOLT_OBS_ENABLED

// --- Hook counter bundles, resolved once per scope ----------------------

// model/Evaluator: work volume and bottleneck attribution.
struct EvalCounters {
  explicit EvalCounters(MetricsRegistry& r);
  Counter& evaluations;          // full Evaluate() calls
  Counter& bottleneck_wifi;      // per-extender tallies per evaluation
  Counter& bottleneck_plc;
  Counter& bottleneck_balanced;
  Counter& bottleneck_idle;
  Counter& dead_backhaul;        // extenders skipped for a dead PLC link
  Counter& maxmin_rounds;        // progressive-filling rebalance iterations
};

// assign/ solvers: Hungarian, Phase-II local search, NLP.
struct SolverCounters {
  explicit SolverCounters(MetricsRegistry& r);
  Counter& hungarian_solves;
  Counter& hungarian_augment_steps;

  // Candidate accounting for the relocation and swap stages. Invariant
  // (asserted per-instance by tests/solver_differential_test.cc): every
  // generated candidate is either pruned or evaluated, and only evaluated
  // candidates can be accepted.
  Counter& relocate_generated;
  Counter& relocate_pruned;
  Counter& relocate_evaluated;
  Counter& relocate_accepted;
  Counter& swap_generated;
  Counter& swap_pruned;
  Counter& swap_evaluated;
  Counter& swap_accepted;
  Counter& ls_passes;
  Counter& ls_memo_skips;   // whole user scans skipped by mutation memos
  Counter& ls_inserts;      // greedy-insertion placements

  Counter& nlp_solves;
  Counter& nlp_iterations;  // accepted ascent steps
  Counter& nlp_backtracks;  // rejected trial steps

  // util::SolverArena block growth. Flat across a window of solves ==
  // those solves ran allocation-free (the steady-state assertion of
  // tests/solver_differential_test.cc).
  Counter& arena_grows;
  Counter& arena_block_bytes;

  // In-solve parallel multi-start: total starts searched and how many of
  // them ran under a thread pool (0 for the serial path).
  Counter& ls_starts;
  Counter& ls_parallel_starts;
};

// core/CentralController: control-plane traffic and safety valves.
struct ControllerCounters {
  explicit ControllerCounters(MetricsRegistry& r);
  Counter& directives_sent;      // first transmissions
  Counter& directives_retried;   // retransmissions from CollectRetries
  Counter& directives_given_up;
  Counter& acks;                 // accepted (pending directive cleared)
  Counter& acks_stale;           // superseded/duplicate acks ignored
  Counter& evictions;            // stale users reaped
  Counter& reopt_guard_trips;    // do-no-harm fallback taken
  Counter& policy_runs;
  // Scan updates served without a policy run: the policy declared itself a
  // fixed point of rate-only inputs and none of them changed.
  Counter& scans_skipped;
  // Degradation ladder: which tier served each reoptimization epoch.
  Counter& reopt_tier_full;      // full policy served
  Counter& reopt_tier_hungarian; // Hungarian-only fallback served
  Counter& reopt_tier_greedy;    // greedy re-association served
  Counter& reopt_tier_hold;      // held last-good assignment
  // Flap quarantine: oscillating backhauls forced out of reoptimization.
  Counter& quarantine_trips;
  Counter& quarantine_releases;
};

// assign/joint: the alternating association + channel-assignment solver.
struct JointCounters {
  explicit JointCounters(MetricsRegistry& r);
  Counter& solves;          // SolveJointAlternating entries
  Counter& rounds;          // alternating rounds executed
  Counter& recolours;       // weighted recolour half-steps taken
  Counter& improvements;    // rounds whose candidate beat the incumbent
  Counter& converged;       // solves ending at a fixed point
  Counter& deadline_hits;   // solves truncated by deadline expiry
  Counter& bf_plans;        // channel plans enumerated by the joint BF
};

// fleet/Runtime: multi-building ingestion, shedding and supervision. The
// shed counters are the observable half of the overload contract: every
// message the bounded queue dropped is accounted here, per message class.
struct FleetCounters {
  explicit FleetCounters(MetricsRegistry& r);
  Counter& enqueued;             // messages accepted by the fleet queue
  Counter& delivered;            // messages drained into a shard batch
  Counter& shed_total;           // fleet.shed.messages (all classes)
  Counter& shed_scan;            // fleet.shed.scan
  Counter& shed_directive;       // fleet.shed.directive
  Counter& shed_capacity;        // fleet.shed.capacity
  Counter& shed_ack;             // fleet.shed.ack
  Counter& shed_departure;       // fleet.shed.departure
  Counter& dropped_unavailable;  // dropped: shard degraded or restarting
  Counter& restarts;             // supervisor-ordered shard restarts
  Counter& circuit_breaks;       // crash loops parked in Degraded
  Counter& probes;               // half-open probes of degraded shards
  Counter& reopt_scheduled;      // per-shard reoptimizations scheduled
};

// sim/workload + frontier replay: trace generation volume and the
// stickiness-frontier epoch accounting (oracle solves, reassociations).
struct WorkloadCounters {
  explicit WorkloadCounters(MetricsRegistry& r);
  Counter& traces;              // GenerateTrace calls
  Counter& events;              // total trace events generated
  Counter& arrivals;
  Counter& departures;
  Counter& moves;
  Counter& load_updates;        // offered-load curve samples/flips
  Counter& background_updates;  // contention-domain busy-share flips
  Counter& replay_events;       // trace events fed into a controller
  Counter& epochs;              // frontier reoptimization epochs
  Counter& oracle_solves;       // frontier oracle solves (shared: once)
  Counter& oracle_exact;        // ...of which were exact brute force
  Counter& reassociations;      // sticky users redirected at a boundary
};

// sweep/Engine: task accounting plus per-phase latency histograms. The
// histograms are timing-flagged — wall-clock is the one thread-count-
// dependent signal a sweep produces, and the deterministic snapshot section
// must exclude it (tests/obs_golden_test.cc).
struct SweepCounters {
  explicit SweepCounters(MetricsRegistry& r);
  Counter& tasks_completed;
  Counter& tasks_failed;
  Histogram& task_latency_us;       // timing
  Histogram& phase_generate_us;     // timing: scenario generation
  Histogram& phase_solve_us;        // timing: associate + evaluate
};

// io/vfs + util/fileio: storage-layer retries and audited write failures.
// write_errors is the headline "an artefact failed to persist" signal; the
// errno-classified splits let an operator tell disk-full from medium error.
struct IoCounters {
  explicit IoCounters(MetricsRegistry& r);
  Counter& write_errors;         // io.write_errors (all audited failures)
  Counter& write_errors_enospc;  // io.write_errors.enospc (ENOSPC/EDQUOT)
  Counter& write_errors_eio;     // io.write_errors.eio
  Counter& write_errors_other;   // io.write_errors.other
  Counter& retries_eintr;        // io.retries.eintr (write/fsync retried)
  Counter& short_writes;         // io.short_writes (partial write continued)
};

// recover/log, per journal: graceful-degradation accounting. io_error
// counts failed appends; degraded counts the one-way flips into best-effort
// (journaling-disabled) mode; rot_truncated/torn_tail classify what replay
// discarded from the tail of a damaged journal.
struct LogCounters {
  LogCounters(MetricsRegistry& r, std::string_view prefix);
  Counter& io_error;       // <prefix>.io_error
  Counter& degraded;       // <prefix>.degraded
  Counter& rot_truncated;  // <prefix>.rot_truncated
  Counter& torn_tail;      // <prefix>.torn_tail
};
struct RecoverCounters {
  explicit RecoverCounters(MetricsRegistry& r);
  LogCounters journal;              // recover.journal.* (sweep journal)
  LogCounters fleet;                // recover.fleet.* (fleet journal)
};

// Every hook bundle bound to one registry.
struct MetricsScope {
  explicit MetricsScope(MetricsRegistry& r)
      : registry(r), eval(r), solver(r), joint(r), ctrl(r), fleet(r),
        workload(r), sweep(r), io(r), recover(r) {}
  MetricsRegistry& registry;
  EvalCounters eval;
  SolverCounters solver;
  JointCounters joint;
  ControllerCounters ctrl;
  FleetCounters fleet;
  WorkloadCounters workload;
  SweepCounters sweep;
  IoCounters io;
  RecoverCounters recover;
};

namespace internal {
inline thread_local MetricsScope* tls_scope = nullptr;
}  // namespace internal

// The calling thread's active scope, or nullptr when instrumentation is
// off. Hot-path contract: one thread-local load.
inline MetricsScope* CurrentScope() { return internal::tls_scope; }

// The registry behind the calling thread's scope, or nullptr. Lets a
// parallel region re-install the caller's registry on its worker threads
// (counter updates commute, so totals stay thread-count-independent).
inline MetricsRegistry* CurrentRegistry() {
  MetricsScope* s = CurrentScope();
  return s ? &s->registry : nullptr;
}

// RAII install of a scope on the calling thread. Nests: the previous scope
// is restored on destruction (an inner ScopedMetrics shadows, not merges).
class ScopedMetrics {
 public:
  explicit ScopedMetrics(MetricsRegistry& registry)
      : scope_(registry), prev_(internal::tls_scope) {
    internal::tls_scope = &scope_;
  }
  ~ScopedMetrics() { internal::tls_scope = prev_; }

  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

  MetricsScope& scope() { return scope_; }

 private:
  MetricsScope scope_;
  MetricsScope* prev_;
};

#else  // WOLT_OBS_ENABLED == 0: hooks compile to nothing.

struct NoopCounter {
  void Add(std::uint64_t = 1) const {}
};
struct NoopHistogram {
  void Observe(double) const {}
};

struct EvalCounters {
  NoopCounter evaluations, bottleneck_wifi, bottleneck_plc,
      bottleneck_balanced, bottleneck_idle, dead_backhaul, maxmin_rounds;
};
struct SolverCounters {
  NoopCounter hungarian_solves, hungarian_augment_steps, relocate_generated,
      relocate_pruned, relocate_evaluated, relocate_accepted, swap_generated,
      swap_pruned, swap_evaluated, swap_accepted, ls_passes, ls_memo_skips,
      ls_inserts, nlp_solves, nlp_iterations, nlp_backtracks, arena_grows,
      arena_block_bytes, ls_starts, ls_parallel_starts;
};
struct ControllerCounters {
  NoopCounter directives_sent, directives_retried, directives_given_up,
      acks, acks_stale, evictions, reopt_guard_trips, policy_runs,
      scans_skipped, reopt_tier_full, reopt_tier_hungarian, reopt_tier_greedy,
      reopt_tier_hold, quarantine_trips, quarantine_releases;
};
struct JointCounters {
  NoopCounter solves, rounds, recolours, improvements, converged,
      deadline_hits, bf_plans;
};
struct FleetCounters {
  NoopCounter enqueued, delivered, shed_total, shed_scan, shed_directive,
      shed_capacity, shed_ack, shed_departure, dropped_unavailable, restarts,
      circuit_breaks, probes, reopt_scheduled;
};
struct WorkloadCounters {
  NoopCounter traces, events, arrivals, departures, moves, load_updates,
      background_updates, replay_events, epochs, oracle_solves, oracle_exact,
      reassociations;
};
struct SweepCounters {
  NoopCounter tasks_completed, tasks_failed;
  NoopHistogram task_latency_us, phase_generate_us, phase_solve_us;
};
struct IoCounters {
  NoopCounter write_errors, write_errors_enospc, write_errors_eio,
      write_errors_other, retries_eintr, short_writes;
};
struct LogCounters {
  NoopCounter io_error, degraded, rot_truncated, torn_tail;
};
struct RecoverCounters {
  LogCounters journal;
  LogCounters fleet;
};

struct MetricsScope {
  EvalCounters eval;
  SolverCounters solver;
  JointCounters joint;
  ControllerCounters ctrl;
  FleetCounters fleet;
  WorkloadCounters workload;
  SweepCounters sweep;
  IoCounters io;
  RecoverCounters recover;
};

constexpr MetricsScope* CurrentScope() { return nullptr; }
constexpr MetricsRegistry* CurrentRegistry() { return nullptr; }

// Accepts and ignores a registry so call sites compile unchanged; the
// registry stays empty (snapshots of an un-hooked run report nothing).
class ScopedMetrics {
 public:
  explicit ScopedMetrics(MetricsRegistry&) {}
};

#endif  // WOLT_OBS_ENABLED

}  // namespace wolt::obs
