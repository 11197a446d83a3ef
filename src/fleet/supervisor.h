// Per-shard failure supervision: restart with capped exponential backoff,
// a crash-loop circuit breaker, and half-open probes of parked shards.
//
// The supervisor never touches a shard itself — it is a deterministic state
// machine over (round number, failure evidence) that tells the runtime what
// to do. Time is measured in fleet rounds, not wall clock, so every
// supervision decision replays identically across thread counts and across
// crash/resume.
//
// The restart-vs-circuit-break decision keys on core::ErrorCategory (the
// machine-readable half of HandleStatus): wire faults are only evidence of a
// bad *wire* and must be sustained (a decode storm, several rounds running)
// before they justify a restart, while a programming error — an exception
// escaping the shard boundary, a broken invariant — indicts the shard state
// itself and triggers the restart path immediately. Repeated restarts inside
// the crash-loop window trip the breaker: the shard is parked in Degraded
// (clients hold their last-good directives; its messages are discarded)
// instead of burning the fleet's budget on a hopeless restart loop. After
// `probe_after` parked rounds the shard gets one half-open probation round;
// a clean round recovers it, any failure re-parks it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/controller.h"

namespace wolt::util {
class ByteCursor;
}  // namespace wolt::util

namespace wolt::fleet {

// Externally visible health of one shard.
enum class ShardState {
  kHealthy = 0,
  kBackoff,    // restart ordered, waiting out the backoff; controller down
  kDegraded,   // circuit broken: parked, holding last-good directives
  kProbation,  // half-open: one trial round after a degraded hold
};
const char* ToString(ShardState s);

// Why a shard failure event fired.
enum class FailureKind {
  kDecodeStorm = 0,  // undecodable-message count crossed the storm threshold
  kException,        // an exception crossed the shard's total boundary
  kInvariant,        // cross-shard/state invariant violated
};
const char* ToString(FailureKind k);

struct FailureEvent {
  FailureKind kind = FailureKind::kException;
  core::ErrorCategory category = core::ErrorCategory::kProgrammingError;
  std::string detail;
};

struct SupervisorParams {
  // Consecutive decode-storm rounds tolerated before a restart is ordered.
  int storm_tolerance = 1;
  // Restart backoff in rounds: first restart waits `backoff_initial`,
  // doubling (by `backoff_multiplier`) per subsequent restart, capped at
  // `backoff_max`. A recovery (clean probation round) resets it.
  std::uint64_t backoff_initial = 1;
  double backoff_multiplier = 2.0;
  std::uint64_t backoff_max = 8;
  // Circuit breaker: this many executed restarts within `crash_loop_window`
  // rounds parks the shard in Degraded.
  int crash_loop_threshold = 3;
  std::uint64_t crash_loop_window = 12;
  // Degraded rounds before a half-open probation round is granted.
  std::uint64_t probe_after = 6;
};

// What the runtime must do with a shard right now.
enum class SupervisorAction {
  kNone = 0,
  kRestart,       // BeginRound: backoff elapsed — restart the controller now
  kProbe,         // BeginRound: degraded hold elapsed — run one trial round
  kCircuitBreak,  // ObserveFailures: park the shard, capture held directives
  kRecover,       // ObserveFailures: probation round was clean — back in rotation
};

class Supervisor {
 public:
  Supervisor(SupervisorParams params, std::size_t num_shards);

  std::size_t num_shards() const { return cells_.size(); }
  ShardState state(std::size_t shard) const { return cells_[shard].state; }

  // Phase 1 of a round, before dispatch: executes round-driven transitions.
  // Returns kRestart (backoff elapsed; the runtime must restart the shard's
  // controller before dispatching to it), kProbe (degraded hold elapsed;
  // the shard runs this round on probation), or kNone.
  SupervisorAction BeginRound(std::size_t shard, std::uint64_t round);

  // Phase 2, after the shard's processing and reoptimization: feed the
  // round's failure evidence. Returns kCircuitBreak when the shard just
  // tripped the breaker (the runtime captures the held directives), kRecover
  // when a probation round came back clean, else kNone.
  SupervisorAction ObserveFailures(std::size_t shard, std::uint64_t round,
                                   const std::vector<FailureEvent>& failures);

  std::uint64_t Restarts(std::size_t shard) const {
    return cells_[shard].restarts;
  }
  std::uint64_t CircuitBreaks(std::size_t shard) const {
    return cells_[shard].breaks;
  }
  std::uint64_t Probes(std::size_t shard) const { return cells_[shard].probes; }
  std::uint64_t TotalRestarts() const;
  std::uint64_t TotalCircuitBreaks() const;
  std::uint64_t TotalProbes() const;

  void SaveState(std::string* out) const;
  bool RestoreState(util::ByteCursor* cur);

 private:
  struct Cell {
    ShardState state = ShardState::kHealthy;
    int consecutive_storms = 0;
    std::uint64_t backoff = 0;      // current backoff length (rounds)
    std::uint64_t restart_at = 0;   // kBackoff: round the restart executes
    std::uint64_t degraded_since = 0;
    std::vector<std::uint64_t> restart_rounds;  // executed, within window
    std::uint64_t restarts = 0;
    std::uint64_t breaks = 0;
    std::uint64_t probes = 0;
  };

  void Park(Cell& cell, std::uint64_t round);

  SupervisorParams params_;
  std::vector<Cell> cells_;
};

}  // namespace wolt::fleet
