#include "fleet/supervisor.h"

#include <algorithm>
#include <cmath>

#include "obs/obs.h"
#include "util/codec.h"

namespace wolt::fleet {

const char* ToString(ShardState s) {
  switch (s) {
    case ShardState::kHealthy:
      return "healthy";
    case ShardState::kBackoff:
      return "backoff";
    case ShardState::kDegraded:
      return "degraded";
    case ShardState::kProbation:
      return "probation";
  }
  return "?";
}

const char* ToString(FailureKind k) {
  switch (k) {
    case FailureKind::kDecodeStorm:
      return "decode-storm";
    case FailureKind::kException:
      return "exception";
    case FailureKind::kInvariant:
      return "invariant";
  }
  return "?";
}

Supervisor::Supervisor(SupervisorParams params, std::size_t num_shards)
    : params_(params), cells_(num_shards) {
  for (Cell& cell : cells_) cell.backoff = params_.backoff_initial;
}

SupervisorAction Supervisor::BeginRound(std::size_t shard,
                                        std::uint64_t round) {
  Cell& cell = cells_[shard];
  switch (cell.state) {
    case ShardState::kBackoff:
      if (round >= cell.restart_at) {
        cell.restart_rounds.push_back(round);
        ++cell.restarts;
        cell.state = ShardState::kHealthy;
        if (obs::MetricsScope* s = obs::CurrentScope()) {
          s->fleet.restarts.Add(1);
        }
        return SupervisorAction::kRestart;
      }
      return SupervisorAction::kNone;
    case ShardState::kDegraded:
      if (round - cell.degraded_since >= params_.probe_after) {
        cell.state = ShardState::kProbation;
        ++cell.probes;
        if (obs::MetricsScope* s = obs::CurrentScope()) {
          s->fleet.probes.Add(1);
        }
        return SupervisorAction::kProbe;
      }
      return SupervisorAction::kNone;
    case ShardState::kHealthy:
    case ShardState::kProbation:
      return SupervisorAction::kNone;
  }
  return SupervisorAction::kNone;
}

void Supervisor::Park(Cell& cell, std::uint64_t round) {
  cell.state = ShardState::kDegraded;
  cell.degraded_since = round;
  cell.consecutive_storms = 0;
  ++cell.breaks;
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->fleet.circuit_breaks.Add(1);
  }
}

SupervisorAction Supervisor::ObserveFailures(
    std::size_t shard, std::uint64_t round,
    const std::vector<FailureEvent>& failures) {
  Cell& cell = cells_[shard];
  if (cell.state == ShardState::kBackoff ||
      cell.state == ShardState::kDegraded) {
    return SupervisorAction::kNone;  // shard did not run this round
  }

  bool fatal = false;
  bool storm = false;
  for (const FailureEvent& f : failures) {
    if (f.category == core::ErrorCategory::kProgrammingError) fatal = true;
    if (f.kind == FailureKind::kDecodeStorm) storm = true;
  }

  if (cell.state == ShardState::kProbation) {
    // Half-open: one strike re-parks, a clean round fully recovers.
    if (!failures.empty()) {
      Park(cell, round);
      return SupervisorAction::kCircuitBreak;
    }
    cell.state = ShardState::kHealthy;
    cell.consecutive_storms = 0;
    cell.backoff = params_.backoff_initial;
    cell.restart_rounds.clear();
    return SupervisorAction::kRecover;
  }

  // Healthy. The storm counter only advances while healthy; any clean
  // round resets it.
  cell.consecutive_storms = storm ? cell.consecutive_storms + 1 : 0;

  const bool want_restart =
      fatal || cell.consecutive_storms > params_.storm_tolerance;
  if (!want_restart) return SupervisorAction::kNone;

  cell.consecutive_storms = 0;

  // Crash-loop breaker: count executed restarts inside the sliding window;
  // if ordering one more would cross the threshold, park instead.
  const std::uint64_t window_start =
      round >= params_.crash_loop_window ? round - params_.crash_loop_window
                                         : 0;
  cell.restart_rounds.erase(
      std::remove_if(cell.restart_rounds.begin(), cell.restart_rounds.end(),
                     [&](std::uint64_t r) { return r < window_start; }),
      cell.restart_rounds.end());
  if (static_cast<int>(cell.restart_rounds.size()) + 1 >=
      params_.crash_loop_threshold) {
    Park(cell, round);
    return SupervisorAction::kCircuitBreak;
  }

  cell.state = ShardState::kBackoff;
  cell.restart_at = round + cell.backoff;
  const double next = static_cast<double>(cell.backoff) *
                      std::max(1.0, params_.backoff_multiplier);
  cell.backoff = std::min<std::uint64_t>(
      params_.backoff_max,
      static_cast<std::uint64_t>(std::llround(next)));
  return SupervisorAction::kNone;
}

std::uint64_t Supervisor::TotalRestarts() const {
  std::uint64_t n = 0;
  for (const Cell& c : cells_) n += c.restarts;
  return n;
}

std::uint64_t Supervisor::TotalCircuitBreaks() const {
  std::uint64_t n = 0;
  for (const Cell& c : cells_) n += c.breaks;
  return n;
}

std::uint64_t Supervisor::TotalProbes() const {
  std::uint64_t n = 0;
  for (const Cell& c : cells_) n += c.probes;
  return n;
}

void Supervisor::SaveState(std::string* out) const {
  util::PutU64(out, cells_.size());
  for (const Cell& c : cells_) {
    util::PutU8(out, static_cast<std::uint8_t>(c.state));
    util::PutI32(out, c.consecutive_storms);
    util::PutI32(out, 0);  // retired Cell::consecutive_overruns
    util::PutU64(out, c.backoff);
    util::PutU64(out, c.restart_at);
    util::PutU64(out, c.degraded_since);
    util::PutU64Vec(out, c.restart_rounds);
    util::PutU64(out, c.restarts);
    util::PutU64(out, c.breaks);
    util::PutU64(out, c.probes);
  }
}

bool Supervisor::RestoreState(util::ByteCursor* cur) {
  const std::uint64_t n = cur->U64();
  if (!cur->ok() || n != cells_.size()) return false;
  std::vector<Cell> cells(cells_.size());
  for (Cell& c : cells) {
    const std::uint8_t state = cur->U8();
    c.consecutive_storms = cur->I32();
    cur->I32();  // retired Cell::consecutive_overruns
    c.backoff = cur->U64();
    c.restart_at = cur->U64();
    c.degraded_since = cur->U64();
    if (!cur->U64Vec(&c.restart_rounds)) return false;
    c.restarts = cur->U64();
    c.breaks = cur->U64();
    c.probes = cur->U64();
    if (!cur->ok() || state > static_cast<std::uint8_t>(ShardState::kProbation))
      return false;
    c.state = static_cast<ShardState>(state);
  }
  cells_ = std::move(cells);
  return true;
}

}  // namespace wolt::fleet
