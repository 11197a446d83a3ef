// Trace-driven dynamic workload generation (ROADMAP item 4): the traffic
// the anytime Reoptimize ladder and the fleet runtime were built to absorb,
// generated ahead of time as a serializable event trace.
//
// A WorkloadTrace is a time-ordered list of events — user arrivals with
// per-session offered load, Poisson departures, continuous mobility steps
// with the full refreshed link row, offered-load curve updates (diurnal or
// bursty), and background-traffic busy shares injected into PLC contention
// domains. Generation is a pure function of (scenario, params, seed): it
// runs single-threaded on the DES event queue with util::Rng substreams
// (one per concern, one per user), so the same seed yields a byte-identical
// trace no matter who replays it or at what thread count. Replay consumes
// the trace without drawing randomness at all.
//
// Mobility is integrated over the path-loss model: each user's per-extender
// shadowing is drawn ONCE at arrival and frozen, so RSSI along a trajectory
// is a deterministic, Lipschitz-continuous function of position (the
// property test bounds the per-step RSSI delta by the max leg speed).
// Teleport is the degenerate infinite-speed case: a fresh uniform position
// with freshly drawn shadowing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/network.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace wolt::sim {

// --- Mobility kernel -----------------------------------------------------

// kStatic: users never move. kTeleport: every move tick, a jump to a fresh
// uniform position with fresh shadowing (infinite speed, discontinuous
// RSSI). kWaypoint: random waypoint — pick a uniform target, walk there at
// a per-leg speed, pause, repeat. kHotspot: random waypoint whose targets
// are biased toward a few attraction points (meeting rooms).
enum class MobilityModel { kStatic = 0, kTeleport, kWaypoint, kHotspot };
const char* ToString(MobilityModel m);
std::optional<MobilityModel> MobilityModelFromString(const std::string& s);

struct MobilityParams {
  MobilityModel model = MobilityModel::kStatic;
  double speed_min = 0.5;  // per-leg speed range, metres per time unit
  double speed_max = 2.0;
  double pause = 2.0;      // dwell at each reached waypoint, time units
  std::size_t num_hotspots = 3;   // kHotspot attraction points
  double hotspot_sigma_m = 8.0;   // spread of waypoints around a hotspot
  double hotspot_bias = 0.8;      // P(next waypoint is hotspot-drawn)
};

// Per-user continuous mobility state. `shadow_db` is the frozen
// per-extender shadowing drawn at spawn: refreshing links from a new
// position re-applies the same offsets, which is what makes trajectories
// continuous instead of redrawn noise.
struct MobilityState {
  model::Position pos;
  model::Position waypoint;
  double speed = 0.0;        // current leg, metres per time unit
  double pause_until = 0.0;  // paused at pos until this absolute time
  std::vector<double> shadow_db;
};

class MobilityKernel {
 public:
  MobilityKernel(const ScenarioGenerator& generator, MobilityParams params);

  // kHotspot only: draw the attraction points (2 uniforms each). Must run
  // before any Spawn/Step so every user sees the same centres.
  void SampleHotspots(util::Rng& rng);
  const std::vector<model::Position>& hotspots() const { return hotspots_; }

  // Link row at `pos` under a frozen shadowing row — deterministic, no rng.
  ScenarioGenerator::LinkSample LinksAt(const model::Network& net,
                                        model::Position pos,
                                        const std::vector<double>& shadow) const;

  // New user: draw its frozen shadowing row, then retry a uniform position
  // (scenario placement-retry rule) until some extender is reachable under
  // that row, then start the first leg.
  MobilityState Spawn(const model::Network& net, double now,
                      util::Rng& rng) const;

  // Advance one tick ending at absolute time `now`, of length `dt`: walk
  // toward the waypoint at the leg speed, honour pauses, begin new legs.
  // Returns true iff the position changed. kStatic/kTeleport never step.
  bool Step(MobilityState* st, double now, double dt, util::Rng& rng) const;

  const MobilityParams& params() const { return params_; }

 private:
  model::Position SampleWaypoint(util::Rng& rng) const;
  void BeginLeg(MobilityState* st, double now, util::Rng& rng) const;

  const ScenarioGenerator* generator_;
  MobilityParams params_;
  std::vector<model::Position> hotspots_;
};

// --- Offered-load curves -------------------------------------------------

// kConstant: demands stay at their arrival value (0 = saturated, the
// paper's assumption). kDiurnal: a raised-cosine day curve scaling every
// demand between `load_floor` and 1.0 with period `load_period`. kBursty:
// a global on/off process flipping between `burst_high` and `burst_low`
// at exponential times.
enum class LoadCurve { kConstant = 0, kDiurnal, kBursty };
const char* ToString(LoadCurve c);
std::optional<LoadCurve> LoadCurveFromString(const std::string& s);

// --- Trace ---------------------------------------------------------------

enum class TraceEventKind {
  kArrival = 0,   // user enters: position, link row, base offered load
  kDeparture,     // user leaves
  kMove,          // mobility step: new position and refreshed link row
  kLoad,          // global offered-load scale changed
  kBackground,    // one PLC contention domain's background busy share
};
const char* ToString(TraceEventKind k);

struct TraceEvent {
  double time = 0.0;
  TraceEventKind kind = TraceEventKind::kArrival;
  std::int64_t user = -1;          // arrival / departure / move
  model::Position pos;             // arrival / move
  std::vector<double> rates_mbps;  // arrival / move, one per extender
  std::vector<double> rssi_dbm;    // arrival / move, one per extender
  double demand_mbps = 0.0;        // arrival: base offered load (0 = saturated)
  int domain = -1;                 // background: PLC contention domain
  double value = 0.0;              // load: scale; background: busy share [0,1]
};

struct WorkloadTrace {
  std::size_t num_extenders = 0;
  double horizon = 0.0;
  std::vector<TraceEvent> events;  // non-decreasing in time
};

struct WorkloadParams {
  double horizon = 36.0;  // trace length, time units

  // Churn: Poisson arrivals at `arrival_rate`; each session lasts
  // Exponential(mean = mean_session). arrival_rate 0 disables churn.
  // `initial_users` arrive in a batch at t = 0 (their sessions still end).
  double arrival_rate = 3.0;
  double mean_session = 24.0;
  std::size_t initial_users = 0;

  // Mobility: per-user position/link refresh every `move_tick` time units
  // (also the cadence of teleports under kTeleport).
  MobilityParams mobility;
  double move_tick = 1.0;

  // Offered load. Base demand is jittered per user (uniform 0.5x..1.5x)
  // and modulated by the curve; with kConstant the demand stays 0
  // (saturated) and no kLoad events are emitted.
  LoadCurve load = LoadCurve::kConstant;
  double base_demand_mbps = 50.0;
  double load_period = 24.0;  // kDiurnal period
  double load_floor = 0.25;   // kDiurnal trough, fraction of peak
  double burst_rate = 0.5;    // kBursty flips per time unit
  double burst_high = 1.0;
  double burst_low = 0.1;

  // Background traffic injected into PLC contention domains: an on/off
  // process per domain flipping between busy share 0 and
  // `background_share` at rate `background_flip_rate`. share 0 disables.
  // Replay turns a busy share s into capacity reports of (1-s) x baseline
  // for every extender in the domain — the flap-quarantine trigger.
  double background_share = 0.0;  // peak busy share in [0, 1]
  double background_flip_rate = 0.5;
};

// Generates the full event trace for `base` (extenders only; users come
// from the trace). Pure function of its arguments: all randomness is drawn
// from util::Rng substreams of `seed` (stream 0 churn, 1 load, 2
// background, 3 hotspots, 16+k user k), scheduled on the DES event queue.
// Throws std::invalid_argument on nonsensical parameters.
WorkloadTrace GenerateTrace(const ScenarioGenerator& generator,
                            const model::Network& base,
                            const WorkloadParams& params, std::uint64_t seed);

// --- Serialization -------------------------------------------------------

// Line-oriented text, one event per line with %.17g doubles: the bytes the
// trace corpus (tests/data/trace_corpus) pins. There is no loader; a trace
// is reproduced by regenerating it from (scenario, params, seed).
std::string TraceToString(const WorkloadTrace& trace);

}  // namespace wolt::sim
