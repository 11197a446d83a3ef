// One shard of the fleet: a single building's CentralController plus the
// deterministic world around it — the ground-truth network the building's
// clients live in, the traffic those clients emit every round, the lossy
// wire between them and the controller, and the total (non-throwing)
// boundary the fleet runtime calls through.
//
// Fault isolation contract: nothing a shard does can escape it. Every
// controller interaction is wrapped in a catch-all; an escaped exception
// becomes a FailureEvent (category kProgrammingError) for the supervisor
// instead of taking the process — or a sibling shard — down. The shard also
// self-checks its isolation invariant each round: every user id its
// controller knows must lie inside the shard's own id block.
//
// Determinism: all randomness is drawn from stateless substreams of
// (fleet_seed, shard_id, round, salt) — no RNG objects persist across
// rounds — so a shard's behaviour is a pure function of its inputs, replays
// byte-identically at any thread count, and needs no RNG state in the
// crash-safe snapshot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.h"
#include "fault/plane.h"
#include "fleet/queue.h"
#include "fleet/supervisor.h"
#include "model/network.h"

namespace wolt::util {
class ByteCursor;
}  // namespace wolt::util

namespace wolt::fleet {

// User-id block per shard: shard s owns ids [s*kIdStride, s*kIdStride + n).
inline constexpr std::int64_t kIdStride = 1'000'000;

// Substream salts per (shard, round). Keep in sync with the runtime: every
// random decision anywhere in the fleet draws from one of these.
inline constexpr std::uint64_t kSalts = 4;
inline constexpr std::uint64_t kSaltTraffic = 0;   // traffic generation
inline constexpr std::uint64_t kSaltBatch = 1;     // batch-directive delivery
inline constexpr std::uint64_t kSaltReopt = 2;     // reopt-directive delivery
inline constexpr std::uint64_t kSaltWire = 3;      // fault-plane seed

struct ShardParams {
  // Building size. Small on purpose: fleet tests run hundreds of shards.
  std::size_t num_extenders = 3;
  std::size_t num_users = 5;
  double floor_m = 50.0;  // square floor side

  core::RetryParams retry;
  core::QuarantineParams quarantine;

  double round_dt = 1.0;    // controller-clock seconds per fleet round
  double stale_age = 6.0;   // EvictStale threshold (controller time)
  // Rounds a departed client stays away before re-arriving.
  std::uint64_t rejoin_after = 2;

  // Decode failures within one batch at or above this count raise a
  // kDecodeStorm failure event.
  std::size_t decode_storm_threshold = 4;

  // Chaos knobs, active only on rounds the runtime flags as chaos rounds.
  fault::FaultPlaneParams wire;   // wire faults on chaos rounds
  double plc_crash_prob = 0.0;    // per extender per chaos round
  std::uint64_t plc_down_rounds = 3;
  double departure_prob = 0.0;    // per alive client per chaos round

  // Poison window [poison_from, poison_to): ProcessBatch throws on every
  // round inside it, simulating a wedged shard. Defaults to never.
  std::uint64_t poison_from = ~std::uint64_t{0};
  std::uint64_t poison_to = 0;
};

// What one round of batch processing did, plus the failure evidence the
// supervisor consumes. `outbound` carries the client acks the runtime
// re-enqueues next round.
struct RoundOutcome {
  std::size_t processed = 0;       // messages decoded and handled
  std::size_t decode_rejects = 0;  // undecodable bytes
  std::size_t wire_faults = 0;     // handled but kWireFault-categorized
  std::size_t state_conflicts = 0; // handled but kStateConflict-categorized
  std::size_t directives = 0;      // directives transmitted to clients
  std::vector<FleetMessage> outbound;
  std::vector<FailureEvent> failures;
};

// Outcome of one scheduled per-shard reoptimization.
struct ReoptOutcome {
  bool ran = false;
  core::ReoptTier tier = core::ReoptTier::kHoldLastGood;  // served rung
  std::size_t directives = 0;
  std::vector<FleetMessage> outbound;
  std::vector<FailureEvent> failures;
};

class ShardRuntime {
 public:
  ShardRuntime(std::uint32_t shard_id, std::uint64_t fleet_seed,
               ShardParams params);

  std::uint32_t shard_id() const { return shard_id_; }
  std::int64_t IdBase() const { return kIdStride * shard_id_; }
  const ShardParams& params() const { return params_; }

  // Phase (b) of a round: emit this round's control-plane traffic (capacity
  // probes, client scans, departures) into `out`, routed through the lossy
  // wire on chaos rounds. Also advances the ground truth (PLC crashes and
  // recoveries, client churn). Never touches the controller.
  void GenerateTraffic(std::uint64_t round, bool chaos,
                       std::vector<FleetMessage>* out);

  // Phase (d): feed a drained batch through the controller behind the total
  // boundary. Exceptions become kException failures; a decode storm raises
  // kDecodeStorm; the id-block isolation invariant is checked afterwards.
  RoundOutcome ProcessBatch(std::uint64_t round, bool chaos,
                            const std::vector<FleetMessage>& batch);

  // Phase (e): clock-free reoptimization at the scheduler-chosen tier,
  // behind the same boundary. Directive delivery uses kSaltReopt.
  ReoptOutcome Reoptimize(std::uint64_t round, bool chaos,
                          core::ReoptTier tier);

  // Supervisor-ordered restart: discard the (presumed wedged) controller and
  // start a fresh one at the current controller time. Clients keep their
  // last applied directives — restart loses controller state, not the
  // building's associations.
  void Restart(std::uint64_t round);

  // Ground-truth aggregate throughput of what the clients are actually
  // doing (alive clients on their applied extenders, dead links excluded).
  // This is the do-no-harm observable: it is well-defined even while the
  // controller is down or degraded.
  double TruthAggregate() const;

  // Applied extender per client slot (-1 = none/departed). The runtime
  // captures this at circuit-break time and asserts degraded shards hold it.
  std::vector<int> ClientExtenders() const;

  const core::CentralController& controller() const { return *cc_; }

  void SaveState(std::string* out) const;
  bool RestoreState(util::ByteCursor* cur);

 private:
  struct Client {
    bool alive = true;
    int extender = -1;               // last applied directive
    std::uint64_t rejoin_round = 0;  // when !alive: round it re-arrives
  };

  bool Poisoned(std::uint64_t round) const {
    return round >= params_.poison_from && round < params_.poison_to;
  }
  // Ingress admission gate: a decoded message whose user id falls outside
  // this shard's id block is a wire artefact (bit-flipped id) or a routing
  // bug — either way it must never reach the controller, or corruption on
  // one building's wire could plant foreign state in another's controller.
  bool OwnsId(std::int64_t id) const {
    return id >= IdBase() &&
           id < IdBase() + static_cast<std::int64_t>(clients_.size());
  }
  std::unique_ptr<core::CentralController> MakeController() const;
  // Transmit one encoded message through the (chaos-only) wire into `out`.
  void SendToShard(fault::FaultPlane* wire, fault::MessageClass cls,
                   const std::string& bytes, std::vector<FleetMessage>* out);
  // Deliver controller directives to clients through the wire; applied
  // directives generate acks into `outbound`.
  void DeliverDirectives(
      const std::vector<core::AssociationDirective>& directives,
      fault::FaultPlane* wire, std::size_t* sent,
      std::vector<FleetMessage>* outbound);
  void HandleInbound(const FleetMessage& msg, fault::FaultPlane* wire,
                     RoundOutcome* rc);
  void Categorize(core::ErrorCategory category, RoundOutcome* rc);

  std::uint32_t shard_id_;
  std::uint64_t shard_key_;  // HashCombine64(fleet_seed, shard_id)
  ShardParams params_;
  model::Network truth_;
  std::vector<double> base_plc_;        // per extender, pre-chaos capacity
  std::vector<std::uint64_t> down_until_;  // per extender; 0 = up
  std::vector<Client> clients_;
  std::unique_ptr<core::CentralController> cc_;
};

}  // namespace wolt::fleet
