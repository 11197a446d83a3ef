#include "fleet/runtime.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <utility>

#include "obs/obs.h"
#include "util/codec.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace wolt::fleet {
namespace {

std::uint64_t HashU64(std::uint64_t h, std::uint64_t v) {
  return util::HashCombine64(h, v);
}

std::uint64_t HashDouble(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return util::HashCombine64(h, bits);
}

// Virtual cost of one reoptimization at each ladder rung: the shared
// core::TierCost currency (also used by the workload frontier sweeps).
using core::TierCost;

void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, std::min<std::size_t>(n, sizeof buf - 1));
}

}  // namespace

std::uint64_t Fingerprint(const FleetParams& p, std::uint64_t seed) {
  std::uint64_t h = 0x574F4C54464C4554ULL;  // "WOLTFLET"
  h = HashU64(h, 1);  // fingerprint format version
  h = HashU64(h, p.num_shards);
  h = HashU64(h, p.rounds);
  h = HashU64(h, p.queue_capacity);
  h = HashU64(h, p.batch_per_shard);

  const ShardParams& s = p.shard;
  h = HashU64(h, s.num_extenders);
  h = HashU64(h, s.num_users);
  h = HashDouble(h, s.floor_m);
  h = HashDouble(h, s.retry.initial_backoff);
  h = HashDouble(h, s.retry.multiplier);
  h = HashDouble(h, s.retry.max_backoff);
  h = HashU64(h, static_cast<std::uint64_t>(s.retry.max_attempts));
  h = HashU64(h, static_cast<std::uint64_t>(s.quarantine.flap_threshold));
  h = HashDouble(h, s.quarantine.window);
  h = HashDouble(h, s.quarantine.hold);
  h = HashDouble(h, s.round_dt);
  h = HashDouble(h, s.stale_age);
  h = HashU64(h, s.rejoin_after);
  h = HashU64(h, s.decode_storm_threshold);
  for (int c = 0; c < fault::kNumMessageClasses; ++c) {
    const fault::WireFaults& w = s.wire.per_class[c];
    h = HashDouble(h, w.loss);
    h = HashDouble(h, w.duplicate);
    h = HashDouble(h, w.corrupt);
    h = HashDouble(h, w.delay_prob);
    h = HashDouble(h, w.delay_mean);
    h = HashDouble(h, w.base_latency);
  }
  h = HashDouble(h, s.plc_crash_prob);
  h = HashU64(h, s.plc_down_rounds);
  h = HashDouble(h, s.departure_prob);

  const SupervisorParams& sup = p.supervisor;
  h = HashU64(h, static_cast<std::uint64_t>(sup.storm_tolerance));
  h = HashU64(h, 2);  // retired SupervisorParams::overrun_tolerance (default)
  h = HashU64(h, sup.backoff_initial);
  h = HashDouble(h, sup.backoff_multiplier);
  h = HashU64(h, sup.backoff_max);
  h = HashU64(h, static_cast<std::uint64_t>(sup.crash_loop_threshold));
  h = HashU64(h, sup.crash_loop_window);
  h = HashU64(h, sup.probe_after);

  h = HashU64(h, p.chaos_from);
  h = HashU64(h, p.chaos_to);
  h = HashU64(h, p.poison_shards.size());
  for (std::uint32_t ps : p.poison_shards) h = HashU64(h, ps);
  h = HashU64(h, p.poison_from);
  h = HashU64(h, p.poison_to);
  h = HashU64(h, p.reopt_units_per_round);
  h = HashU64(h, p.snapshot_every);
  h = HashU64(h, seed);
  return h;
}

// ---------------------------------------------------------------------------
// FleetResult

std::string FleetResult::Report() const {
  std::string out;
  out += "WOLT fleet report\n";
  AppendF(&out, "rows shard=%zu fleet=%zu\n", shard_records.size(),
          fleet_records.size());
  AppendF(&out,
          "queue enqueued=%llu delivered=%llu shed=%llu discarded=%llu "
          "peak=%llu\n",
          static_cast<unsigned long long>(queue.enqueued),
          static_cast<unsigned long long>(queue.delivered),
          static_cast<unsigned long long>(queue.shed),
          static_cast<unsigned long long>(queue.discarded),
          static_cast<unsigned long long>(queue.peak_depth));
  AppendF(&out, "shed_by_class scan=%llu directive=%llu capacity=%llu "
                "ack=%llu departure=%llu\n",
          static_cast<unsigned long long>(
              queue.shed_by_class[static_cast<int>(
                  fault::MessageClass::kScan)]),
          static_cast<unsigned long long>(
              queue.shed_by_class[static_cast<int>(
                  fault::MessageClass::kDirective)]),
          static_cast<unsigned long long>(
              queue.shed_by_class[static_cast<int>(
                  fault::MessageClass::kCapacity)]),
          static_cast<unsigned long long>(
              queue.shed_by_class[static_cast<int>(
                  fault::MessageClass::kAck)]),
          static_cast<unsigned long long>(
              queue.shed_by_class[static_cast<int>(
                  fault::MessageClass::kDeparture)]));
  AppendF(&out, "supervisor restarts=%llu circuit_breaks=%llu probes=%llu\n",
          static_cast<unsigned long long>(restarts),
          static_cast<unsigned long long>(circuit_breaks),
          static_cast<unsigned long long>(probes));
  AppendF(&out, "invariants isolation=%s accounting=%s degraded_hold=%s\n",
          isolation_ok ? "OK" : "VIOLATED",
          accounting_ok ? "OK" : "VIOLATED",
          degraded_held_ok ? "OK" : "VIOLATED");
  for (const recover::FleetRoundRecord& r : fleet_records) {
    AppendF(&out,
            "round %llu enq=%llu del=%llu shed=%llu disc=%llu backlog=%llu "
            "reopt=%llu units=%llu\n",
            static_cast<unsigned long long>(r.round),
            static_cast<unsigned long long>(r.enqueued),
            static_cast<unsigned long long>(r.delivered),
            static_cast<unsigned long long>(r.shed),
            static_cast<unsigned long long>(r.discarded),
            static_cast<unsigned long long>(r.backlog),
            static_cast<unsigned long long>(r.reopt_scheduled),
            static_cast<unsigned long long>(r.reopt_units));
  }
  for (const recover::ShardRoundRecord& r : shard_records) {
    AppendF(&out,
            "r=%llu s=%lu state=%s tier=%s truth=%.17g proc=%llu rej=%llu "
            "wf=%llu sc=%llu dir=%llu out=%llu fail=%llu drop=%llu "
            "flags=%c%c%c%c%c\n",
            static_cast<unsigned long long>(r.round),
            static_cast<unsigned long>(r.shard),
            ToString(static_cast<ShardState>(r.state)),
            r.tier < 0 ? "-"
                       : core::ToString(static_cast<core::ReoptTier>(r.tier)),
            r.truth_aggregate,
            static_cast<unsigned long long>(r.processed),
            static_cast<unsigned long long>(r.decode_rejects),
            static_cast<unsigned long long>(r.wire_faults),
            static_cast<unsigned long long>(r.state_conflicts),
            static_cast<unsigned long long>(r.directives),
            static_cast<unsigned long long>(r.outbound),
            static_cast<unsigned long long>(r.failures),
            static_cast<unsigned long long>(r.dropped),
            r.restarted ? 'R' : '-', r.broke ? 'B' : '-',
            r.probed ? 'P' : '-', r.held_violation ? 'H' : '-',
            r.isolation_violation ? 'I' : '-');
  }
  return out;
}

// ---------------------------------------------------------------------------
// FleetRuntime

struct FleetRuntime::PerShardScratch {
  std::vector<FleetMessage> batch;
  RoundOutcome out;
  ReoptOutcome reopt;
  bool live = false;
  bool scheduled = false;
  core::ReoptTier tier = core::ReoptTier::kFull;
  bool restarted = false;
  bool probed = false;
  bool broke = false;
  bool held_violation = false;
  std::size_t dropped = 0;
};

FleetRuntime::FleetRuntime(FleetParams params, std::uint64_t seed)
    : params_(std::move(params)),
      seed_(seed),
      fingerprint_(Fingerprint(params_, seed)) {
  shards_.reserve(params_.num_shards);
  for (std::size_t s = 0; s < params_.num_shards; ++s) {
    shards_.push_back(std::make_unique<ShardRuntime>(
        static_cast<std::uint32_t>(s), seed_,
        ShardParamsFor(static_cast<std::uint32_t>(s))));
  }
  supervisor_ =
      std::make_unique<Supervisor>(params_.supervisor, params_.num_shards);
  queue_ = std::make_unique<BoundedFleetQueue>(params_.queue_capacity,
                                               params_.num_shards);
  held_extenders_.resize(params_.num_shards);
  last_reopt_round_.assign(params_.num_shards, 0);
}

FleetRuntime::~FleetRuntime() = default;

ShardParams FleetRuntime::ShardParamsFor(std::uint32_t shard) const {
  ShardParams sp = params_.shard;
  if (std::find(params_.poison_shards.begin(), params_.poison_shards.end(),
                shard) != params_.poison_shards.end()) {
    sp.poison_from = params_.poison_from;
    sp.poison_to = params_.poison_to;
  }
  return sp;
}

FleetResult FleetRuntime::Run() {
  FleetResult result;
  std::uint64_t start_round = 0;
  std::unique_ptr<recover::FleetJournalWriter> journal;
  if (!params_.journal_path.empty()) {
    recover::FleetJournalWriter::Options jopts;
    jopts.after_append = params_.after_journal_append;
    jopts.vfs = params_.vfs;
    jopts.sync_every_append = params_.journal_sync_every_append;
    bool resumed = false;
    if (params_.resume) {
      recover::FleetJournalReadResult existing =
          recover::ReadFleetJournal(params_.journal_path, params_.vfs);
      if (existing.ok && (existing.header.fingerprint != fingerprint_ ||
                          existing.header.num_shards != params_.num_shards ||
                          existing.header.rounds != params_.rounds)) {
        // A *valid* journal from another configuration is caller error —
        // resuming over it would destroy good data.
        result.error =
            "fleet journal was written under a different configuration "
            "(fingerprint mismatch): " +
            params_.journal_path;
        return result;
      }
      if (existing.ok) {
        if (existing.has_checkpoint) {
          util::ByteCursor cur(existing.checkpoint_blob);
          if (!RestoreState(&cur) || !cur.AtEnd()) {
            result.error =
                "fleet journal snapshot is corrupt: " + params_.journal_path;
            return result;
          }
          start_round = existing.checkpoint_round + 1;
          result.resumed_rounds = start_round;
          result.shard_records = std::move(existing.shard_records);
          result.fleet_records = std::move(existing.fleet_records);
        }
        journal = std::make_unique<recover::FleetJournalWriter>(
            params_.journal_path, existing, jopts);
        resumed = true;
      } else {
        // Unreadable/headerless journal (e.g. the crash landed before the
        // header was durable): nothing to restore, restart fresh. The run
        // must not die because its checkpoint did.
        std::fprintf(stderr,
                     "wolt: fleet journal %s unreadable (%s); restarting "
                     "the run fresh\n",
                     params_.journal_path.c_str(), existing.error.c_str());
      }
    }
    if (!resumed) {
      recover::FleetJournalHeader header;
      header.fingerprint = fingerprint_;
      header.num_shards = params_.num_shards;
      header.rounds = params_.rounds;
      journal = std::make_unique<recover::FleetJournalWriter>(
          params_.journal_path, header, jopts);
    }
    // A journal that failed to open has already degraded itself (one loud
    // warning + counters); the run continues unjournaled.
  }

  {
    util::ThreadPool pool(params_.threads);
    for (std::uint64_t round = start_round; round < params_.rounds; ++round) {
      if (params_.cancel != nullptr &&
          params_.cancel->load(std::memory_order_relaxed)) {
        result.cancelled = true;
        break;  // round boundary: the journal is snapshot-aligned
      }
      RunRound(round, pool, journal.get(), &result);
    }
  }
  if (journal) {
    journal->Close();
    result.journal_degraded = journal->degraded();
  }

  result.queue = queue_->stats();
  result.restarts = supervisor_->TotalRestarts();
  result.circuit_breaks = supervisor_->TotalCircuitBreaks();
  result.probes = supervisor_->TotalProbes();
  // Fold the invariants from the records so a resumed run judges the
  // pre-crash rounds too (their records came from the journal).
  for (const recover::ShardRoundRecord& r : result.shard_records) {
    if (r.isolation_violation) result.isolation_ok = false;
    if (r.held_violation) result.degraded_held_ok = false;
  }
  const QueueStats& q = result.queue;
  result.accounting_ok =
      q.enqueued == q.delivered + q.shed + q.discarded + queue_->Depth();
  result.completed = true;
  return result;
}

void FleetRuntime::RunRound(std::uint64_t round, util::ThreadPool& pool,
                            recover::FleetJournalWriter* journal,
                            FleetResult* result) {
  const std::size_t n = params_.num_shards;
  const bool chaos = round >= params_.chaos_from && round < params_.chaos_to;
  std::vector<PerShardScratch> scratch(n);

  // (a) Supervisor round-driven transitions: due restarts and probes.
  for (std::size_t s = 0; s < n; ++s) {
    switch (supervisor_->BeginRound(s, round)) {
      case SupervisorAction::kRestart:
        shards_[s]->Restart(round);
        scratch[s].restarted = true;
        break;
      case SupervisorAction::kProbe:
        scratch[s].probed = true;
        break;
      default:
        break;
    }
  }

  // (b) Traffic generation into the bounded queue, shard order. The
  // buildings keep living (and scanning) regardless of controller health.
  {
    std::vector<FleetMessage> msgs;
    for (std::size_t s = 0; s < n; ++s) {
      msgs.clear();
      shards_[s]->GenerateTraffic(round, chaos, &msgs);
      for (FleetMessage& m : msgs) queue_->Push(std::move(m));
    }
  }

  // (c) Drain live shards; discard the lanes of parked ones.
  for (std::size_t s = 0; s < n; ++s) {
    const ShardState st = supervisor_->state(s);
    scratch[s].live =
        st == ShardState::kHealthy || st == ShardState::kProbation;
    if (scratch[s].live) {
      scratch[s].batch = queue_->Drain(static_cast<std::uint32_t>(s),
                                       params_.batch_per_shard);
    } else {
      scratch[s].dropped = queue_->Discard(static_cast<std::uint32_t>(s));
    }
  }

  // (d) Virtual-budget reopt scheduling: staleness-priority walk spending
  // units down the degradation ladder. An unbudgeted fleet walks with
  // enough units for every live shard to get kFull.
  std::uint64_t reopt_scheduled = 0;
  std::uint64_t reopt_units = 0;
  {
    std::vector<std::size_t> candidates;
    for (std::size_t s = 0; s < n; ++s) {
      if (scratch[s].live) candidates.push_back(s);
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](std::size_t a, std::size_t b) {
                const std::uint64_t stale_a = round - last_reopt_round_[a];
                const std::uint64_t stale_b = round - last_reopt_round_[b];
                if (stale_a != stale_b) return stale_a > stale_b;
                const std::size_t back_a =
                    queue_->DepthOf(static_cast<std::uint32_t>(a));
                const std::size_t back_b =
                    queue_->DepthOf(static_cast<std::uint32_t>(b));
                if (back_a != back_b) return back_a > back_b;
                return a < b;
              });
    std::size_t units =
        params_.reopt_units_per_round > 0
            ? params_.reopt_units_per_round
            : candidates.size() * TierCost(core::ReoptTier::kFull);
    for (std::size_t s : candidates) {
      // Budget exhausted: remaining shards wait, growing staler.
      if (units == 0) break;
      // The best rung the remaining units buy; the clamp only keeps the
      // int argument in range, since no rung costs more than kFull.
      const core::ReoptTier tier = core::TierForBudgetUnits(static_cast<int>(
          std::min(units, TierCost(core::ReoptTier::kFull))));
      units -= TierCost(tier);
      scratch[s].scheduled = true;
      scratch[s].tier = tier;
      last_reopt_round_[s] = round;
      ++reopt_scheduled;
      reopt_units += TierCost(tier);
    }
  }
  if (obs::MetricsScope* ms = obs::CurrentScope()) {
    ms->fleet.reopt_scheduled.Add(reopt_scheduled);
  }

  // (e) The parallel phase: batch processing plus the scheduled
  // reoptimization, strictly per-shard state, index-addressed results.
  {
    obs::MetricsRegistry* reg = obs::CurrentRegistry();
    pool.ParallelFor(n, 0, [&](std::size_t s) {
      if (!scratch[s].live) return;
      std::optional<obs::ScopedMetrics> sm;
      if (reg != nullptr) sm.emplace(*reg);
      scratch[s].out = shards_[s]->ProcessBatch(round, chaos, scratch[s].batch);
      if (scratch[s].scheduled) {
        scratch[s].reopt =
            shards_[s]->Reoptimize(round, chaos, scratch[s].tier);
      }
    });
  }

  // (f) Supervision: feed the failure evidence in shard order.
  for (std::size_t s = 0; s < n; ++s) {
    if (!scratch[s].live) continue;
    std::vector<FailureEvent> failures = scratch[s].out.failures;
    failures.insert(failures.end(), scratch[s].reopt.failures.begin(),
                    scratch[s].reopt.failures.end());
    switch (supervisor_->ObserveFailures(s, round, failures)) {
      case SupervisorAction::kCircuitBreak:
        scratch[s].broke = true;
        held_extenders_[s] = shards_[s]->ClientExtenders();
        break;
      case SupervisorAction::kRecover:
        held_extenders_[s].clear();
        break;
      default:
        break;
    }
  }

  // (g) Degraded-hold invariant: a parked shard's clients may only keep the
  // captured directive or drop to unassociated (departure/rejoin churn) —
  // never move to a different extender, because nothing can direct them.
  for (std::size_t s = 0; s < n; ++s) {
    if (supervisor_->state(s) != ShardState::kDegraded) continue;
    if (held_extenders_[s].empty()) continue;
    const std::vector<int> current = shards_[s]->ClientExtenders();
    for (std::size_t i = 0;
         i < current.size() && i < held_extenders_[s].size(); ++i) {
      if (current[i] != held_extenders_[s][i] && current[i] != -1) {
        scratch[s].held_violation = true;
        break;
      }
    }
  }

  // (h) Re-enqueue client acks for next round, shard order.
  for (std::size_t s = 0; s < n; ++s) {
    for (FleetMessage& m : scratch[s].out.outbound) {
      queue_->Push(std::move(m));
    }
    for (FleetMessage& m : scratch[s].reopt.outbound) {
      queue_->Push(std::move(m));
    }
  }

  // (i) Records: one row per shard plus the fleet-wide aggregates.
  for (std::size_t s = 0; s < n; ++s) {
    const PerShardScratch& sc = scratch[s];
    recover::ShardRoundRecord rec;
    rec.round = round;
    rec.shard = static_cast<std::uint32_t>(s);
    rec.state = static_cast<std::uint8_t>(supervisor_->state(s));
    rec.tier = sc.scheduled && sc.reopt.ran
                   ? static_cast<std::int8_t>(sc.reopt.tier)
                   : std::int8_t{-1};
    rec.truth_aggregate = shards_[s]->TruthAggregate();
    rec.processed = sc.out.processed;
    rec.decode_rejects = sc.out.decode_rejects;
    rec.wire_faults = sc.out.wire_faults;
    rec.state_conflicts = sc.out.state_conflicts;
    rec.directives = sc.out.directives + sc.reopt.directives;
    rec.outbound = sc.out.outbound.size() + sc.reopt.outbound.size();
    rec.failures = sc.out.failures.size() + sc.reopt.failures.size();
    rec.dropped = sc.dropped;
    rec.restarted = sc.restarted ? 1 : 0;
    rec.broke = sc.broke ? 1 : 0;
    rec.probed = sc.probed ? 1 : 0;
    rec.held_violation = sc.held_violation ? 1 : 0;
    bool isolation = false;
    for (const FailureEvent& f : sc.out.failures) {
      if (f.kind == FailureKind::kInvariant) isolation = true;
    }
    rec.isolation_violation = isolation ? 1 : 0;
    if (journal != nullptr) journal->AppendShardRound(rec);
    result->shard_records.push_back(rec);
  }
  {
    const QueueStats& q = queue_->stats();
    recover::FleetRoundRecord rec;
    rec.round = round;
    rec.enqueued = q.enqueued - prev_stats_.enqueued;
    rec.delivered = q.delivered - prev_stats_.delivered;
    rec.shed = q.shed - prev_stats_.shed;
    rec.discarded = q.discarded - prev_stats_.discarded;
    rec.backlog = queue_->Depth();
    rec.reopt_scheduled = reopt_scheduled;
    rec.reopt_units = reopt_units;
    if (obs::MetricsScope* ms = obs::CurrentScope()) {
      ms->fleet.enqueued.Add(rec.enqueued);
      ms->fleet.delivered.Add(rec.delivered);
      ms->fleet.shed_total.Add(rec.shed);
      ms->fleet.dropped_unavailable.Add(rec.discarded);
      ms->fleet.shed_scan.Add(
          q.shed_by_class[static_cast<int>(fault::MessageClass::kScan)] -
          prev_stats_
              .shed_by_class[static_cast<int>(fault::MessageClass::kScan)]);
      ms->fleet.shed_directive.Add(
          q.shed_by_class[static_cast<int>(fault::MessageClass::kDirective)] -
          prev_stats_.shed_by_class[static_cast<int>(
              fault::MessageClass::kDirective)]);
      ms->fleet.shed_capacity.Add(
          q.shed_by_class[static_cast<int>(fault::MessageClass::kCapacity)] -
          prev_stats_.shed_by_class[static_cast<int>(
              fault::MessageClass::kCapacity)]);
      ms->fleet.shed_ack.Add(
          q.shed_by_class[static_cast<int>(fault::MessageClass::kAck)] -
          prev_stats_
              .shed_by_class[static_cast<int>(fault::MessageClass::kAck)]);
      ms->fleet.shed_departure.Add(
          q.shed_by_class[static_cast<int>(fault::MessageClass::kDeparture)] -
          prev_stats_.shed_by_class[static_cast<int>(
              fault::MessageClass::kDeparture)]);
    }
    prev_stats_ = q;
    if (journal != nullptr) journal->AppendFleetRound(rec);
    result->fleet_records.push_back(rec);
  }

  // (j) Snapshot the whole fleet every snapshot_every rounds and after the
  // final round — the resume points.
  if (journal != nullptr) {
    const bool last = round + 1 == params_.rounds;
    const bool due = params_.snapshot_every != 0 &&
                     (round + 1) % params_.snapshot_every == 0;
    if (last || due) {
      std::string blob;
      SaveState(&blob);
      journal->AppendSnapshot(round, blob);
    }
  }
}

void FleetRuntime::SaveState(std::string* out) const {
  std::string queue_blob;
  queue_->SaveState(&queue_blob);
  util::PutString(out, queue_blob);
  std::string sup_blob;
  supervisor_->SaveState(&sup_blob);
  util::PutString(out, sup_blob);
  util::PutU64(out, shards_.size());
  for (const std::unique_ptr<ShardRuntime>& shard : shards_) {
    std::string blob;
    shard->SaveState(&blob);
    util::PutString(out, blob);
  }
  util::PutU64(out, held_extenders_.size());
  for (const std::vector<int>& held : held_extenders_) {
    util::PutI32Vec(out, held);
  }
  util::PutU64Vec(out, last_reopt_round_);
}

bool FleetRuntime::RestoreState(util::ByteCursor* cur) {
  const std::string queue_blob = cur->String();
  const std::string sup_blob = cur->String();
  if (!cur->ok()) return false;
  util::ByteCursor queue_cur(queue_blob);
  if (!queue_->RestoreState(&queue_cur) || !queue_cur.AtEnd()) return false;
  util::ByteCursor sup_cur(sup_blob);
  if (!supervisor_->RestoreState(&sup_cur) || !sup_cur.AtEnd()) return false;
  const std::uint64_t num_shards = cur->U64();
  if (!cur->ok() || num_shards != shards_.size()) return false;
  for (std::unique_ptr<ShardRuntime>& shard : shards_) {
    const std::string blob = cur->String();
    if (!cur->ok()) return false;
    util::ByteCursor shard_cur(blob);
    if (!shard->RestoreState(&shard_cur) || !shard_cur.AtEnd()) return false;
  }
  const std::uint64_t num_held = cur->U64();
  if (!cur->ok() || num_held != held_extenders_.size()) return false;
  for (std::vector<int>& held : held_extenders_) {
    if (!cur->I32Vec(&held)) return false;
  }
  if (!cur->U64Vec(&last_reopt_round_)) return false;
  if (last_reopt_round_.size() != shards_.size()) return false;
  prev_stats_ = queue_->stats();
  return true;
}

}  // namespace wolt::fleet
