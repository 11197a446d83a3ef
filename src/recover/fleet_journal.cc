#include "recover/fleet_journal.h"

#include <unordered_set>
#include <utility>

#include "util/codec.h"

namespace wolt::recover {
namespace {

using util::PutString;
using util::PutU32;
using util::PutU64;
using util::PutU8;
using Cursor = util::ByteCursor;

// Record kinds inside a frame payload (first byte).
constexpr std::uint8_t kKindHeader = 1;
constexpr std::uint8_t kKindShardRound = 2;
constexpr std::uint8_t kKindFleetRound = 3;
constexpr std::uint8_t kKindSnapshot = 4;

constexpr LogFormat kFormat{kFleetJournalMagic, "fleet journal",
                           &obs::RecoverCounters::fleet};

bool DecodeShardRoundPayload(std::string_view payload, ShardRoundRecord* out) {
  Cursor cur(payload.data(), payload.size());
  if (cur.U8() != kKindShardRound) return false;
  out->round = cur.U64();
  out->shard = cur.U32();
  out->state = cur.U8();
  out->tier = static_cast<std::int8_t>(cur.U8());
  out->truth_aggregate = cur.Double();
  out->processed = cur.U64();
  out->decode_rejects = cur.U64();
  out->wire_faults = cur.U64();
  out->state_conflicts = cur.U64();
  out->directives = cur.U64();
  out->outbound = cur.U64();
  out->failures = cur.U64();
  out->dropped = cur.U64();
  out->restarted = cur.U8();
  out->broke = cur.U8();
  out->probed = cur.U8();
  out->held_violation = cur.U8();
  out->isolation_violation = cur.U8();
  return cur.AtEnd();
}

bool DecodeFleetRoundPayload(std::string_view payload, FleetRoundRecord* out) {
  Cursor cur(payload.data(), payload.size());
  if (cur.U8() != kKindFleetRound) return false;
  out->round = cur.U64();
  out->enqueued = cur.U64();
  out->delivered = cur.U64();
  out->shed = cur.U64();
  out->discarded = cur.U64();
  out->backlog = cur.U64();
  out->reopt_scheduled = cur.U64();
  out->reopt_units = cur.U64();
  return cur.AtEnd();
}

bool DecodeSnapshotPayload(std::string_view payload, std::uint64_t* round,
                           std::string* blob) {
  Cursor cur(payload.data(), payload.size());
  if (cur.U8() != kKindSnapshot) return false;
  *round = cur.U64();
  *blob = cur.String();
  return cur.AtEnd();
}

std::string EncodeFleetHeaderPayload(const FleetJournalHeader& header) {
  std::string out;
  PutU8(&out, kKindHeader);
  PutU32(&out, kFleetJournalVersion);
  PutU64(&out, header.fingerprint);
  PutU64(&out, header.num_shards);
  PutU64(&out, header.rounds);
  return out;
}

bool DecodeFleetHeaderPayload(std::string_view payload,
                              FleetJournalHeader* out) {
  Cursor cur(payload.data(), payload.size());
  if (cur.U8() != kKindHeader) return false;
  if (cur.U32() != kFleetJournalVersion) return false;
  out->fingerprint = cur.U64();
  out->num_shards = cur.U64();
  out->rounds = cur.U64();
  return cur.AtEnd();
}

std::string EncodeShardRoundPayload(const ShardRoundRecord& record) {
  std::string out;
  PutU8(&out, kKindShardRound);
  PutU64(&out, record.round);
  PutU32(&out, record.shard);
  PutU8(&out, record.state);
  PutU8(&out, static_cast<std::uint8_t>(record.tier));
  util::PutDouble(&out, record.truth_aggregate);
  PutU64(&out, record.processed);
  PutU64(&out, record.decode_rejects);
  PutU64(&out, record.wire_faults);
  PutU64(&out, record.state_conflicts);
  PutU64(&out, record.directives);
  PutU64(&out, record.outbound);
  PutU64(&out, record.failures);
  PutU64(&out, record.dropped);
  PutU8(&out, record.restarted);
  PutU8(&out, record.broke);
  PutU8(&out, record.probed);
  PutU8(&out, record.held_violation);
  PutU8(&out, record.isolation_violation);
  return out;
}

std::string EncodeFleetRoundPayload(const FleetRoundRecord& record) {
  std::string out;
  PutU8(&out, kKindFleetRound);
  PutU64(&out, record.round);
  PutU64(&out, record.enqueued);
  PutU64(&out, record.delivered);
  PutU64(&out, record.shed);
  PutU64(&out, record.discarded);
  PutU64(&out, record.backlog);
  PutU64(&out, record.reopt_scheduled);
  PutU64(&out, record.reopt_units);
  return out;
}

std::string EncodeSnapshotPayload(std::uint64_t round,
                                  const std::string& blob) {
  std::string out;
  PutU8(&out, kKindSnapshot);
  PutU64(&out, round);
  PutString(&out, blob);
  return out;
}

}  // namespace

FleetJournalReadResult ReadFleetJournal(const std::string& path,
                                        io::Vfs* vfs) {
  FleetJournalReadResult out;
  std::unordered_set<std::uint64_t> seen_shard;  // round*num_shards + shard
  std::unordered_set<std::uint64_t> seen_fleet;  // round
  // Record counts at the last snapshot seen. Records past it are discarded
  // after the scan: resume truncates to the checkpoint and re-executes
  // everything after it, regenerating them.
  std::size_t cp_shard_count = 0;
  std::size_t cp_fleet_count = 0;

  ScanLog(
      path, kFormat, vfs,
      [&](std::string_view payload, std::uint64_t frame_end) {
        if (!DecodeFleetHeaderPayload(payload, &out.header)) return false;
        out.header_bytes = frame_end;
        return true;
      },
      [&](std::string_view payload, std::uint64_t frame_end) {
        // Each decoder checks the record kind first, so a payload that
        // none accepts (bad kind or bad body) is corruption.
        ShardRoundRecord shard;
        FleetRoundRecord fleet;
        std::uint64_t round = 0;
        std::string blob;
        if (DecodeShardRoundPayload(payload, &shard)) {
          const std::uint64_t key =
              shard.round * out.header.num_shards + shard.shard;
          if (!seen_shard.insert(key).second) {
            ++out.duplicates;
          } else {
            out.shard_records.push_back(shard);
          }
        } else if (DecodeFleetRoundPayload(payload, &fleet)) {
          if (!seen_fleet.insert(fleet.round).second) {
            ++out.duplicates;
          } else {
            out.fleet_records.push_back(fleet);
          }
        } else if (DecodeSnapshotPayload(payload, &round, &blob)) {
          out.has_checkpoint = true;
          out.checkpoint_round = round;
          out.checkpoint_blob = std::move(blob);
          out.checkpoint_bytes = frame_end;
          cp_shard_count = out.shard_records.size();
          cp_fleet_count = out.fleet_records.size();
        } else {
          return false;
        }
        return true;
      },
      &out);
  out.discarded_records = (out.shard_records.size() - cp_shard_count) +
                          (out.fleet_records.size() - cp_fleet_count);
  out.shard_records.resize(cp_shard_count);
  out.fleet_records.resize(cp_fleet_count);
  return out;
}

// ---------------------------------------------------------------------------
// FleetJournalWriter

FleetJournalWriter::FleetJournalWriter(const std::string& path,
                                       const FleetJournalHeader& header,
                                       Options options)
    : options_(std::move(options)),
      log_(path, kFormat, options_.vfs, options_.sync_every_append) {
  if (log_.Create()) Write(EncodeFleetHeaderPayload(header));  // append 1
}

FleetJournalWriter::FleetJournalWriter(const std::string& path,
                                       const FleetJournalReadResult& existing,
                                       Options options)
    : options_(std::move(options)),
      log_(path, kFormat, options_.vfs, options_.sync_every_append) {
  if (!existing.ok) return;  // caller decides; typically restart fresh
  log_.Reopen(existing.has_checkpoint ? existing.checkpoint_bytes
                                      : existing.header_bytes);
}

void FleetJournalWriter::Write(const std::string& payload) {
  if (!log_.Append(payload)) return;
  ++appends_;
  if (options_.after_append) options_.after_append(appends_);
}

void FleetJournalWriter::AppendShardRound(const ShardRoundRecord& record) {
  Write(EncodeShardRoundPayload(record));
}

void FleetJournalWriter::AppendFleetRound(const FleetRoundRecord& record) {
  Write(EncodeFleetRoundPayload(record));
}

void FleetJournalWriter::AppendSnapshot(std::uint64_t round,
                                        const std::string& blob) {
  Write(EncodeSnapshotPayload(round, blob));
}

}  // namespace wolt::recover
