#include "recover/journal.h"

#include <utility>

#include "obs/obs.h"
#include "util/codec.h"

namespace wolt::recover {
namespace {

// Binary payload encoding lives in util/codec.h (shared with the fleet
// journal and the controller state snapshots): native-order fixed-width
// integers, raw 8-byte doubles, bounds-checked ByteCursor reads.
using util::PutDouble;
using util::PutString;
using util::PutU32;
using util::PutU64;
using util::PutU8;
using Cursor = util::ByteCursor;

void PutSnapshot(std::string* out, const obs::MetricsSnapshot& m) {
  PutU64(out, m.counters.size());
  for (const obs::CounterSample& c : m.counters) {
    PutString(out, c.name);
    PutU8(out, c.timing ? 1 : 0);
    PutU64(out, c.value);
  }
  PutU64(out, m.gauges.size());
  for (const obs::GaugeSample& g : m.gauges) {
    PutString(out, g.name);
    PutU8(out, g.timing ? 1 : 0);
    PutDouble(out, g.value);
  }
  PutU64(out, m.histograms.size());
  for (const obs::HistogramSample& h : m.histograms) {
    PutString(out, h.name);
    PutU8(out, h.timing ? 1 : 0);
    util::PutDoubleVec(out, h.bounds);
    util::PutU64Vec(out, h.counts);
    PutU64(out, h.underflow);
    PutU64(out, h.overflow);
    PutU64(out, h.rejected);
  }
}

bool ReadSnapshot(Cursor* cur, obs::MetricsSnapshot* out) {
  const std::uint64_t nc = cur->U64();
  if (!cur->ok() || nc > (1u << 20)) return false;
  out->counters.resize(static_cast<std::size_t>(nc));
  for (obs::CounterSample& c : out->counters) {
    c.name = cur->String();
    c.timing = cur->U8() != 0;
    c.value = cur->U64();
  }
  const std::uint64_t ng = cur->U64();
  if (!cur->ok() || ng > (1u << 20)) return false;
  out->gauges.resize(static_cast<std::size_t>(ng));
  for (obs::GaugeSample& g : out->gauges) {
    g.name = cur->String();
    g.timing = cur->U8() != 0;
    g.value = cur->Double();
  }
  const std::uint64_t nh = cur->U64();
  if (!cur->ok() || nh > (1u << 20)) return false;
  out->histograms.resize(static_cast<std::size_t>(nh));
  for (obs::HistogramSample& h : out->histograms) {
    h.name = cur->String();
    h.timing = cur->U8() != 0;
    if (!cur->DoubleVec(&h.bounds)) return false;
    if (!cur->U64Vec(&h.counts)) return false;
    h.underflow = cur->U64();
    h.overflow = cur->U64();
    h.rejected = cur->U64();
  }
  return cur->ok();
}

// Record kinds inside a frame payload (first byte).
constexpr std::uint8_t kKindHeader = 1;
constexpr std::uint8_t kKindTask = 2;

constexpr LogFormat kFormat{kJournalMagic, "journal",
                           &obs::RecoverCounters::journal};

// Without sync_every_append, every this many task records appended through
// a writer are fsync'd: the journal's periodic durable points.
constexpr std::size_t kSyncEvery = 64;

}  // namespace

std::string EncodeHeaderPayload(const JournalHeader& header) {
  std::string out;
  PutU8(&out, kKindHeader);
  PutU32(&out, kJournalVersion);
  PutU64(&out, header.fingerprint);
  PutU64(&out, header.num_tasks);
  return out;
}

bool DecodeHeaderPayload(std::string_view payload, JournalHeader* out) {
  Cursor cur(payload.data(), payload.size());
  if (cur.U8() != kKindHeader) return false;
  if (cur.U32() != kJournalVersion) return false;
  out->fingerprint = cur.U64();
  out->num_tasks = cur.U64();
  return cur.AtEnd();
}

std::string EncodeTaskPayload(const TaskRecord& record) {
  std::string out;
  PutU8(&out, kKindTask);
  PutU64(&out, record.index);
  PutString(&out, record.error);
  PutDouble(&out, record.aggregate_mbps);
  PutDouble(&out, record.jain_fairness);
  PutDouble(&out, record.oracle_mbps);
  PutDouble(&out, record.regret);
  PutDouble(&out, record.reassoc_per_user_epoch);
  PutU64(&out, record.quarantine_trips);
  PutDouble(&out, record.elapsed_us);
  util::PutDoubleVec(&out, record.user_throughput);
  PutU8(&out, record.has_metrics ? 1 : 0);
  if (record.has_metrics) PutSnapshot(&out, record.metrics);
  return out;
}

bool DecodeTaskPayload(std::string_view payload, TaskRecord* out) {
  Cursor cur(payload.data(), payload.size());
  if (cur.U8() != kKindTask) return false;
  out->index = cur.U64();
  out->error = cur.String();
  out->aggregate_mbps = cur.Double();
  out->jain_fairness = cur.Double();
  out->oracle_mbps = cur.Double();
  out->regret = cur.Double();
  out->reassoc_per_user_epoch = cur.Double();
  out->quarantine_trips = cur.U64();
  out->elapsed_us = cur.Double();
  if (!cur.DoubleVec(&out->user_throughput)) return false;
  out->has_metrics = cur.U8() != 0;
  if (out->has_metrics && !ReadSnapshot(&cur, &out->metrics)) return false;
  return cur.AtEnd();
}

std::string FramePayload(const std::string& payload) {
  return FrameRecord(kJournalMagic, payload);
}

JournalReadResult ReadJournal(const std::string& path, io::Vfs* vfs) {
  JournalReadResult out;
  std::unordered_set<std::uint64_t> seen;
  ScanLog(
      path, kFormat, vfs,
      [&](std::string_view payload, std::uint64_t) {
        return DecodeHeaderPayload(payload, &out.header);
      },
      [&](std::string_view payload, std::uint64_t) {
        TaskRecord rec;
        if (!DecodeTaskPayload(payload, &rec)) return false;
        if (!seen.insert(rec.index).second) {
          ++out.duplicates;
        } else {
          out.records.push_back(std::move(rec));
        }
        return true;
      },
      &out);
  return out;
}

// ---------------------------------------------------------------------------
// JournalWriter

JournalWriter::JournalWriter(const std::string& path,
                             const JournalHeader& header, Options options)
    : options_(std::move(options)),
      log_(path, kFormat, options_.vfs, options_.sync_every_append) {
  if (log_.Create()) log_.Append(EncodeHeaderPayload(header));
}

JournalWriter::JournalWriter(const std::string& path,
                             const JournalReadResult& existing,
                             Options options)
    : options_(std::move(options)),
      log_(path, kFormat, options_.vfs, options_.sync_every_append) {
  if (!existing.ok) return;  // caller decides; typically restart fresh
  log_.Reopen(existing.valid_bytes);
  for (const TaskRecord& rec : existing.records) {
    seen_indices_.insert(rec.index);
  }
}

void JournalWriter::Append(const TaskRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!log_.ok() || seen_indices_.count(record.index) != 0) {
    return;  // journaling off, or already journaled (restored on resume)
  }
  if (!log_.Append(EncodeTaskPayload(record))) return;
  seen_indices_.insert(record.index);
  ++appends_;
  // sync_every_append already made this record durable; a failed fsync
  // degrades the log, like a failed append.
  if (!options_.sync_every_append && appends_ % kSyncEvery == 0 &&
      !log_.Sync()) {
    return;
  }
  if (options_.after_append) options_.after_append(appends_);
}

void JournalWriter::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  log_.Close();
}

}  // namespace wolt::recover
