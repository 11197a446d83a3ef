// Write-ahead journal of completed sweep tasks — the durability layer that
// lets a sweep killed at any instant (including kill -9 mid-record) resume
// and produce byte-identical output to an uninterrupted run.
//
// The WJL1 payload schema on the framed record log (recover/log.h, which
// also gives the crash semantics): a header record followed by one record
// per completed task. Doubles are serialized as their raw 8 bytes (bit-exact
// round trip — the resume path must reproduce the uninterrupted run's merge
// inputs exactly). The header payload carries a format version, the grid
// fingerprint (sweep::Fingerprint of the grid and evaluation options) and
// the task count, so a journal can never be resumed against a different
// sweep.
//
//  * Duplicate task indices (possible when a crash lands between "task
//    re-run" and "journal truncated") dedupe first-record-wins.
//  * The writer never appends an index the file already holds, and resume
//    truncates the torn tail before appending, so the file holds one record
//    per task. Unless sync_every_append is set, every 64th task record a
//    writer appends is fsync'd, so a power cut loses at most the records
//    since the last such durable point.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "io/vfs.h"
#include "obs/metrics.h"
#include "recover/log.h"

namespace wolt::recover {

inline constexpr std::uint32_t kJournalMagic = 0x574A4C31;  // "WJL1"
// Version 2 added the dynamic-workload frontier columns (oracle, regret,
// reassociation rate, quarantine trips) to TaskRecord.
inline constexpr std::uint32_t kJournalVersion = 2;

struct JournalHeader {
  std::uint64_t fingerprint = 0;  // sweep::Fingerprint(grid, eval)
  std::uint64_t num_tasks = 0;
};

// One completed task's result, exactly the data the sweep merge consumes.
struct TaskRecord {
  std::uint64_t index = 0;
  std::string error;              // non-empty: the task body threw
  double aggregate_mbps = 0.0;
  double jain_fairness = 0.0;
  // Frontier columns (0 for static tasks); see sweep::TaskResult.
  double oracle_mbps = 0.0;
  double regret = 0.0;
  double reassoc_per_user_epoch = 0.0;
  std::uint64_t quarantine_trips = 0;
  double elapsed_us = 0.0;        // timing-quarantined, journaled for
                                  // include_timing reports
  std::vector<double> user_throughput;  // raw samples in insertion order
  bool has_metrics = false;
  obs::MetricsSnapshot metrics;
};

// The scan outcome (see LogScan) plus the decoded journal.
struct JournalReadResult : LogScan {
  JournalHeader header;
  // Deduplicated task records (first record for an index wins), in file
  // order of first appearance.
  std::vector<TaskRecord> records;
  std::size_t duplicates = 0;     // duplicate task records dropped
};

// Scans `path` (see ScanLog). Never throws; failures land in `error`.
JournalReadResult ReadJournal(const std::string& path, io::Vfs* vfs = nullptr);

class JournalWriter {
 public:
  struct Options {
    // Test hook, called after each task record has been written (and after
    // the periodic fsync it triggered), with the count of task records
    // appended through this writer. The header is not counted, and a
    // duplicate is neither written nor counted. The crash harness raises
    // SIGKILL in here to die at an exact journal position.
    std::function<void(std::size_t)> after_append;
    // Storage backend; nullptr = the real filesystem.
    io::Vfs* vfs = nullptr;
    // fsync after every append. Default off (see the crash semantics in
    // recover/log.h); the crash harness turns it on so that every append is
    // a distinct durable point.
    bool sync_every_append = false;
  };

  // Fresh journal: truncates `path` and writes the header record.
  JournalWriter(const std::string& path, const JournalHeader& header,
                Options options);

  // Resume: truncates the file to `existing.valid_bytes` (discarding the
  // torn tail ReadJournal found) and appends after the surviving records.
  JournalWriter(const std::string& path, const JournalReadResult& existing,
                Options options);

  // Journaling is active (see LogWriter::ok()). When false the writer is a
  // no-op; the run itself keeps going (best-effort mode) — losing the
  // journal must never take the sweep down with it.
  bool ok() const { return log_.ok(); }
  bool degraded() const { return log_.degraded(); }

  // Thread-safe: serialize, frame, write. Safe to call from the sweep
  // engine's worker threads; an I/O failure degrades the writer.
  void Append(const TaskRecord& record);

  // fsync + close. Called by the destructor if not called explicitly.
  void Close();

 private:
  Options options_;
  LogWriter log_;
  std::mutex mu_;
  std::size_t appends_ = 0;
  std::unordered_set<std::uint64_t> seen_indices_;
};

// Payload codecs, exposed for the torn-tail/corruption unit tests.
std::string EncodeHeaderPayload(const JournalHeader& header);
std::string EncodeTaskPayload(const TaskRecord& record);
bool DecodeHeaderPayload(std::string_view payload, JournalHeader* out);
bool DecodeTaskPayload(std::string_view payload, TaskRecord* out);
// Frames a payload as it appears on disk (magic + length + checksum).
std::string FramePayload(const std::string& payload);

}  // namespace wolt::recover
