// Byte-pinned corpus for the two on-disk journal formats in src/recover/:
// WJL1 (sweep task journal) and WFL1 (fleet journal). The files under
// tests/data/journal_corpus are the format contract: the same records,
// written through JournalWriter and FleetJournalWriter onto an in-memory
// disk, must reproduce them byte for byte, and each committed file must read
// back to exactly those records. The round-trip tests in journal_test and
// fleet_journal_test compare writer output against the same codec that
// produced it, so only this file pins the format on its own.
//
// There is deliberately no regeneration switch. A diff here means journals
// written by an older build no longer resume; a real format change needs a
// version bump (kJournalVersion / kFleetJournalVersion) and new files.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/storage.h"
#include "recover/fleet_journal.h"
#include "recover/journal.h"

#ifndef WOLT_TEST_DATA_DIR
#error "WOLT_TEST_DATA_DIR must point at tests/data"
#endif

namespace wolt::recover {
namespace {

namespace fs = std::filesystem;

fs::path CorpusDir() { return fs::path(WOLT_TEST_DATA_DIR) / "journal_corpus"; }

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- WJL1 -----------------------------------------------------------------

JournalHeader SweepHeader() {
  JournalHeader h;
  h.fingerprint = 0x0123456789ABCDEFULL;
  h.num_tasks = 5;
  return h;
}

// Three task records that between them set every TaskRecord field: a
// static task, a task whose body threw, and a frontier task carrying a
// metrics snapshot with a counter, a gauge and a histogram of each timing
// class.
std::vector<TaskRecord> SweepRecords() {
  std::vector<TaskRecord> out(3);
  out[0].index = 0;
  out[0].aggregate_mbps = 108.64412345678901;
  out[0].jain_fairness = 0.1;
  out[0].elapsed_us = 1234.5;
  out[0].user_throughput = {1.0 / 3.0, 0.0, 7.75e-3, 1e9, -0.0};

  out[1].index = 3;
  out[1].error = "solver threw: extender 7 out of range";
  out[1].elapsed_us = 2.0;

  TaskRecord& f = out[2];
  f.index = 4;
  f.aggregate_mbps = 51.2195;
  f.jain_fairness = 0.91234567891234567;
  f.oracle_mbps = 60.25;
  f.regret = 0.14987551867219917;
  f.reassoc_per_user_epoch = 0.0625;
  f.quarantine_trips = 2;
  f.elapsed_us = 98765.4321;
  f.user_throughput = {12.5, 3.0e-300, 8.0};
  f.has_metrics = true;
  f.metrics.counters = {{"eval.evaluations", false, 12345},
                        {"sweep.steals", true, 7}};
  f.metrics.gauges = {{"workload.peak_users", false, 36.0},
                      {"sweep.wall_seconds", true, 1.5e-3}};
  obs::HistogramSample h;
  h.name = "sweep.task_latency_us";
  h.timing = true;
  h.bounds = {1.0, 10.0, 100.0};
  h.counts = {0, 3, 9, 1};
  h.underflow = 2;
  h.overflow = 1;
  h.rejected = 4;
  f.metrics.histograms = {h};
  return out;
}

std::string WriteSweepCorpus() {
  fault::MemVfs mem;
  JournalWriter::Options opts;
  opts.vfs = &mem;
  {
    JournalWriter w("corpus.wjl", SweepHeader(), opts);
    EXPECT_TRUE(w.ok());
    for (const TaskRecord& rec : SweepRecords()) w.Append(rec);
    w.Close();
  }
  return mem.GetFileBytes("corpus.wjl").value_or("");
}

void ExpectSameTask(const TaskRecord& got, const TaskRecord& want) {
  EXPECT_EQ(got.index, want.index);
  EXPECT_EQ(got.error, want.error);
  // Raw bit patterns: the journal stores doubles as their 8 bytes.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.aggregate_mbps),
            std::bit_cast<std::uint64_t>(want.aggregate_mbps));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.jain_fairness),
            std::bit_cast<std::uint64_t>(want.jain_fairness));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.oracle_mbps),
            std::bit_cast<std::uint64_t>(want.oracle_mbps));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.regret),
            std::bit_cast<std::uint64_t>(want.regret));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.reassoc_per_user_epoch),
            std::bit_cast<std::uint64_t>(want.reassoc_per_user_epoch));
  EXPECT_EQ(got.quarantine_trips, want.quarantine_trips);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.elapsed_us),
            std::bit_cast<std::uint64_t>(want.elapsed_us));
  ASSERT_EQ(got.user_throughput.size(), want.user_throughput.size());
  for (std::size_t i = 0; i < got.user_throughput.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.user_throughput[i]),
              std::bit_cast<std::uint64_t>(want.user_throughput[i]));
  }
  EXPECT_EQ(got.has_metrics, want.has_metrics);
  EXPECT_EQ(got.metrics.Json(true), want.metrics.Json(true));
}

TEST(JournalCorpus, SweepWriterReproducesTheCommittedBytes) {
  const std::string want = ReadFile(CorpusDir() / "sweep.wjl");
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(WriteSweepCorpus(), want)
      << "the WJL1 on-disk format changed; existing journals would no "
         "longer resume";
}

TEST(JournalCorpus, SweepCorpusReadsBack) {
  const JournalReadResult got =
      ReadJournal((CorpusDir() / "sweep.wjl").string());
  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_EQ(got.header.fingerprint, SweepHeader().fingerprint);
  EXPECT_EQ(got.header.num_tasks, SweepHeader().num_tasks);
  EXPECT_EQ(got.torn_bytes, 0u);
  EXPECT_EQ(got.duplicates, 0u);
  EXPECT_FALSE(got.tail_torn);
  EXPECT_FALSE(got.tail_rot);
  const std::vector<TaskRecord> want = SweepRecords();
  ASSERT_EQ(got.records.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameTask(got.records[i], want[i]);
  }
}

// --- WFL1 -----------------------------------------------------------------

FleetJournalHeader FleetHeader() {
  FleetJournalHeader h;
  h.fingerprint = 0xFEEDFACECAFEBEEFULL;
  h.num_shards = 2;
  h.rounds = 6;
  return h;
}

std::vector<ShardRoundRecord> ShardRecords() {
  std::vector<ShardRoundRecord> out(2);
  out[0].round = 0;
  out[0].shard = 0;
  out[0].state = 0;
  out[0].tier = 3;
  out[0].truth_aggregate = 51.409512345678901;
  out[0].processed = 11;
  out[0].decode_rejects = 2;
  out[0].wire_faults = 1;
  out[0].state_conflicts = 1;
  out[0].directives = 4;
  out[0].outbound = 3;
  out[0].failures = 0;
  out[0].dropped = 0;

  out[1].round = 0;
  out[1].shard = 1;
  out[1].state = 2;
  out[1].tier = -1;  // not scheduled this round
  out[1].truth_aggregate = 0.1;
  out[1].processed = 5;
  out[1].failures = 2;
  out[1].dropped = 6;
  out[1].restarted = 1;
  out[1].broke = 1;
  out[1].probed = 1;
  out[1].held_violation = 1;
  out[1].isolation_violation = 1;
  return out;
}

FleetRoundRecord FleetRecord() {
  FleetRoundRecord r;
  r.round = 0;
  r.enqueued = 40;
  r.delivered = 29;
  r.shed = 8;
  r.discarded = 3;
  r.backlog = 0;
  r.reopt_scheduled = 1;
  r.reopt_units = 4;
  return r;
}

// Snapshot blobs are opaque binary state: embedded NULs must survive.
std::string SnapshotBlob() { return std::string("fleet\0state\xff\x01", 13); }

std::string WriteFleetCorpus() {
  fault::MemVfs mem;
  FleetJournalWriter::Options opts;
  opts.vfs = &mem;
  {
    FleetJournalWriter w("corpus.wfl", FleetHeader(), opts);
    EXPECT_TRUE(w.ok());
    for (const ShardRoundRecord& rec : ShardRecords()) w.AppendShardRound(rec);
    w.AppendFleetRound(FleetRecord());
    w.AppendSnapshot(0, SnapshotBlob());
    w.Close();
  }
  return mem.GetFileBytes("corpus.wfl").value_or("");
}

TEST(JournalCorpus, FleetWriterReproducesTheCommittedBytes) {
  const std::string want = ReadFile(CorpusDir() / "fleet.wfl");
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(WriteFleetCorpus(), want)
      << "the WFL1 on-disk format changed; existing journals would no "
         "longer resume";
}

TEST(JournalCorpus, FleetCorpusReadsBack) {
  const FleetJournalReadResult got =
      ReadFleetJournal((CorpusDir() / "fleet.wfl").string());
  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_EQ(got.header.fingerprint, FleetHeader().fingerprint);
  EXPECT_EQ(got.header.num_shards, FleetHeader().num_shards);
  EXPECT_EQ(got.header.rounds, FleetHeader().rounds);
  EXPECT_EQ(got.torn_bytes, 0u);
  EXPECT_EQ(got.duplicates, 0u);
  EXPECT_EQ(got.discarded_records, 0u);
  ASSERT_TRUE(got.has_checkpoint);
  EXPECT_EQ(got.checkpoint_round, 0u);
  EXPECT_EQ(got.checkpoint_blob, SnapshotBlob());
  EXPECT_EQ(got.checkpoint_bytes, got.valid_bytes);

  const std::vector<ShardRoundRecord> want = ShardRecords();
  ASSERT_EQ(got.shard_records.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    const ShardRoundRecord& a = got.shard_records[i];
    const ShardRoundRecord& b = want[i];
    EXPECT_EQ(a.round, b.round);
    EXPECT_EQ(a.shard, b.shard);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.tier, b.tier);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.truth_aggregate),
              std::bit_cast<std::uint64_t>(b.truth_aggregate));
    EXPECT_EQ(a.processed, b.processed);
    EXPECT_EQ(a.decode_rejects, b.decode_rejects);
    EXPECT_EQ(a.wire_faults, b.wire_faults);
    EXPECT_EQ(a.state_conflicts, b.state_conflicts);
    EXPECT_EQ(a.directives, b.directives);
    EXPECT_EQ(a.outbound, b.outbound);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.restarted, b.restarted);
    EXPECT_EQ(a.broke, b.broke);
    EXPECT_EQ(a.probed, b.probed);
    EXPECT_EQ(a.held_violation, b.held_violation);
    EXPECT_EQ(a.isolation_violation, b.isolation_violation);
  }
  ASSERT_EQ(got.fleet_records.size(), 1u);
  const FleetRoundRecord& f = got.fleet_records[0];
  const FleetRoundRecord want_f = FleetRecord();
  EXPECT_EQ(f.round, want_f.round);
  EXPECT_EQ(f.enqueued, want_f.enqueued);
  EXPECT_EQ(f.delivered, want_f.delivered);
  EXPECT_EQ(f.shed, want_f.shed);
  EXPECT_EQ(f.discarded, want_f.discarded);
  EXPECT_EQ(f.backlog, want_f.backlog);
  EXPECT_EQ(f.reopt_scheduled, want_f.reopt_scheduled);
  EXPECT_EQ(f.reopt_units, want_f.reopt_units);
}

}  // namespace
}  // namespace wolt::recover
