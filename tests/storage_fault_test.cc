// Storage fault plane units and the atomic-writer durability property.
//
// MemVfs is checked against its own durability model (fsync barriers,
// data=ordered renames, power cuts); FaultVfs against its deterministic
// fail-at-op / crash-at-op modes and probabilistic injections; and
// WriteFileAtomic / AtomicFileWriter against the contract every reporter
// relies on: under ANY fault schedule — short writes, EINTR, hard errors,
// fsync lies, torn renames, a power cut at any operation — the destination
// holds either the complete old bytes or the complete new bytes, never a
// prefix or a mix. The degraded-journal units at the bottom pin the
// graceful-degradation semantics (an append or fsync failure disables
// journaling without taking the run down) and the journal's durable points.
#include "fault/storage.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "io/vfs.h"
#include "obs/obs.h"
#include "recover/journal.h"
#include "util/csv.h"
#include "util/fileio.h"
#include "util/rng.h"

namespace wolt {
namespace {

using fault::FaultVfs;
using fault::MemVfs;
using fault::StorageFaultParams;
using fault::StorageOp;
using fault::StorageOpFaults;

// ---------------------------------------------------------------------------
// MemVfs durability model

TEST(MemVfsTest, UnsyncedWritesDieInACrash) {
  MemVfs mem;
  io::IoStatus st;
  const int fd = mem.OpenWrite("f", io::Vfs::OpenMode::kTruncate, &st);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(mem.Write(fd, "hello", 5, &st), 5);
  ASSERT_TRUE(mem.Close(fd).ok());
  EXPECT_EQ(mem.GetFileBytes("f"), "hello");     // page cache has it
  EXPECT_FALSE(mem.GetDurableBytes("f").has_value());  // disk does not
  mem.SimulateCrash();
  EXPECT_FALSE(mem.Exists("f"));
}

TEST(MemVfsTest, FsyncMakesBytesDurable) {
  MemVfs mem;
  io::IoStatus st;
  const int fd = mem.OpenWrite("f", io::Vfs::OpenMode::kTruncate, &st);
  ASSERT_EQ(mem.Write(fd, "hello", 5, &st), 5);
  ASSERT_TRUE(mem.Fsync(fd).ok());
  ASSERT_EQ(mem.Write(fd, " tail", 5, &st), 5);  // after the barrier
  ASSERT_TRUE(mem.Close(fd).ok());
  mem.SimulateCrash();
  EXPECT_EQ(mem.GetFileBytes("f"), "hello");  // only the synced prefix
}

TEST(MemVfsTest, RenameNeedsDirSyncToBeDurable) {
  MemVfs mem;
  io::IoStatus st;
  int fd = mem.OpenWrite("tmp", io::Vfs::OpenMode::kTruncate, &st);
  ASSERT_EQ(mem.Write(fd, "new", 3, &st), 3);
  ASSERT_TRUE(mem.Fsync(fd).ok());
  ASSERT_TRUE(mem.Close(fd).ok());
  ASSERT_TRUE(mem.Rename("tmp", "dest").ok());
  EXPECT_EQ(mem.GetFileBytes("dest"), "new");  // visible immediately
  mem.SimulateCrash();                         // ... but not durable yet
  EXPECT_FALSE(mem.Exists("dest"));
  EXPECT_EQ(mem.GetFileBytes("tmp"), "new");  // fsync'd under the old name

  ASSERT_TRUE(mem.Rename("tmp", "dest").ok());
  ASSERT_TRUE(mem.SyncDir(".").ok());  // the directory barrier commits it
  mem.SimulateCrash();
  EXPECT_EQ(mem.GetFileBytes("dest"), "new");
  EXPECT_FALSE(mem.Exists("tmp"));
}

TEST(MemVfsTest, DataOrderedRenameCarriesUnsyncedContents) {
  // ext4 data=ordered: a committed rename carries the renamed file's bytes
  // as of rename time even when the file itself was never fsynced — the
  // property that makes fsync-lie schedules survivable for correct code.
  MemVfs mem;
  io::IoStatus st;
  const int fd = mem.OpenWrite("tmp", io::Vfs::OpenMode::kTruncate, &st);
  ASSERT_EQ(mem.Write(fd, "new", 3, &st), 3);  // no fsync
  ASSERT_TRUE(mem.Close(fd).ok());
  ASSERT_TRUE(mem.Rename("tmp", "dest").ok());
  ASSERT_TRUE(mem.SyncDir(".").ok());
  mem.SimulateCrash();
  EXPECT_EQ(mem.GetFileBytes("dest"), "new");
}

TEST(MemVfsTest, CrashKillsOpenHandles) {
  MemVfs mem;
  io::IoStatus st;
  const int fd = mem.OpenWrite("f", io::Vfs::OpenMode::kTruncate, &st);
  mem.SimulateCrash();
  EXPECT_EQ(mem.Write(fd, "x", 1, &st), -1);
  EXPECT_EQ(st.err, EBADF);
  EXPECT_EQ(mem.Fsync(fd).err, EBADF);
}

TEST(MemVfsTest, FlipBitCorruptsBothImages) {
  MemVfs mem;
  mem.SetFileBytes("f", std::string("\x00", 1));
  ASSERT_TRUE(mem.FlipBit("f", 3));
  EXPECT_EQ(mem.GetFileBytes("f"), std::string("\x08", 1));
  mem.SimulateCrash();
  EXPECT_EQ(mem.GetFileBytes("f"), std::string("\x08", 1));
  EXPECT_FALSE(mem.FlipBit("f", 64));  // past the end
  EXPECT_FALSE(mem.FlipBit("missing", 0));
}

// ---------------------------------------------------------------------------
// FaultVfs deterministic modes

TEST(FaultVfsTest, FailAtExactOpIndex) {
  MemVfs mem;
  StorageFaultParams params;
  params.fail_at_op = 2;  // op0=open, op1=write, op2=fsync
  params.fail_at_op_err = ENOSPC;
  FaultVfs vfs(mem, params, /*seed=*/1);
  io::IoStatus st;
  const int fd = vfs.OpenWrite("f", io::Vfs::OpenMode::kTruncate, &st);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(vfs.Write(fd, "abc", 3, &st), 3);
  const io::IoStatus fs = vfs.Fsync(fd);
  EXPECT_FALSE(fs.ok());
  EXPECT_EQ(fs.err, ENOSPC);
  EXPECT_TRUE(vfs.Close(fd).ok());  // only the exact index fails
  EXPECT_EQ(vfs.op_count(), 4u);
  EXPECT_EQ(vfs.stats().injected_fail, 1u);
}

TEST(FaultVfsTest, CrashAtOpSwallowsEverythingAfter) {
  MemVfs mem;
  StorageFaultParams params;
  params.crash_at_op = 2;  // open, write land; second write is torn
  FaultVfs vfs(mem, params, /*seed=*/1);
  io::IoStatus st;
  const int fd = vfs.OpenWrite("f", io::Vfs::OpenMode::kTruncate, &st);
  ASSERT_EQ(vfs.Write(fd, "abcd", 4, &st), 4);
  // The crash-index write reports success but lands only half its bytes —
  // a torn final write, exactly what a power cut mid-write leaves behind.
  ASSERT_EQ(vfs.Write(fd, "EFGH", 4, &st), 4);
  EXPECT_TRUE(vfs.Fsync(fd).ok());   // silently swallowed
  EXPECT_TRUE(vfs.Close(fd).ok());
  EXPECT_EQ(mem.GetFileBytes("f"), "abcdEF");
  EXPECT_GE(vfs.stats().crashed_ops, 3u);
  mem.SimulateCrash();
  EXPECT_FALSE(mem.Exists("f"));  // the swallowed fsync never ran
}

TEST(FaultVfsTest, CrashedOpensHandOutDeadHandles) {
  MemVfs mem;
  StorageFaultParams params;
  params.crash_at_op = 0;
  FaultVfs vfs(mem, params, /*seed=*/1);
  io::IoStatus st;
  const int fd = vfs.OpenWrite("f", io::Vfs::OpenMode::kTruncate, &st);
  ASSERT_GE(fd, 0);  // reports success (the process hasn't noticed yet)
  EXPECT_EQ(vfs.Write(fd, "abcd", 4, &st), 4);  // swallowed
  EXPECT_FALSE(mem.Exists("f"));  // nothing ever reached the inner Vfs
}

TEST(FaultVfsTest, EintrAndShortWritesAreAbsorbedByWriteAll) {
  // Under heavy EINTR + short-write injection, io::WriteAll must still land
  // every byte, for any seed.
  const std::string payload(10000, 'x');
  bool saw_short = false;
  bool saw_eintr = false;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    MemVfs mem;
    StorageOpFaults f;
    f.eintr = 0.25;
    f.short_write = 0.5;
    FaultVfs vfs(mem, StorageFaultParams::Uniform(f), seed);
    io::IoStatus st;
    const int fd = vfs.OpenWrite("f", io::Vfs::OpenMode::kTruncate, &st);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(io::WriteAll(vfs, fd, payload).ok()) << "seed " << seed;
    ASSERT_TRUE(vfs.Close(fd).ok());
    ASSERT_EQ(mem.GetFileBytes("f"), payload) << "seed " << seed;
    saw_short = saw_short || vfs.stats().injected_short > 0;
    saw_eintr = saw_eintr || vfs.stats().injected_eintr > 0;
  }
  EXPECT_TRUE(saw_short);
  EXPECT_TRUE(saw_eintr);
}

TEST(FaultVfsTest, BitFlipCorruptsWrittenBytes) {
  MemVfs mem;
  StorageOpFaults f;
  f.bit_flip = 1.0;
  FaultVfs vfs(mem, StorageFaultParams::Uniform(f), /*seed=*/7);
  io::IoStatus st;
  const int fd = vfs.OpenWrite("f", io::Vfs::OpenMode::kTruncate, &st);
  const std::string payload(64, '\0');
  ASSERT_TRUE(io::WriteAll(vfs, fd, payload).ok());  // reported clean
  ASSERT_TRUE(vfs.Close(fd).ok());
  const std::optional<std::string> got = mem.GetFileBytes("f");
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->size(), payload.size());  // same length...
  EXPECT_NE(*got, payload);                // ...different bits
  EXPECT_GE(vfs.stats().injected_bit_flip, 1u);
}

TEST(FaultVfsTest, ReadsPassThroughUncounted) {
  MemVfs mem;
  mem.SetFileBytes("f", "bytes");
  StorageFaultParams params;
  params.fail_at_op = 0;  // would fail the very first counted op
  FaultVfs vfs(mem, params, /*seed=*/1);
  std::string out;
  EXPECT_TRUE(vfs.ReadFileBytes("f", &out).ok());
  EXPECT_EQ(out, "bytes");
  EXPECT_EQ(vfs.op_count(), 0u);
}

// ---------------------------------------------------------------------------
// The old-or-new property of the atomic writers

const char kDest[] = "report.csv";
const std::string kOldBytes = "old,complete,artefact\n1,2,3\n";

std::string NewBytes(std::uint64_t seed) {
  std::string s = "new,artefact,seed=" + std::to_string(seed) + "\n";
  util::Rng rng(seed ^ 0x5EEDF11EULL);
  for (int i = 0; i < 200; ++i) {
    s += std::to_string(rng.Next()) + "\n";
  }
  return s;
}

// Probabilities tuned so most schedules inject at least one fault while a
// meaningful fraction of runs still succeed (both branches of the property
// get exercised). bit_flip stays 0: silent medium corruption of acknowledged
// bytes is *designed* to break old-or-new (that is what the journal checksum
// layer is for) — it gets its own rot-recovery tests.
StorageFaultParams PropertyFaults() {
  StorageOpFaults f;
  f.fail = 0.08;
  f.eintr = 0.15;
  f.short_write = 0.3;
  f.fsync_lie = 0.5;
  f.torn_rename = 0.3;
  return StorageFaultParams::Uniform(f);
}

void CheckOldOrNew(const MemVfs& mem, const std::string& want,
                   std::uint64_t seed, const char* when) {
  const std::optional<std::string> got = mem.GetFileBytes(kDest);
  ASSERT_TRUE(got.has_value()) << when << ", seed " << seed;
  EXPECT_TRUE(*got == kOldBytes || *got == want)
      << when << ", seed " << seed << ": destination is " << got->size()
      << " bytes, neither the old nor the new artefact";
}

TEST(AtomicWriteProperty, WriteFileAtomicIsOldOrNewUnderRandomFaults) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const std::string want = NewBytes(seed);
    MemVfs mem;
    mem.SetFileBytes(kDest, kOldBytes);
    FaultVfs vfs(mem, PropertyFaults(), seed);
    const io::IoStatus st = util::WriteFileAtomic(kDest, want, &vfs);
    CheckOldOrNew(mem, want, seed, "after write");
    if (st.ok()) {
      EXPECT_EQ(mem.GetFileBytes(kDest), want) << "seed " << seed;
    }
    // And the same holds for what survives a power cut right afterwards.
    mem.SimulateCrash();
    CheckOldOrNew(mem, want, seed, "after crash");
  }
}

TEST(AtomicWriteProperty, WriteFileAtomicIsOldOrNewUnderPowerCuts) {
  // Exhaustively cut power at every operation index of the atomic-write
  // protocol, composed with fsync lies (the nastiest schedule: the barrier
  // claims success, then power dies).
  for (const bool lie : {false, true}) {
    // Instrumented clean run to learn the op count.
    std::uint64_t ops = 0;
    {
      MemVfs mem;
      mem.SetFileBytes(kDest, kOldBytes);
      StorageFaultParams params;
      if (lie) params.ForOp(StorageOp::kFsync).fsync_lie = 1.0;
      FaultVfs vfs(mem, params, /*seed=*/0);
      ASSERT_TRUE(util::WriteFileAtomic(kDest, NewBytes(0), &vfs).ok());
      ops = vfs.op_count();
      ASSERT_GE(ops, 5u);  // open, write(s), fsync, close, rename, syncdir
    }
    for (std::uint64_t k = 0; k <= ops; ++k) {
      const std::uint64_t seed = 1000 + k;
      const std::string want = NewBytes(seed);
      MemVfs mem;
      mem.SetFileBytes(kDest, kOldBytes);
      StorageFaultParams params;
      params.crash_at_op = k;
      if (lie) params.ForOp(StorageOp::kFsync).fsync_lie = 1.0;
      FaultVfs vfs(mem, params, seed);
      util::WriteFileAtomic(kDest, want, &vfs);
      mem.SimulateCrash();
      CheckOldOrNew(mem, want, seed,
                    lie ? "power cut with lying fsync" : "power cut");
    }
  }
}

TEST(AtomicWriteProperty, StreamingWriterIsOldOrNewUnderRandomFaults) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const std::string want = NewBytes(seed);
    MemVfs mem;
    mem.SetFileBytes(kDest, kOldBytes);
    FaultVfs vfs(mem, PropertyFaults(), seed ^ 0xA70A70ULL);
    util::AtomicFileWriter writer(kDest, &vfs);
    writer.stream() << want;
    const io::IoStatus st = writer.Commit();
    CheckOldOrNew(mem, want, seed, "after commit");
    if (st.ok()) {
      EXPECT_EQ(mem.GetFileBytes(kDest), want) << "seed " << seed;
    }
    mem.SimulateCrash();
    CheckOldOrNew(mem, want, seed, "after crash");
  }
}

TEST(AtomicWriteProperty, AbandonNeverTouchesDestination) {
  MemVfs mem;
  mem.SetFileBytes(kDest, kOldBytes);
  util::AtomicFileWriter writer(kDest, &mem);
  writer.stream() << "half-finished";
  writer.Abandon();
  EXPECT_EQ(mem.GetFileBytes(kDest), kOldBytes);
  EXPECT_FALSE(writer.ok());
}

TEST(AtomicWriteProperty, OpenFailureReportsErrnoAndLeavesOldFile) {
  MemVfs mem;
  mem.SetFileBytes(kDest, kOldBytes);
  StorageFaultParams params;
  params.fail_at_op = 0;  // the temp-file open
  params.fail_at_op_err = ENOSPC;
  FaultVfs vfs(mem, params, /*seed=*/1);
  util::AtomicFileWriter writer(kDest, &vfs);
  EXPECT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().err, ENOSPC);
  writer.stream() << "goes nowhere";
  EXPECT_FALSE(writer.Commit().ok());
  EXPECT_EQ(mem.GetFileBytes(kDest), kOldBytes);
}

TEST(AtomicWriteProperty, CsvWriterSurfacesFaultStatus) {
  MemVfs mem;
  StorageFaultParams params;
  params.fail_at_op = 0;
  params.fail_at_op_err = ENOSPC;
  FaultVfs vfs(mem, params, /*seed=*/1);
  util::CsvWriter csv("out.csv", {"a", "b"}, &vfs);
  EXPECT_FALSE(csv.ok());
  EXPECT_EQ(csv.status().err, ENOSPC);
}

// ---------------------------------------------------------------------------
// Graceful journal degradation

recover::TaskRecord MakeRecord(std::uint64_t index) {
  recover::TaskRecord rec;
  rec.index = index;
  rec.aggregate_mbps = 100.0 + static_cast<double>(index);
  rec.jain_fairness = 0.9;
  rec.user_throughput = {1.0, 2.0};
  return rec;
}

TEST(JournalDegradeTest, AppendFailureDisablesJournalingKeepsValidPrefix) {
  MemVfs mem;
  StorageFaultParams params;
  params.fail_at_op = 3;  // op0=open, op1=header, op2=rec0, op3=rec1
  params.fail_at_op_err = ENOSPC;
  FaultVfs vfs(mem, params, /*seed=*/1);

  obs::MetricsRegistry reg;
  obs::ScopedMetrics scoped(reg);

  recover::JournalWriter::Options opts;
  opts.vfs = &vfs;
  recover::JournalHeader header;
  header.fingerprint = 42;
  header.num_tasks = 8;
  recover::JournalWriter writer("sweep.wal", header, opts);
  ASSERT_TRUE(writer.ok());
  writer.Append(MakeRecord(0));
  EXPECT_TRUE(writer.ok());
  writer.Append(MakeRecord(1));  // the ENOSPC append
  EXPECT_FALSE(writer.ok());
  EXPECT_TRUE(writer.degraded());
  writer.Append(MakeRecord(2));  // best-effort no-op, must not crash
  writer.Close();

  // The file keeps its valid prefix: header + the one good record.
  const recover::JournalReadResult check =
      recover::ReadJournal("sweep.wal", &mem);
  ASSERT_TRUE(check.ok) << check.error;
  ASSERT_EQ(check.records.size(), 1u);
  EXPECT_EQ(check.records[0].index, 0u);
  EXPECT_FALSE(check.tail_torn);
  EXPECT_FALSE(check.tail_rot);
#if WOLT_OBS_ENABLED
  EXPECT_GE(reg.GetCounter("recover.journal.io_error").Value(), 1u);
  EXPECT_EQ(reg.GetCounter("recover.journal.degraded").Value(), 1u);
#endif
}

TEST(JournalDegradeTest, PeriodicFsyncFailureDegradesAtRecord64) {
  MemVfs mem;
  StorageFaultParams params;
  // Fail every fsync: without sync_every_append the first one the journal
  // issues is the periodic durable point after task record 64.
  params.ForOp(StorageOp::kFsync).fail = 1.0;
  params.ForOp(StorageOp::kFsync).fail_err = EIO;
  FaultVfs vfs(mem, params, /*seed=*/1);

  obs::MetricsRegistry reg;
  obs::ScopedMetrics scoped(reg);

  recover::JournalWriter::Options opts;
  opts.vfs = &vfs;
  recover::JournalHeader header;
  header.fingerprint = 42;
  header.num_tasks = 100;
  recover::JournalWriter writer("sweep.wal", header, opts);
  for (std::uint64_t i = 0; i < 63; ++i) {
    writer.Append(MakeRecord(i));
    ASSERT_TRUE(writer.ok()) << "append " << i;
  }
  writer.Append(MakeRecord(63));  // record 64: written, then its fsync fails
  EXPECT_FALSE(writer.ok());
  EXPECT_TRUE(writer.degraded());
  writer.Append(MakeRecord(64));  // best-effort no-op, must not crash
  writer.Close();

  const recover::JournalReadResult check =
      recover::ReadJournal("sweep.wal", &mem);
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.records.size(), 64u);
  EXPECT_FALSE(check.tail_torn);
  EXPECT_FALSE(check.tail_rot);
#if WOLT_OBS_ENABLED
  EXPECT_GE(reg.GetCounter("recover.journal.io_error").Value(), 1u);
  EXPECT_EQ(reg.GetCounter("recover.journal.degraded").Value(), 1u);
#endif
}

// Without sync_every_append the journal's durable points are every 64th
// task record: a power cut after 130 appends keeps exactly 128.
TEST(JournalDegradeTest, PowerCutKeepsRecordsUpToTheLastPeriodicFsync) {
  MemVfs mem;
  recover::JournalWriter::Options opts;
  opts.vfs = &mem;
  recover::JournalHeader header;
  header.fingerprint = 42;
  header.num_tasks = 130;
  recover::JournalWriter writer("sweep.wal", header, opts);
  for (std::uint64_t i = 0; i < 130; ++i) writer.Append(MakeRecord(i));
  mem.SimulateCrash();  // before Close(), which would fsync the rest

  const recover::JournalReadResult check =
      recover::ReadJournal("sweep.wal", &mem);
  ASSERT_TRUE(check.ok) << check.error;
  ASSERT_EQ(check.records.size(), 128u);
  for (std::uint64_t i = 0; i < 128; ++i) {
    EXPECT_EQ(check.records[i].index, i);
  }
}

TEST(JournalDegradeTest, OpenFailureDegradesImmediatelyRunContinues) {
  MemVfs mem;
  StorageFaultParams params;
  params.fail_at_op = 0;
  FaultVfs vfs(mem, params, /*seed=*/1);
  recover::JournalWriter::Options opts;
  opts.vfs = &vfs;
  recover::JournalWriter writer("sweep.wal", recover::JournalHeader{}, opts);
  EXPECT_FALSE(writer.ok());
  EXPECT_TRUE(writer.degraded());
  writer.Append(MakeRecord(0));  // no-op, no crash
  writer.Close();
  EXPECT_FALSE(mem.Exists("sweep.wal"));
}

TEST(JournalRotTest, BitRotTruncatesToLastGoodFrameInsteadOfAborting) {
  MemVfs mem;
  {
    recover::JournalWriter::Options opts;
    opts.vfs = &mem;
    recover::JournalHeader header;
    header.fingerprint = 42;
    header.num_tasks = 8;
    recover::JournalWriter writer("sweep.wal", header, opts);
    for (std::uint64_t i = 0; i < 4; ++i) writer.Append(MakeRecord(i));
    writer.Close();
  }
  const std::optional<std::string> bytes = mem.GetFileBytes("sweep.wal");
  ASSERT_TRUE(bytes.has_value());
  // Rot a payload byte of the final record: the frame still *looks*
  // complete, but its checksum no longer matches.
  ASSERT_TRUE(mem.FlipBit("sweep.wal", (bytes->size() - 3) * 8));

  obs::MetricsRegistry reg;
  obs::ScopedMetrics scoped(reg);
  const recover::JournalReadResult check =
      recover::ReadJournal("sweep.wal", &mem);
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.records.size(), 3u);  // truncated to the last good frame
  EXPECT_TRUE(check.tail_rot);
  EXPECT_FALSE(check.tail_torn);
  EXPECT_GT(check.torn_bytes, 0u);
#if WOLT_OBS_ENABLED
  EXPECT_GE(reg.GetCounter("recover.journal.rot_truncated").Value(), 1u);
#endif
}

TEST(JournalRotTest, TornTailIsClassifiedAsTornNotRot) {
  MemVfs mem;
  {
    recover::JournalWriter::Options opts;
    opts.vfs = &mem;
    recover::JournalHeader header;
    header.fingerprint = 42;
    header.num_tasks = 8;
    recover::JournalWriter writer("sweep.wal", header, opts);
    for (std::uint64_t i = 0; i < 3; ++i) writer.Append(MakeRecord(i));
    writer.Close();
  }
  const std::optional<std::string> bytes = mem.GetFileBytes("sweep.wal");
  ASSERT_TRUE(bytes.has_value());
  // Chop mid-frame: an incomplete final record (crash mid-append).
  ASSERT_TRUE(mem.Truncate("sweep.wal", bytes->size() - 7).ok());
  const recover::JournalReadResult check =
      recover::ReadJournal("sweep.wal", &mem);
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.records.size(), 2u);
  EXPECT_TRUE(check.tail_torn);
  EXPECT_FALSE(check.tail_rot);
}

// ---------------------------------------------------------------------------
// Misc seam units

TEST(VfsTest, DirOf) {
  EXPECT_EQ(io::DirOf("a/b/c.csv"), "a/b");
  EXPECT_EQ(io::DirOf("c.csv"), ".");
  EXPECT_EQ(io::DirOf("/c.csv"), "/");
}

TEST(VfsTest, IoStatusMessageNamesOpAndErrno) {
  const io::IoStatus st = io::IoStatus::Fail("write", ENOSPC);
  const std::string msg = st.Message();
  EXPECT_NE(msg.find("write"), std::string::npos);
  EXPECT_NE(msg.find("28"), std::string::npos);
  EXPECT_TRUE(io::IoStatus::Ok().ok());
  EXPECT_EQ(io::IoStatus::Fail("x", 0).err, EIO);  // 0 coerced: never "ok"
}

}  // namespace
}  // namespace wolt
