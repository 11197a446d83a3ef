// Storage fault plane: the disk-side sibling of the wire-side FaultPlane in
// fault/plane.h. Where plane.h mangles control messages in flight, this file
// mangles the persistence layer itself, behind the io::Vfs seam that every
// writer in the tree (util/fileio, util/csv, recover/journal,
// recover/fleet_journal) routes through.
//
// Two implementations:
//
//  * MemVfs — an in-memory filesystem with an explicit durability model:
//    writes land in a volatile page-cache image, and only fsync, or a rename
//    committed by a directory sync, moves bytes into the durable image
//    (modelled on ext4 data=ordered: committing a rename durably also
//    commits the renamed file's contents as of rename time). SimulateCrash()
//    is a power cut: the volatile image is discarded and the durable image
//    becomes reality. This is what lets a test enumerate "what does the disk
//    hold if power dies here?" for every single I/O operation, in-process,
//    with no fork.
//
//  * FaultVfs — a decorator over any inner Vfs that injects faults from a
//    seeded util::Rng: short writes, EINTR, hard errors (ENOSPC/EIO/...),
//    fsync lies (report success, skip the barrier), torn renames (perform
//    the rename, report failure), and post-write bit-flips, each with a
//    per-op-class probability. Two deterministic modes ride on a global op
//    counter: `fail_at_op` makes exactly the Nth operation fail (the crash-
//    consistency harness sweeps N over every index), and `crash_at_op`
//    silently no-ops every operation from index N onward — the run finishes,
//    its in-memory results are discarded, and the inner MemVfs now holds the
//    exact pre-crash disk state.
//
// All randomness derives from the construction seed, so any failing fault
// schedule replays exactly.
#pragma once

#include <cerrno>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "io/vfs.h"
#include "util/rng.h"

namespace wolt::fault {

// ---------------------------------------------------------------------------
// MemVfs

class MemVfs : public io::Vfs {
 public:
  MemVfs() = default;

  int OpenWrite(const std::string& path, OpenMode mode,
                io::IoStatus* status) override;
  long Write(int handle, const char* data, std::size_t size,
             io::IoStatus* status) override;
  io::IoStatus Fsync(int handle) override;
  io::IoStatus Close(int handle) override;
  io::IoStatus Rename(const std::string& from, const std::string& to) override;
  io::IoStatus Truncate(const std::string& path, std::uint64_t size) override;
  io::IoStatus Remove(const std::string& path) override;
  // Commits every pending rename (simplification: one directory).
  io::IoStatus SyncDir(const std::string& dir) override;
  io::IoStatus ReadFileBytes(const std::string& path,
                             std::string* out) override;

  // Power cut: volatile state is discarded, the durable image becomes the
  // visible one, pending renames are dropped, and every open handle dies
  // (subsequent operations on it fail with EBADF).
  void SimulateCrash();

  // --- test helpers (operate on both images unless noted) ---
  void SetFileBytes(const std::string& path, const std::string& bytes);
  // Visible content, or nullopt if the file does not exist.
  std::optional<std::string> GetFileBytes(const std::string& path) const;
  std::optional<std::string> GetDurableBytes(const std::string& path) const;
  bool Exists(const std::string& path) const;
  // Bit-rot injection: flips one bit at `bit_index` in both images.
  // Returns false if the file is missing or too short.
  bool FlipBit(const std::string& path, std::uint64_t bit_index);

 private:
  struct Handle {
    std::string path;
    bool open = false;
  };
  struct PendingRename {
    std::string from;
    std::string to;
    std::string data_at_rename;  // ext4 data=ordered snapshot
  };

  mutable std::mutex mu_;
  std::map<std::string, std::string> visible_;  // page-cache image
  std::map<std::string, std::string> durable_;  // what survives power loss
  std::vector<PendingRename> pending_renames_;
  std::vector<Handle> handles_;
};

// ---------------------------------------------------------------------------
// FaultVfs

// Operation classes, each with its own fault knobs.
enum class StorageOp : int {
  kOpen = 0,
  kWrite,
  kFsync,
  kClose,
  kRename,
  kTruncate,
  kRemove,
  kSyncDir,
};
inline constexpr int kNumStorageOps = 8;
const char* ToString(StorageOp op);

// Fault probabilities for one op class. Fields that make no sense for a
// class (e.g. `short_write` on fsync) are ignored there.
struct StorageOpFaults {
  double fail = 0.0;          // hard failure with `fail_err`
  int fail_err = EIO;         // commonly overridden to ENOSPC
  double eintr = 0.0;         // write/fsync interrupted (caller retries)
  double short_write = 0.0;   // write accepts only part of the buffer
  double fsync_lie = 0.0;     // fsync reports success, skips the barrier
  double torn_rename = 0.0;   // rename happens but reports failure
  double bit_flip = 0.0;      // one random bit of the written bytes flips
};

struct StorageFaultParams {
  StorageOpFaults per_op[kNumStorageOps];

  StorageOpFaults& ForOp(StorageOp op) { return per_op[static_cast<int>(op)]; }
  const StorageOpFaults& ForOp(StorageOp op) const {
    return per_op[static_cast<int>(op)];
  }
  // Same faults on every op class.
  static StorageFaultParams Uniform(const StorageOpFaults& f);

  static constexpr std::uint64_t kNever = ~0ULL;
  // Deterministic mode 1: operation index `fail_at_op` (0-based, counted
  // across all classes) fails with `fail_at_op_err`; everything else is
  // clean. The crash harness sweeps this over [0, op_count).
  std::uint64_t fail_at_op = kNever;
  int fail_at_op_err = ENOSPC;
  // Deterministic mode 2: operation `crash_at_op` and everything after it
  // silently no-op (a write at the crash index lands half its bytes first —
  // a torn final write). Pair with MemVfs::SimulateCrash() afterwards.
  std::uint64_t crash_at_op = kNever;
};

struct StorageFaultStats {
  std::uint64_t ops = 0;  // operations that passed through (incl. faulted)
  std::uint64_t injected_fail = 0;
  std::uint64_t injected_eintr = 0;
  std::uint64_t injected_short = 0;
  std::uint64_t injected_fsync_lie = 0;
  std::uint64_t injected_torn_rename = 0;
  std::uint64_t injected_bit_flip = 0;
  std::uint64_t crashed_ops = 0;  // ops swallowed by crash_at_op mode
};

class FaultVfs : public io::Vfs {
 public:
  FaultVfs(io::Vfs& inner, StorageFaultParams params, std::uint64_t seed);

  int OpenWrite(const std::string& path, OpenMode mode,
                io::IoStatus* status) override;
  long Write(int handle, const char* data, std::size_t size,
             io::IoStatus* status) override;
  io::IoStatus Fsync(int handle) override;
  io::IoStatus Close(int handle) override;
  io::IoStatus Rename(const std::string& from, const std::string& to) override;
  io::IoStatus Truncate(const std::string& path, std::uint64_t size) override;
  io::IoStatus Remove(const std::string& path) override;
  io::IoStatus SyncDir(const std::string& dir) override;
  // Reads pass through uncounted: the crash harness enumerates the ops of
  // the *writing* run; replay reads during resume are left clean.
  io::IoStatus ReadFileBytes(const std::string& path,
                             std::string* out) override;

  const StorageFaultStats& stats() const { return stats_; }
  void ResetStats() { stats_ = StorageFaultStats{}; }
  // Total operations counted so far; after a clean instrumented run this is
  // the exclusive upper bound for fail_at_op / crash_at_op sweeps.
  std::uint64_t op_count() const;

 private:
  io::Vfs& inner_;
  StorageFaultParams params_;
  mutable std::mutex mu_;  // guards rng_, stats_, op_index_
  util::Rng rng_;
  StorageFaultStats stats_;
  std::uint64_t op_index_ = 0;
  // Handles invented for OpenWrite calls swallowed by crash mode; writes to
  // them no-op silently.
  static constexpr int kDeadHandleBase = 1 << 28;
  int next_dead_handle_ = kDeadHandleBase;
};

}  // namespace wolt::fault
