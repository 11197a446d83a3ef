#include "fault/storage.h"

#include <algorithm>

namespace wolt::fault {

// ---------------------------------------------------------------------------
// MemVfs

int MemVfs::OpenWrite(const std::string& path, OpenMode mode,
                      io::IoStatus* status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (mode == OpenMode::kTruncate) {
    visible_[path].clear();
  } else {
    visible_.try_emplace(path);
  }
  handles_.push_back(Handle{path, /*open=*/true});
  *status = io::IoStatus::Ok();
  return static_cast<int>(handles_.size()) - 1;
}

long MemVfs::Write(int handle, const char* data, std::size_t size,
                   io::IoStatus* status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (handle < 0 || handle >= static_cast<int>(handles_.size()) ||
      !handles_[static_cast<std::size_t>(handle)].open) {
    *status = io::IoStatus::Fail("write", EBADF);
    return -1;
  }
  visible_[handles_[static_cast<std::size_t>(handle)].path].append(data, size);
  *status = io::IoStatus::Ok();
  return static_cast<long>(size);
}

io::IoStatus MemVfs::Fsync(int handle) {
  std::lock_guard<std::mutex> lock(mu_);
  if (handle < 0 || handle >= static_cast<int>(handles_.size()) ||
      !handles_[static_cast<std::size_t>(handle)].open) {
    return io::IoStatus::Fail("fsync", EBADF);
  }
  const std::string& path = handles_[static_cast<std::size_t>(handle)].path;
  durable_[path] = visible_[path];
  return io::IoStatus::Ok();
}

io::IoStatus MemVfs::Close(int handle) {
  std::lock_guard<std::mutex> lock(mu_);
  if (handle < 0 || handle >= static_cast<int>(handles_.size()) ||
      !handles_[static_cast<std::size_t>(handle)].open) {
    return io::IoStatus::Fail("close", EBADF);
  }
  handles_[static_cast<std::size_t>(handle)].open = false;
  return io::IoStatus::Ok();
}

io::IoStatus MemVfs::Rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = visible_.find(from);
  if (it == visible_.end()) return io::IoStatus::Fail("rename", ENOENT);
  std::string snapshot = it->second;
  visible_.erase(it);
  visible_[to] = snapshot;
  pending_renames_.push_back(PendingRename{from, to, std::move(snapshot)});
  return io::IoStatus::Ok();
}

io::IoStatus MemVfs::Truncate(const std::string& path, std::uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = visible_.find(path);
  if (it == visible_.end()) return io::IoStatus::Fail("truncate", ENOENT);
  it->second.resize(std::min<std::size_t>(it->second.size(),
                                          static_cast<std::size_t>(size)));
  // Simplification: truncation is immediately durable. Resume paths truncate
  // before appending; modelling a volatile truncate would let a crash
  // resurrect a tail the resume already discarded, which no journalled
  // filesystem does after the truncate has been committed by later syncs.
  auto d = durable_.find(path);
  if (d != durable_.end()) {
    d->second.resize(std::min<std::size_t>(d->second.size(),
                                           static_cast<std::size_t>(size)));
  }
  return io::IoStatus::Ok();
}

io::IoStatus MemVfs::Remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool existed = visible_.erase(path) > 0;
  durable_.erase(path);  // simplification: unlink is immediately durable
  if (!existed) return io::IoStatus::Fail("remove", ENOENT);
  return io::IoStatus::Ok();
}

io::IoStatus MemVfs::SyncDir(const std::string& /*dir*/) {
  std::lock_guard<std::mutex> lock(mu_);
  for (PendingRename& pr : pending_renames_) {
    durable_.erase(pr.from);
    // ext4 data=ordered: the committed rename carries the file contents as
    // of rename time, even if the file itself was never fsynced.
    durable_[pr.to] = std::move(pr.data_at_rename);
  }
  pending_renames_.clear();
  return io::IoStatus::Ok();
}

io::IoStatus MemVfs::ReadFileBytes(const std::string& path, std::string* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = visible_.find(path);
  if (it == visible_.end()) return io::IoStatus::Fail("open", ENOENT);
  *out = it->second;
  return io::IoStatus::Ok();
}

void MemVfs::SimulateCrash() {
  std::lock_guard<std::mutex> lock(mu_);
  visible_ = durable_;
  pending_renames_.clear();
  for (Handle& h : handles_) h.open = false;
}

void MemVfs::SetFileBytes(const std::string& path, const std::string& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  visible_[path] = bytes;
  durable_[path] = bytes;
}

std::optional<std::string> MemVfs::GetFileBytes(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = visible_.find(path);
  if (it == visible_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::string> MemVfs::GetDurableBytes(
    const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = durable_.find(path);
  if (it == durable_.end()) return std::nullopt;
  return it->second;
}

bool MemVfs::Exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return visible_.count(path) > 0;
}

bool MemVfs::FlipBit(const std::string& path, std::uint64_t bit_index) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t byte = static_cast<std::size_t>(bit_index / 8);
  const char mask = static_cast<char>(1u << (bit_index % 8));
  auto it = visible_.find(path);
  if (it == visible_.end() || byte >= it->second.size()) return false;
  it->second[byte] ^= mask;
  auto d = durable_.find(path);
  if (d != durable_.end() && byte < d->second.size()) d->second[byte] ^= mask;
  return true;
}

// ---------------------------------------------------------------------------
// FaultVfs

const char* ToString(StorageOp op) {
  switch (op) {
    case StorageOp::kOpen: return "open";
    case StorageOp::kWrite: return "write";
    case StorageOp::kFsync: return "fsync";
    case StorageOp::kClose: return "close";
    case StorageOp::kRename: return "rename";
    case StorageOp::kTruncate: return "truncate";
    case StorageOp::kRemove: return "remove";
    case StorageOp::kSyncDir: return "syncdir";
  }
  return "?";
}

StorageFaultParams StorageFaultParams::Uniform(const StorageOpFaults& f) {
  StorageFaultParams p;
  for (int i = 0; i < kNumStorageOps; ++i) p.per_op[i] = f;
  return p;
}

FaultVfs::FaultVfs(io::Vfs& inner, StorageFaultParams params,
                   std::uint64_t seed)
    : inner_(inner), params_(params), rng_(util::Rng::Substream(seed, 0)) {}

std::uint64_t FaultVfs::op_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return op_index_;
}

namespace {

// Per-operation fault decision, drawn under one lock so concurrent callers
// consume the RNG stream atomically.
struct Decision {
  bool crashed = false;      // op swallowed by crash_at_op mode
  std::uint64_t index = 0;
  bool at_crash_op = false;  // the op where the power dies (torn write)
  bool fail = false;
  int fail_err = EIO;
  bool eintr = false;
  bool short_write = false;
  bool fsync_lie = false;
  bool torn_rename = false;
  bool bit_flip = false;
  std::uint64_t bit_rand = 0;
};

Decision Decide(StorageOp op, const StorageFaultParams& params,
                util::Rng& rng, StorageFaultStats& stats,
                std::uint64_t& op_index, std::mutex& mu) {
  std::lock_guard<std::mutex> lock(mu);
  Decision d;
  d.index = op_index++;
  stats.ops++;
  if (d.index >= params.crash_at_op) {
    d.crashed = true;
    d.at_crash_op = (d.index == params.crash_at_op);
    stats.crashed_ops++;
    return d;
  }
  if (d.index == params.fail_at_op) {
    d.fail = true;
    d.fail_err = params.fail_at_op_err;
    stats.injected_fail++;
    return d;
  }
  const StorageOpFaults& f = params.ForOp(op);
  if (f.fail > 0.0 && rng.Bernoulli(f.fail)) {
    d.fail = true;
    d.fail_err = f.fail_err;
    stats.injected_fail++;
  } else if ((op == StorageOp::kWrite || op == StorageOp::kFsync) &&
             f.eintr > 0.0 && rng.Bernoulli(f.eintr)) {
    d.eintr = true;
    stats.injected_eintr++;
  } else if (op == StorageOp::kWrite && f.short_write > 0.0 &&
             rng.Bernoulli(f.short_write)) {
    d.short_write = true;
    stats.injected_short++;
  } else if (op == StorageOp::kFsync && f.fsync_lie > 0.0 &&
             rng.Bernoulli(f.fsync_lie)) {
    d.fsync_lie = true;
    stats.injected_fsync_lie++;
  } else if (op == StorageOp::kRename && f.torn_rename > 0.0 &&
             rng.Bernoulli(f.torn_rename)) {
    d.torn_rename = true;
    stats.injected_torn_rename++;
  }
  // Bit flips compose with a clean or short write (not with a failed one).
  if (op == StorageOp::kWrite && !d.fail && !d.eintr && f.bit_flip > 0.0 &&
      rng.Bernoulli(f.bit_flip)) {
    d.bit_flip = true;
    d.bit_rand = rng.Next();
    stats.injected_bit_flip++;
  }
  return d;
}
}  // namespace

#define WOLT_DECIDE(op) \
  Decide((op), params_, rng_, stats_, op_index_, mu_)

int FaultVfs::OpenWrite(const std::string& path, OpenMode mode,
                        io::IoStatus* status) {
  const Decision d = WOLT_DECIDE(StorageOp::kOpen);
  if (d.crashed) {
    std::lock_guard<std::mutex> lock(mu_);
    *status = io::IoStatus::Ok();
    return next_dead_handle_++;
  }
  if (d.fail) {
    *status = io::IoStatus::Fail("open", d.fail_err);
    return -1;
  }
  return inner_.OpenWrite(path, mode, status);
}

long FaultVfs::Write(int handle, const char* data, std::size_t size,
                     io::IoStatus* status) {
  const Decision d = WOLT_DECIDE(StorageOp::kWrite);
  const bool dead = handle >= kDeadHandleBase;
  if (d.crashed) {
    if (d.at_crash_op && !dead && size > 1) {
      // The power dies mid-write: half the bytes reach the page cache.
      io::IoStatus torn;
      inner_.Write(handle, data, size / 2, &torn);
    }
    *status = io::IoStatus::Ok();
    return static_cast<long>(size);
  }
  if (d.fail) {
    *status = io::IoStatus::Fail("write", d.fail_err);
    return -1;
  }
  if (d.eintr) {
    *status = io::IoStatus::Fail("write", EINTR);
    return -1;
  }
  std::size_t n = size;
  if (d.short_write && size > 1) n = std::max<std::size_t>(1, size / 2);
  if (d.bit_flip && n > 0) {
    std::string corrupted(data, n);
    const std::uint64_t bit = d.bit_rand % (static_cast<std::uint64_t>(n) * 8);
    corrupted[static_cast<std::size_t>(bit / 8)] ^=
        static_cast<char>(1u << (bit % 8));
    const long wrote = inner_.Write(handle, corrupted.data(), n, status);
    // A short inner write of corrupted bytes still reports progress.
    return wrote;
  }
  return inner_.Write(handle, data, n, status);
}

io::IoStatus FaultVfs::Fsync(int handle) {
  const Decision d = WOLT_DECIDE(StorageOp::kFsync);
  if (d.crashed || handle >= kDeadHandleBase) {
    return io::IoStatus::Ok();
  }
  if (d.fail) return io::IoStatus::Fail("fsync", d.fail_err);
  if (d.eintr) return io::IoStatus::Fail("fsync", EINTR);
  if (d.fsync_lie) return io::IoStatus::Ok();  // barrier silently skipped
  return inner_.Fsync(handle);
}

io::IoStatus FaultVfs::Close(int handle) {
  const Decision d = WOLT_DECIDE(StorageOp::kClose);
  if (d.crashed || handle >= kDeadHandleBase) {
    return io::IoStatus::Ok();
  }
  if (d.fail) {
    // close(2) releases the descriptor even when it reports an error.
    inner_.Close(handle);
    return io::IoStatus::Fail("close", d.fail_err);
  }
  return inner_.Close(handle);
}

io::IoStatus FaultVfs::Rename(const std::string& from, const std::string& to) {
  const Decision d = WOLT_DECIDE(StorageOp::kRename);
  if (d.crashed) return io::IoStatus::Ok();
  if (d.fail) return io::IoStatus::Fail("rename", d.fail_err);
  if (d.torn_rename) {
    // NFS-style: the operation lands on disk but the reply is lost, so the
    // caller sees a failure. The destination must still be old-or-new.
    inner_.Rename(from, to);
    return io::IoStatus::Fail("rename", EIO);
  }
  return inner_.Rename(from, to);
}

io::IoStatus FaultVfs::Truncate(const std::string& path, std::uint64_t size) {
  const Decision d = WOLT_DECIDE(StorageOp::kTruncate);
  if (d.crashed) return io::IoStatus::Ok();
  if (d.fail) return io::IoStatus::Fail("truncate", d.fail_err);
  return inner_.Truncate(path, size);
}

io::IoStatus FaultVfs::Remove(const std::string& path) {
  const Decision d = WOLT_DECIDE(StorageOp::kRemove);
  if (d.crashed) return io::IoStatus::Ok();
  if (d.fail) return io::IoStatus::Fail("remove", d.fail_err);
  return inner_.Remove(path);
}

io::IoStatus FaultVfs::SyncDir(const std::string& dir) {
  const Decision d = WOLT_DECIDE(StorageOp::kSyncDir);
  if (d.crashed) return io::IoStatus::Ok();
  if (d.fail) return io::IoStatus::Fail("fsyncdir", d.fail_err);
  return inner_.SyncDir(dir);
}

io::IoStatus FaultVfs::ReadFileBytes(const std::string& path,
                                     std::string* out) {
  return inner_.ReadFileBytes(path, out);
}

#undef WOLT_DECIDE

}  // namespace wolt::fault
