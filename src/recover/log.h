// One framed, checksummed record log: the storage layer under both
// write-ahead journals (recover/journal.h, recover/fleet_journal.h). A
// journal is a payload schema on it that owns the payload encoding, dedup
// and what its test hook counts. The log owns the frames, under a magic per
// schema so one schema's file never reads as the other's:
//
//   [u32 magic][u32 payload_len][u64 fnv1a(payload)][payload bytes]
//
// Crash semantics:
//  * Each frame reaches the kernel as it is appended: a process kill (the
//    page cache survives) loses at most the frame being written. Power loss
//    can lose everything after the last fsync: sync_every_append, Sync()
//    and Close() fsync.
//  * The reader validates frames front to back; the first bad frame (bad
//    magic, truncated length, checksum mismatch, unparsable payload) ends
//    the valid prefix. Resume truncates the file back to a frame boundary
//    before appending.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "io/vfs.h"
#include "obs/obs.h"

namespace wolt::recover {

// FNV-1a 64-bit over a byte string (the per-frame checksum).
std::uint64_t Fnv1a64(const char* data, std::size_t size);

// Frames a payload as it appears on disk (magic + length + checksum).
std::string FrameRecord(std::uint32_t magic, std::string_view payload);

// What tells one schema's log apart from another's.
struct LogFormat {
  std::uint32_t magic = 0;  // first word of every frame
  const char* name = "";    // "journal" / "fleet journal", in messages
  // The log's recover.<journal|fleet>.* counters within a metrics scope.
  obs::LogCounters obs::RecoverCounters::*counters = nullptr;
};

// Outcome of a front-to-back scan; each journal's read result extends it.
struct LogScan {
  bool ok = false;      // file opened and the header frame decoded
  std::string error;    // why ok is false
  std::uint64_t valid_bytes = 0;  // length of the validated prefix
  std::uint64_t torn_bytes = 0;   // bytes past the prefix (discarded)
  // Why the valid prefix ended (both false when the file parsed cleanly):
  // a torn tail is an incomplete final frame (crash mid-append, expected);
  // a rotted tail is a complete-looking frame whose magic/checksum/payload
  // is wrong (medium corruption). Counted on the log's torn_tail /
  // rot_truncated counters when a metrics scope is installed.
  bool tail_torn = false;
  bool tail_rot = false;
};

// Decodes one checksum-valid payload whose frame ends at `frame_end`;
// returns false when the payload does not decode. `payload` views the
// scanned bytes and is valid only during the call.
using FrameVisitor =
    std::function<bool(std::string_view payload, std::uint64_t frame_end)>;

// Validates `path` front to back into `out`; never throws. The first frame
// goes to `header`; if it is rejected, or no frame is valid, the scan fails.
// Later frames go to `record` until one is rejected or the file ends.
void ScanLog(const std::string& path, const LogFormat& format, io::Vfs* vfs,
             const FrameVisitor& header, const FrameVisitor& record,
             LogScan* out);

// Appends frames to one log file. Not thread-safe: a schema that appends
// from several threads serializes its calls.
class LogWriter {
 public:
  // Opens nothing yet; call Create() or Reopen(). nullptr vfs = the real
  // filesystem.
  LogWriter(std::string path, const LogFormat& format, io::Vfs* vfs,
            bool sync_every_append);
  ~LogWriter() { Close(); }

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  // Fresh log: truncates or creates the file; the first frame appended must
  // be the schema's header. Returns whether the file opened.
  bool Create();
  // Resume: truncates the file to `keep` bytes (a frame boundary the scan
  // found), discarding the tail, and reopens it for appending.
  void Reopen(std::uint64_t keep);

  // The file is open for appending. Any I/O failure degrades the log for
  // good: the file is closed with its valid prefix intact, and one loud
  // stderr warning plus the io_error and degraded counters record it.
  bool ok() const { return fd_ >= 0; }
  bool degraded() const { return degraded_; }

  // Frames and writes one payload, fsync'ing it when sync_every_append is
  // set. Returns false when the log is closed or the write or its fsync
  // degraded it.
  bool Append(const std::string& payload);

  // fsyncs the file: everything appended so far survives a power cut.
  // Returns false when the log is closed or the fsync degraded it.
  bool Sync();

  // fsync + close. Idempotent; called by the destructor.
  void Close();

 private:
  // Opens the file; on failure degrades with `what` and returns false.
  bool Open(io::Vfs::OpenMode mode, const char* what);
  void Degrade(const io::IoStatus& status, const char* what);

  std::string path_;
  LogFormat format_;
  io::Vfs* vfs_;
  bool sync_every_append_;
  int fd_ = -1;
  bool degraded_ = false;
};

}  // namespace wolt::recover
