#include "recover/log.h"

#include <cstdio>
#include <utility>

#include "obs/obs.h"
#include "util/codec.h"

namespace wolt::recover {
namespace {

constexpr std::size_t kFrameHeader =
    sizeof(std::uint32_t) * 2 + sizeof(std::uint64_t);

}  // namespace

std::uint64_t Fnv1a64(const char* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string FrameRecord(std::uint32_t magic, std::string_view payload) {
  std::string out;
  util::PutU32(&out, magic);
  util::PutU32(&out, static_cast<std::uint32_t>(payload.size()));
  util::PutU64(&out, Fnv1a64(payload.data(), payload.size()));
  out.append(payload);
  return out;
}

void ScanLog(const std::string& path, const LogFormat& format, io::Vfs* vfs,
             const FrameVisitor& header, const FrameVisitor& record,
             LogScan* out) {
  std::string bytes;
  if (!io::OrDefault(vfs).ReadFileBytes(path, &bytes).ok()) {
    out->error = std::string("cannot open ") + format.name + ": " + path;
    return;
  }

  // Where the valid prefix ends and whether the tail past it is torn or rot
  // (see LogScan): a tail shorter than a frame header, or whose declared
  // payload runs past end-of-file, is torn; any other bad frame is rot.
  std::size_t pos = 0;
  bool torn = false;
  bool bad_header = false;
  while (pos < bytes.size()) {
    const std::size_t tail = bytes.size() - pos;
    torn = tail < kFrameHeader;
    if (torn) break;
    util::ByteCursor frame(bytes.data() + pos, kFrameHeader);
    const std::uint32_t magic = frame.U32();
    const std::uint32_t len = frame.U32();
    const std::uint64_t checksum = frame.U64();
    if (magic != format.magic) break;
    torn = len > tail - kFrameHeader;  // payload cut off by the crash
    if (torn) break;
    const char* payload_data = bytes.data() + pos + kFrameHeader;
    if (Fnv1a64(payload_data, len) != checksum) break;
    const std::string_view payload(payload_data, len);
    const std::size_t frame_end = pos + kFrameHeader + len;
    // A payload that does not decode passed its checksum: garbage. If it
    // is the first frame, which must be the header, this is not a log of
    // this schema (or its head is corrupt) and nothing can be salvaged.
    if (pos == 0 ? !header(payload, frame_end) : !record(payload, frame_end)) {
      bad_header = pos == 0;
      break;
    }
    pos = frame_end;
  }

  if (pos == 0) {
    out->error = std::string(format.name) +
                 (bad_header ? " header record is missing or corrupt: "
                             : " has no valid header record: ") +
                 path;
    out->torn_bytes = bytes.size();
    return;
  }
  out->ok = true;
  out->valid_bytes = pos;
  out->torn_bytes = bytes.size() - pos;
  out->tail_torn = torn;
  out->tail_rot = !torn && out->torn_bytes > 0;
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    obs::LogCounters& c = s->recover.*format.counters;
    if (out->tail_torn) c.torn_tail.Add(1);
    if (out->tail_rot) c.rot_truncated.Add(1);
  }
}

// ---------------------------------------------------------------------------
// LogWriter

LogWriter::LogWriter(std::string path, const LogFormat& format, io::Vfs* vfs,
                     bool sync_every_append)
    : path_(std::move(path)),
      format_(format),
      vfs_(&io::OrDefault(vfs)),
      sync_every_append_(sync_every_append) {}

bool LogWriter::Open(io::Vfs::OpenMode mode, const char* what) {
  io::IoStatus st;
  fd_ = vfs_->OpenWrite(path_, mode, &st);
  if (fd_ < 0) Degrade(st, what);
  return fd_ >= 0;
}

bool LogWriter::Create() {
  return Open(io::Vfs::OpenMode::kTruncate, "cannot open");
}

void LogWriter::Reopen(std::uint64_t keep) {
  const io::IoStatus st = vfs_->Truncate(path_, keep);
  if (!st.ok()) {
    Degrade(st, "cannot truncate to the resume point");
    return;
  }
  Open(io::Vfs::OpenMode::kAppend, "cannot reopen");
}

bool LogWriter::Append(const std::string& payload) {
  if (fd_ < 0) return false;
  const io::IoStatus st =
      io::WriteAll(*vfs_, fd_, FrameRecord(format_.magic, payload));
  if (!st.ok()) {
    Degrade(st, "append failed");
    return false;
  }
  return !sync_every_append_ || Sync();
}

bool LogWriter::Sync() {
  if (fd_ < 0) return false;
  const io::IoStatus st = io::FsyncRetry(*vfs_, fd_);
  if (!st.ok()) {
    Degrade(st, "fsync failed");
    return false;
  }
  return true;
}

void LogWriter::Close() {
  if (fd_ < 0) return;
  io::IoStatus st = io::FsyncRetry(*vfs_, fd_);
  const io::IoStatus close_st = vfs_->Close(fd_);
  if (st.ok()) st = close_st;
  fd_ = -1;
  if (!st.ok()) Degrade(st, "close failed");
}

void LogWriter::Degrade(const io::IoStatus& status, const char* what) {
  if (fd_ >= 0) {
    vfs_->Close(fd_);
    fd_ = -1;
  }
  if (degraded_) return;
  degraded_ = true;
  std::fprintf(stderr,
               "wolt: %s %s: %s (%s) — journaling disabled, the run "
               "continues best-effort (no crash resume past this point)\n",
               format_.name, path_.c_str(), what, status.Message().c_str());
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    obs::LogCounters& c = s->recover.*format_.counters;
    c.io_error.Add(1);
    c.degraded.Add(1);
  }
}

}  // namespace wolt::recover
