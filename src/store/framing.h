// Versioned, checksummed frames — the on-disk unit of the state store.
//
// Every store file (snapshot or WAL) is a sequence of frames:
//
//   offset  size  field
//   0       4     magic "RRRS"
//   4       4     container format version (u32 LE, kFormatVersion)
//   8       8     kind length K (u64 LE)
//   16      K     kind (short ASCII tag, e.g. "engine", "wal.op")
//   16+K    8     payload length P (u64 LE)
//   24+K    P     payload (opaque bytes, usually an Encoder buffer)
//   24+K+P  8     FNV-1a-64 checksum over kind + payload (u64 LE)
//
// The layout is memory-mappable: MappedFile maps the file read-only and
// frame payloads are returned as string_views into the mapping, so reading
// a multi-megabyte snapshot copies nothing until a Decoder consumes it.
// Readers classify every failure: short data -> kTruncated, wrong magic ->
// kCorrupt, version != kFormatVersion -> kVersionSkew, checksum mismatch ->
// kBadChecksum. The version check is an exact match in *both* directions:
// payload layouts change between versions (see the history below), so a
// frame from any other version — older or newer — is rejected rather than
// misparsed.
//
// Physical IO here optionally flows through an IoContext (io_env.h): the
// write/fsync/rename/append/read sites consult its fault environment, so a
// seeded IoFaultPlan can tear writes, flip bits, fail fsyncs, or strand
// temp files at exactly the byte the plan dictates. A null context is the
// default and costs one branch per site.
//
// Version history:
//   1  initial layout
//   2  table snapshots carry local attribute dictionaries (paths /
//      community sets as content, routes as u32 dictionary indices)
//   3  the engine section drops the BGP table's epoch counter and the
//      shards' RNG state, record backlog, cooldown map and window cursor
//   4  the ixp section drops the equal-preference set, which nothing could
//      fill
//   5  the engine section writes each fact once: the corpus in pair order
//      (not filed by shard), and no index, flag or table a load rebuilds
//      from the fields beside it
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "store/serial.h"

namespace rrr::store {

class IoContext;

inline constexpr std::uint32_t kFormatVersion = 5;
inline constexpr char kMagic[4] = {'R', 'R', 'R', 'S'};

// FNV-1a 64-bit over `data`, seedable for the two-part kind+payload sweep.
std::uint64_t fnv1a64(std::string_view data,
                      std::uint64_t seed = 0xcbf29ce484222325ULL);

// Appends one frame to `out`.
void append_frame(std::string& out, std::string_view kind,
                  std::string_view payload);

// Appends a frame whose version field is `version` instead of
// kFormatVersion — the hook the malformed-frame tests use to fabricate
// future-version frames without hand-rolling the layout.
void append_frame_versioned(std::string& out, std::string_view kind,
                            std::string_view payload, std::uint32_t version);

struct FrameView {
  std::string_view kind;
  std::string_view payload;  // points into the caller's buffer / mapping
};

// Reads the frame starting at `pos` (advancing it past the frame) or
// throws a classified StoreError. `data` must outlive the returned views.
FrameView read_frame(std::string_view data, std::size_t& pos);

// Reads every frame in `data`; throws on the first malformed one.
std::vector<FrameView> read_all_frames(std::string_view data);

// Read-only file access for frame scans: mmap(2) when available, with a
// heap-buffer fallback (the view is identical either way). Not copyable.
// With an `io` context the open is the retry unit: an injected transient
// EIO on the read site re-attempts under the context's RetryPolicy.
class MappedFile {
 public:
  explicit MappedFile(const std::string& path,
                      IoContext* io = nullptr);  // throws StoreError(kIo)
  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::string_view view() const { return view_; }

 private:
  void open_once(const std::string& path, IoContext* io, int attempt);

  std::string_view view_;
  void* mapping_ = nullptr;  // non-null when mmap'd
  std::size_t mapped_size_ = 0;
  std::string fallback_;  // used when mmap is unavailable
};

// Writes `data` to `path` atomically (temp file + fsync + rename), so a
// crashed checkpoint never leaves a half-written snapshot where a reader
// expects a whole one. On any reported failure the temp file is removed
// before the error propagates — only an injected crash-during-rename
// (which models the process dying, not an error the caller sees) strands
// it, and the RecoveryManager sweeps those. Retries per `io`'s policy.
void write_file_atomic(const std::string& path, std::string_view data,
                       IoContext* io = nullptr);

// Appends `data` to `path` (creating it if absent) with O_APPEND, the WAL
// write primitive. An injected torn append lands only a prefix — exactly
// the artifact a power cut leaves at the log tail. Retries per `io`.
void append_file(const std::string& path, std::string_view data,
                 IoContext* io = nullptr);

}  // namespace rrr::store
