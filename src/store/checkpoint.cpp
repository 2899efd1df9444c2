#include "store/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "netbase/parse.h"

namespace rrr::store {

namespace fs = std::filesystem;

namespace {
constexpr std::string_view kSnapshotKind = "rrr.snapshot";
constexpr std::string_view kSectionKind = "rrr.section";
constexpr std::string_view kWalKind = "wal.op";
}  // namespace

std::string snapshot_name(std::int64_t completed_windows) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "snap-%08lld",
                static_cast<long long>(completed_windows));
  return buf;
}

std::vector<std::int64_t> list_snapshots(const std::string& dir) {
  std::vector<std::int64_t> out;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) != 0) continue;
    if (std::optional<std::int64_t> completed =
            parse_number<std::int64_t>(std::string_view(name).substr(5), 0)) {
      out.push_back(*completed);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::int64_t> latest_snapshot(const std::string& dir,
                                            std::int64_t limit) {
  std::optional<std::int64_t> best;
  for (std::int64_t c : list_snapshots(dir)) {
    if (limit >= 0 && c > limit) break;
    best = c;
  }
  return best;
}

void SnapshotWriter::add_section(std::string name, std::string payload) {
  sections_.emplace_back(std::move(name), std::move(payload));
}

std::string SnapshotWriter::write(const std::string& dir,
                                  IoContext* io) const {
  Encoder header;
  header.i64(completed_);
  header.u64(fingerprint_);
  header.u64(sections_.size());
  std::string data;
  append_frame(data, kSnapshotKind, header.buffer());
  for (const auto& [name, payload] : sections_) {
    Encoder section;
    section.str(name);
    section.str(payload);
    append_frame(data, kSectionKind, section.buffer());
  }
  std::string path = dir + "/" + snapshot_name(completed_);
  write_file_atomic(path, data, io);
  return path;
}

SnapshotReader::SnapshotReader(const std::string& dir,
                               std::int64_t completed_windows, IoContext* io)
    : file_(dir + "/" + snapshot_name(completed_windows), io) {
  std::vector<FrameView> frames = read_all_frames(file_.view());
  if (frames.empty() || frames.front().kind != kSnapshotKind) {
    throw StoreError(StoreError::Kind::kCorrupt,
                     "snapshot missing header frame");
  }
  Decoder header(frames.front().payload);
  completed_ = header.i64();
  fingerprint_ = header.u64();
  std::uint64_t count = header.u64();
  header.expect_done();
  if (completed_ != completed_windows) {
    throw StoreError(StoreError::Kind::kCorrupt,
                     "snapshot header window count disagrees with filename");
  }
  if (count != frames.size() - 1) {
    throw StoreError(StoreError::Kind::kTruncated,
                     "snapshot section count disagrees with frame count");
  }
  for (std::size_t i = 1; i < frames.size(); ++i) {
    if (frames[i].kind != kSectionKind) {
      throw StoreError(StoreError::Kind::kCorrupt,
                       "snapshot contains a non-section frame");
    }
    Decoder section(frames[i].payload);
    std::string_view name = section.str();
    std::string_view payload = section.str();
    section.expect_done();
    sections_.emplace(std::string(name), payload);
  }
}

std::string_view SnapshotReader::section(const std::string& name) const {
  auto it = sections_.find(name);
  if (it == sections_.end()) {
    throw StoreError(StoreError::Kind::kCorrupt,
                     "snapshot missing section '" + name + "'");
  }
  return it->second;
}

std::string encode_wal_op(const WalOp& op) {
  Encoder enc;
  enc.i64(op.clock);
  enc.u8(op.point);
  enc.str(op.type);
  enc.str(op.payload);
  return enc.take();
}

std::uint64_t chain_wal_digest(std::uint64_t digest, const WalOp& op) {
  return fnv1a64(encode_wal_op(op), digest);
}

WalPosition wal_position_of(const std::vector<WalOp>& ops,
                            std::size_t count) {
  WalPosition pos;
  for (std::size_t i = 0; i < count && i < ops.size(); ++i) {
    pos.digest = chain_wal_digest(pos.digest, ops[i]);
    ++pos.count;
  }
  return pos;
}

bool wal_position_consistent(const WalPosition& pos,
                             const std::vector<WalOp>& ops) {
  if (pos.count > ops.size()) return false;
  return wal_position_of(ops, pos.count).digest == pos.digest;
}

std::string encode_wal_position(const WalPosition& pos) {
  Encoder enc;
  enc.u64(pos.count);
  enc.u64(pos.digest);
  return enc.take();
}

WalPosition decode_wal_position(std::string_view payload) {
  Decoder dec(payload);
  WalPosition pos;
  pos.count = dec.u64();
  pos.digest = dec.u64();
  dec.expect_done();
  return pos;
}

void wal_append(const std::string& dir, const WalOp& op, IoContext* io) {
  std::string frame;
  append_frame(frame, kWalKind, encode_wal_op(op));
  append_file(dir + "/wal.log", frame, io);
}

std::vector<WalOp> wal_read(const std::string& dir, IoContext* io) {
  std::string path = dir + "/wal.log";
  std::error_code ec;
  if (!fs::exists(path, ec)) return {};
  MappedFile file(path, io);
  std::vector<WalOp> ops;
  for (const FrameView& frame : read_all_frames(file.view())) {
    if (frame.kind != kWalKind) {
      throw StoreError(StoreError::Kind::kCorrupt,
                       "wal.log contains a non-op frame");
    }
    Decoder dec(frame.payload);
    WalOp op;
    op.clock = dec.i64();
    op.point = dec.u8();
    op.type = std::string(dec.str());
    op.payload = std::string(dec.str());
    dec.expect_done();
    ops.push_back(std::move(op));
  }
  return ops;
}

void wal_rewrite(const std::string& dir, const std::vector<WalOp>& ops,
                 IoContext* io) {
  std::string data;
  for (const WalOp& op : ops) {
    append_frame(data, kWalKind, encode_wal_op(op));
  }
  write_file_atomic(dir + "/wal.log", data, io);
}

void ensure_dir(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec && !fs::is_directory(dir)) {
    throw StoreError(StoreError::Kind::kIo,
                     "store cannot create directory '" + dir + "'");
  }
}

}  // namespace rrr::store
