#include "store/recovery.h"

#include <algorithm>
#include <filesystem>
#include <string_view>

#include "store/checkpoint.h"
#include "store/framing.h"
#include "store/io_env.h"
#include "store/serial.h"

namespace rrr::store {

namespace fs = std::filesystem;

namespace {

// Parses one WAL frame at `pos`, including the op payload decode, so a
// checksummed-but-undecodable frame truncates the log just like a torn
// one. Throws StoreError on any defect.
void parse_wal_frame(std::string_view data, std::size_t& pos) {
  FrameView frame = read_frame(data, pos);
  if (frame.kind != "wal.op") {
    throw StoreError(StoreError::Kind::kCorrupt,
                     "wal.log contains a non-op frame");
  }
  Decoder dec(frame.payload);
  dec.i64();  // clock
  dec.u8();   // point
  dec.str();  // type
  dec.str();  // payload
  dec.expect_done();
}

}  // namespace

std::string RecoveryManager::quarantine(const std::string& path) {
  ensure_dir(quarantine_dir());
  std::string base = fs::path(path).filename().string();
  std::string target = quarantine_dir() + "/" + base;
  std::error_code ec;
  for (int suffix = 1; fs::exists(target, ec); ++suffix) {
    target = quarantine_dir() + "/" + base + "." + std::to_string(suffix);
  }
  fs::rename(path, target, ec);
  if (ec) {
    throw StoreError(StoreError::Kind::kIo,
                     "recovery cannot quarantine '" + path + "': " +
                         ec.message());
  }
  return fs::path(target).filename().string();
}

RecoveryReport RecoveryManager::sweep_stray_tmp() {
  RecoveryReport report;
  std::error_code ec;
  if (!fs::is_directory(dir_, ec)) return report;
  // Collect first: quarantining mutates the directory under the iterator.
  std::vector<std::string> stray;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.ends_with(".tmp")) {
      stray.push_back(entry.path().string());
    }
  }
  std::sort(stray.begin(), stray.end());
  for (const std::string& path : stray) {
    report.quarantined.push_back(quarantine(path));
    ++report.stray_tmp;
  }
  return report;
}

RecoveryReport RecoveryManager::scrub(std::uint64_t expected_fingerprint) {
  RecoveryReport report;
  std::error_code ec;
  if (!fs::is_directory(dir_, ec)) return report;

  // 1. Stray temp files from interrupted atomic-write cycles.
  RecoveryReport swept = sweep_stray_tmp();
  report.quarantined = std::move(swept.quarantined);
  report.stray_tmp = swept.stray_tmp;

  // 2. Truncate the WAL at the first frame that fails to parse. This runs
  // before snapshot validation: a snapshot is only usable when the log's
  // surviving prefix satisfies the snapshot's recorded WalPosition, so the
  // log must reach its final shape first.
  const std::string wal_path = dir_ + "/wal.log";
  if (fs::exists(wal_path, ec)) {
    std::string_view data;
    MappedFile file(wal_path, io_);
    data = file.view();
    std::size_t good_end = 0;
    std::size_t ops = 0;
    while (good_end < data.size()) {
      std::size_t pos = good_end;
      try {
        parse_wal_frame(data, pos);
      } catch (const StoreError&) {
        break;
      }
      good_end = pos;
      ++ops;
    }
    report.wal_valid_bytes = good_end;
    report.wal_ops = ops;
    if (good_end < data.size()) {
      // Preserve the severed tail, then rewrite the log to the good
      // prefix. The tail file name records where the cut happened.
      std::string tail_name =
          "wal.tail-" + std::to_string(good_end) + ".corrupt";
      std::string tail_path = dir_ + "/" + tail_name;
      write_file_atomic(tail_path, data.substr(good_end), io_);
      std::string prefix(data.substr(0, good_end));
      // `data` views the mapping of the old log; copy before replacing.
      write_file_atomic(wal_path, prefix, io_);
      report.quarantined.push_back(quarantine(tail_path));
      report.wal_truncated = true;
    }
  }

  // 3. Validate every snapshot, newest first, by parsing it in full. A
  // snapshot whose WalPosition the surviving log cannot satisfy is as
  // corrupt as a bad checksum: the resume path regenerates the world side
  // by replaying exactly those ops, so pairing the snapshot with a
  // shorter or different log would produce a silently wrong world.
  std::vector<WalOp> surviving_ops = wal_read(dir_, io_);
  std::vector<std::int64_t> snaps = list_snapshots(dir_);
  for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
    const std::string path = dir_ + "/" + snapshot_name(*it);
    bool ok = false;
    try {
      SnapshotReader reader(dir_, *it, io_);
      ok = expected_fingerprint == 0 ||
           reader.fingerprint() == expected_fingerprint;
      // A snapshot without its WAL position cannot be paired with any
      // log: section() throws, and the snapshot is quarantined.
      if (ok) {
        WalPosition pos =
            decode_wal_position(reader.section(kWalPositionSection));
        ok = wal_position_consistent(pos, surviving_ops);
      }
    } catch (const StoreError&) {
      ok = false;
    }
    if (ok) {
      if (!report.snapshot) report.snapshot = *it;
    } else {
      report.quarantined.push_back(quarantine(path));
      ++report.snapshots_quarantined;
    }
  }
  return report;
}

}  // namespace rrr::store
