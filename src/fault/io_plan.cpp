#include "fault/io_plan.h"

#include "netbase/parse.h"

namespace rrr::fault {

bool IoFaultPlan::enabled() const {
  return torn_write_rate > 0.0 || bit_flip_rate > 0.0 || enospc_rate > 0.0 ||
         eio_write_rate > 0.0 || eio_fsync_rate > 0.0 ||
         eio_rename_rate > 0.0 || eio_read_rate > 0.0 ||
         crash_rename_rate > 0.0;
}

std::string IoFaultPlan::spec() const {
  SpecWriter out;
  if (torn_write_rate > 0.0) out.add("torn", torn_write_rate);
  if (bit_flip_rate > 0.0) out.add("bitflip", bit_flip_rate);
  if (enospc_rate > 0.0) out.add("enospc", enospc_rate);
  if (eio_write_rate > 0.0) out.add("eio", eio_write_rate);
  if (eio_fsync_rate > 0.0) out.add("eio_fsync", eio_fsync_rate);
  if (eio_rename_rate > 0.0) out.add("eio_rename", eio_rename_rate);
  if (eio_read_rate > 0.0) out.add("eio_read", eio_read_rate);
  if (crash_rename_rate > 0.0) out.add("crash_rename", crash_rename_rate);
  if (transient_fraction != 0.75) out.add("transient", transient_fraction);
  if (transient_clears_after != 2) {
    out.add("clears_after", transient_clears_after);
  }
  if (seed != 1) out.add("seed", seed);
  return out.str();
}

std::optional<IoFaultPlan> IoFaultPlan::parse(std::string_view spec) {
  const std::optional<std::vector<SpecClause>> clauses = split_spec(spec);
  if (!clauses) return std::nullopt;
  IoFaultPlan plan;
  for (const auto& [key, value] : *clauses) {
    bool ok = false;
    if (key == "torn") {
      ok = parse_into(value, plan.torn_write_rate, 0.0, 1.0);
    } else if (key == "bitflip") {
      ok = parse_into(value, plan.bit_flip_rate, 0.0, 1.0);
    } else if (key == "enospc") {
      ok = parse_into(value, plan.enospc_rate, 0.0, 1.0);
    } else if (key == "eio") {
      ok = parse_into(value, plan.eio_write_rate, 0.0, 1.0);
    } else if (key == "eio_fsync") {
      ok = parse_into(value, plan.eio_fsync_rate, 0.0, 1.0);
    } else if (key == "eio_rename") {
      ok = parse_into(value, plan.eio_rename_rate, 0.0, 1.0);
    } else if (key == "eio_read") {
      ok = parse_into(value, plan.eio_read_rate, 0.0, 1.0);
    } else if (key == "crash_rename") {
      ok = parse_into(value, plan.crash_rename_rate, 0.0, 1.0);
    } else if (key == "transient") {
      ok = parse_into(value, plan.transient_fraction, 0.0, 1.0);
    } else if (key == "clears_after") {
      ok = parse_into(value, plan.transient_clears_after, 0);
    } else if (key == "seed") {
      ok = parse_into(value, plan.seed);
    }
    if (!ok) return std::nullopt;
  }
  return plan;
}

IoFaultInjector::IoFaultInjector(const IoFaultPlan& plan) : plan_(plan) {}

Rng& IoFaultInjector::stream(store::IoOp op) {
  int key = static_cast<int>(op);
  auto it = streams_.find(key);
  if (it == streams_.end()) {
    it = streams_
             .emplace(key, Rng(plan_.seed).split(0x1000 +
                                                 static_cast<std::uint64_t>(
                                                     key)))
             .first;
  }
  return it->second;
}

store::IoOutcome IoFaultInjector::draw(store::IoOp op, std::uint64_t size) {
  using Kind = store::IoOutcome::Kind;
  Rng& rng = stream(op);
  store::IoOutcome out;
  auto transient = [&] { return rng.bernoulli(plan_.transient_fraction); };
  switch (op) {
    case store::IoOp::kWrite:
    case store::IoOp::kAppend:
      // Reported errors first (they abort the attempt before bytes land),
      // then silent corruption of the bytes that do land.
      if (rng.bernoulli(plan_.enospc_rate)) {
        out.kind = Kind::kEnospc;
        out.transient = transient();
      } else if (rng.bernoulli(plan_.eio_write_rate)) {
        out.kind = Kind::kEio;
        out.transient = transient();
      } else if (rng.bernoulli(plan_.torn_write_rate)) {
        out.kind = Kind::kTornWrite;
        out.offset = size > 0 ? static_cast<std::uint64_t>(rng.uniform_int(
                                    0, static_cast<std::int64_t>(size) - 1))
                              : 0;
      } else if (rng.bernoulli(plan_.bit_flip_rate)) {
        out.kind = Kind::kBitFlip;
        out.offset = size > 0 ? static_cast<std::uint64_t>(rng.uniform_int(
                                    0, static_cast<std::int64_t>(size) - 1))
                              : 0;
        out.bit = static_cast<std::uint8_t>(rng.uniform_int(0, 7));
      }
      break;
    case store::IoOp::kFsync:
      if (rng.bernoulli(plan_.eio_fsync_rate)) {
        out.kind = Kind::kEio;
        out.transient = transient();
      }
      break;
    case store::IoOp::kRename:
      if (rng.bernoulli(plan_.crash_rename_rate)) {
        out.kind = Kind::kCrashRename;
      } else if (rng.bernoulli(plan_.eio_rename_rate)) {
        out.kind = Kind::kEio;
        out.transient = transient();
      }
      break;
    case store::IoOp::kRead:
      // Read faults are always transient: flaky reads must never
      // permanently hide data that is on the disk.
      if (rng.bernoulli(plan_.eio_read_rate)) {
        out.kind = Kind::kEio;
        out.transient = true;
      }
      break;
  }
  return out;
}

store::IoOutcome IoFaultInjector::on_op(store::IoOp op, std::string_view path,
                                        std::uint64_t size, int attempt) {
  using Kind = store::IoOutcome::Kind;
  ++stats_.ops;
  auto key = std::make_pair(static_cast<int>(op), std::string(path));
  store::IoOutcome out;
  if (attempt == 0) {
    out = draw(op, size);
    decisions_[key] = out;
  } else {
    auto it = decisions_.find(key);
    out = it != decisions_.end() ? it->second : store::IoOutcome{};
    if (out.transient && attempt >= plan_.transient_clears_after) {
      // The disk "recovered": the retry loop's persistence paid off.
      out = store::IoOutcome{};
      decisions_[key] = out;
      ++stats_.cleared;
      return out;
    }
  }
  switch (out.kind) {
    case Kind::kOk: break;
    case Kind::kTornWrite: ++stats_.torn; break;
    case Kind::kBitFlip: ++stats_.bitflip; break;
    case Kind::kEnospc: ++stats_.enospc; break;
    case Kind::kEio: ++stats_.eio; break;
    case Kind::kCrashRename: ++stats_.crash_rename; break;
  }
  return out;
}

}  // namespace rrr::fault
