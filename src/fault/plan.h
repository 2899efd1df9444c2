// Declarative fault plans for the feed-degradation harness.
//
// A `FaultPlan` describes, ahead of time, how the BGP and public-traceroute
// feeds misbehave during a run: which fraction of collectors / vantage
// points go dark and when, how many records are lost outright, how often a
// record is replayed as a duplicate burst (session-reset style), how far
// timestamps jitter out of order, and how often a record's encoded bytes
// are corrupted before decoding. The plan is pure data — the
// `FaultInjector` (injector.h) interprets it deterministically from
// `plan.seed`, so a (plan, seed) pair replays bit-identically regardless of
// engine sharding or threading.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace rrr::fault {

struct FaultPlan {
  // Blackout: the chosen fraction of collectors (whole collectors, all
  // their VPs) and/or individual vantage points emit nothing during windows
  // [blackout_start_window, blackout_start_window + blackout_windows).
  // vp_blackout_fraction also silences that fraction of public-traceroute
  // probes over the same windows. A blackout with blackout_windows <= 0 is
  // inert.
  double collector_blackout_fraction = 0.0;
  double vp_blackout_fraction = 0.0;
  std::int64_t blackout_start_window = 0;
  std::int64_t blackout_windows = 0;
  // When a blacked-out BGP stream comes back, replay its last-known routes
  // as a burst of duplicate announcements — the signature of a BGP session
  // re-establishing and dumping its table.
  bool session_reset_replay = false;

  // Uniform record loss, applied per BGP record / public trace.
  double drop_rate = 0.0;
  double trace_drop_rate = 0.0;

  // Duplicate bursts: with probability duplicate_rate a record is re-emitted
  // 1..duplicate_burst_max extra times back-to-back.
  double duplicate_rate = 0.0;
  std::int64_t duplicate_burst_max = 3;

  // Bounded reordering: with probability reorder_rate a record's timestamp
  // jitters uniformly within ±reorder_max_seconds (clamped at 0).
  double reorder_rate = 0.0;
  std::int64_t reorder_max_seconds = 0;

  // Field corruption: with probability corrupt_rate a record is encoded with
  // bgp::put_record, a few bytes are mangled, and the bytes are decoded with
  // bgp::get_record. Bytes the decoder rejects are counted as drops; bytes
  // that still decode carry the corrupted fields.
  double corrupt_rate = 0.0;

  std::uint64_t seed = 1;

  // True when any clause can alter the stream; a default plan is a no-op
  // and costs nothing (the injector is not even constructed).
  bool enabled() const;

  // Canonical `key=value,...` spec, parseable by parse(). Only non-default
  // clauses are rendered; an inert plan renders "".
  std::string spec() const;

  // Parses a spec string ("collector_blackout=0.3,blackout_start=96,...").
  // Unknown keys or unparseable values yield nullopt. Empty spec = default
  // plan. Keys: collector_blackout, vp_blackout, blackout_start,
  // blackout_windows, reset_replay, drop, trace_drop, dup, dup_burst,
  // reorder, reorder_max, corrupt, seed.
  static std::optional<FaultPlan> parse(std::string_view spec);
};

}  // namespace rrr::fault
