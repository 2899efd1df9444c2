// Deterministic, seeded fault injection for the BGP and public-traceroute
// feeds.
//
// The injector sits between the feed producer and the staleness engine —
// both feed points are serial in World (process_event / issue_public_trace)
// — and applies a FaultPlan record by record. Every stochastic decision is
// drawn from a per-stream `Rng::split` generator keyed by the record's
// vantage point (or the trace's probe): the draw sequence a stream sees
// depends only on (plan.seed, stream id, that stream's record order), never
// on how other streams interleave, so any (shards, threads, plan)
// combination replays bit-identically. Blackout membership is stateless —
// a hash of (plan.seed, collector/vp/probe id) against the configured
// fraction — so it can also be queried without consuming randomness.
//
// Field corruption goes through the store codec: the record is encoded with
// bgp::put_record, a few bytes are mangled, and the bytes are decoded again
// with bgp::get_record, which must consume them exactly. Bytes the decoder
// rejects (a thrown store::StoreError) become counted drops; bytes that
// still decode carry genuinely corrupted fields into the engine, exactly
// like a damaged snapshot or feed replay would.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bgp/record.h"
#include "fault/plan.h"
#include "netbase/rng.h"
#include "netbase/time.h"
#include "traceroute/traceroute.h"

namespace rrr::obs {
class Counter;
class MetricsRegistry;
class TraceRecorder;
}  // namespace rrr::obs

namespace rrr::fault {

class FaultInjector {
 public:
  // `t0` anchors window index 0 and `window_seconds` is the engine's base
  // window length; both must match the engine clock for blackout windows to
  // line up with engine windows.
  FaultInjector(const FaultPlan& plan, TimePoint t0,
                std::int64_t window_seconds);

  // Registers semantic fault counters (rrr_fault_*). Injection happens on
  // the serial feed path, so the counters are grid-invariant.
  void set_metrics(obs::MetricsRegistry& registry);

  // Attaches the flight recorder: activations become instant events on the
  // feed thread's track — one "fault_blackout_active" per window while a
  // blackout is dropping records, one "fault_replay_storm" when the
  // session-reset table dump fires. Tracing never consumes randomness, so
  // the injected stream is identical with it on or off.
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }

  // Applies the plan to one BGP record: zero records for a dropped one, the
  // (possibly corrupted / re-timestamped) record plus any duplicates
  // otherwise. The session-reset replay — every blacked-out stream's
  // last-known table, dumped as duplicate announcements — is prepended to
  // the first record of any stream past the blackout, so the whole storm
  // lands in one window like a synchronized session re-establishment.
  std::vector<bgp::BgpRecord> on_bgp_record(const bgp::BgpRecord& record);

  // Applies the plan to one public traceroute (probe blackout + drop).
  std::optional<tr::Traceroute> on_public_trace(const tr::Traceroute& trace);

  const FaultPlan& plan() const { return plan_; }

  // Stateless blackout membership / schedule queries.
  bool collector_blacked(const std::string& collector) const;
  bool vp_blacked(bgp::VpId vp) const;
  bool probe_blacked(tr::ProbeId probe) const;
  bool blackout_active(std::int64_t window) const;
  std::int64_t window_of(TimePoint t) const;

  // Plain tallies mirroring the obs counters, for tests and harness logs.
  struct Stats {
    std::int64_t bgp_blackout_dropped = 0;
    std::int64_t bgp_dropped = 0;
    std::int64_t bgp_corrupt_dropped = 0;
    std::int64_t bgp_corrupted = 0;   // corrupted bytes still decoded
    std::int64_t bgp_duplicated = 0;  // extra copies emitted
    std::int64_t bgp_reordered = 0;
    std::int64_t bgp_replayed = 0;    // session-reset replay records
    std::int64_t trace_blackout_dropped = 0;
    std::int64_t trace_dropped = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  Rng& bgp_stream(bgp::VpId vp);
  Rng& trace_stream(tr::ProbeId probe);
  // Remembers / forgets the last route the engine saw from (vp, prefix);
  // fuels the session-reset replay.
  void remember(const bgp::BgpRecord& record);
  std::optional<bgp::BgpRecord> corrupt(const bgp::BgpRecord& record,
                                        Rng& rng);

  FaultPlan plan_;
  TimePoint t0_;
  std::int64_t window_seconds_;

  std::map<bgp::VpId, Rng> bgp_streams_;
  std::map<tr::ProbeId, Rng> trace_streams_;
  // Last-known announcement per (vp, prefix-string) — what a re-established
  // session would dump back at the collector.
  std::map<bgp::VpId, std::map<std::string, bgp::BgpRecord>> last_routes_;
  // The synchronized post-blackout table dump fires exactly once.
  bool replay_done_ = false;

  Stats stats_;
  obs::TraceRecorder* tracer_ = nullptr;
  // Last window a blackout activation instant was recorded for (bounds the
  // event volume to one per window, not one per dropped record).
  std::int64_t last_traced_blackout_window_ = -1;
  obs::Counter* obs_bgp_dropped_blackout_ = nullptr;
  obs::Counter* obs_bgp_dropped_loss_ = nullptr;
  obs::Counter* obs_bgp_dropped_corrupt_ = nullptr;
  obs::Counter* obs_bgp_corrupted_ = nullptr;
  obs::Counter* obs_bgp_duplicated_ = nullptr;
  obs::Counter* obs_bgp_reordered_ = nullptr;
  obs::Counter* obs_bgp_replayed_ = nullptr;
  obs::Counter* obs_trace_dropped_blackout_ = nullptr;
  obs::Counter* obs_trace_dropped_loss_ = nullptr;
};

}  // namespace rrr::fault
