// Engine: the public API of the paper's system.
//
// Wires the six monitors to their data feeds, maintains the corpus's
// freshness state, applies the calibration/scheduling policy of §4.3.1 and
// the revocation rule of §4.3.2.
//
// Contract: feed all BGP records and public traceroutes belonging to a
// window before calling advance_to() past that window's end.
//
// The corpus is partitioned over N EngineShards (signals/engine_shard.h).
// Each pair is routed to shard hash(pair) % N by a platform-stable hash, so
// a shard owns a disjoint slice of the corpus plus the BGP monitors whose
// entries are per-pair (AS-path, community, burst). One BGP/public-trace
// stream fans out to all shards; per-window shard batches merge at the
// boundary in a canonical order, making the signal stream bit-identical for
// any (shards, threads) combination (DESIGN.md "Sharded engine").
//
// Exactly one BGP table exists regardless of shard count. During a window
// close the shards' BGP monitors read it from pool threads (phase A); once
// they are joined, the engine absorbs the window's records into it in the
// serial section, and only then do the trace monitors close (phase B).
// Readers therefore never lock and never observe a half-applied batch.
//
// Cross-pair state that the design shares *between* pairs — the
// potential-id space, calibration and community-reputation tallies, the
// global signal cooldown, and the trace-driven monitors (subpath/border
// series are deduplicated across pairs; IXP membership is learned globally)
// — stays in the engine with one instance, because per-shard copies would
// make the output depend on the partition. Shards borrow it read-only
// during parallel phases; all mutation happens in engine-serial sections
// (watch, refresh, absorb, registration), which is what keeps the close
// TSAN-clean without locks.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "bgp/record.h"
#include "bgp/table_view.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "signals/asreldb.h"
#include "signals/engine_shard.h"

namespace rrr::signals {

struct EngineParams {
  TimePoint t0;  // start of window 0; windows are kBaseWindowSeconds long
  // Stationarity maintenance (§4.1.2) for the subpath and border series:
  // outlier windows leave the z-score history. table2
  // --ablate-stationarity turns it off.
  bool trace_drop_outliers = true;
  std::uint64_t seed = 31;
  // Parallelism degree for window closing (shard closes and per-series
  // monitor work share one thread pool). 1 = fully serial; results are
  // identical either way — buffers merge in a canonical order, see
  // DESIGN.md "Runtime & determinism".
  int threads = 1;
  // Corpus partitions. Purely a throughput knob: the signal stream is
  // identical for any (shards, threads) combination.
  int shards = 1;
  // Telemetry sink; null (the default) disables all instrumentation — every
  // update site degrades to one branch on a null pointer. Must outlive the
  // engine.
  obs::MetricsRegistry* metrics = nullptr;
  // Trace recorder for flight-recorder spans (obs/trace.h); null disables
  // the trace path the same way — every span site is one branch on a null
  // pointer. Must outlive the engine.
  obs::TraceRecorder* tracer = nullptr;
  // Feed-health quarantine (feed_health.h). Disabled by default: the
  // tracker is not even constructed and every consult site degrades to one
  // branch on a null pointer.
  FeedHealthParams feed_health;
};

// Replaces `out` with the monitor-facing view of the first `count` records
// (path in the table's canonical form, duplicate status) against the
// standing start-of-window `table`. The views point into `records`, which
// must outlive them. Normalizing writes the table's canonicalization memo,
// so this runs in the serial section of the close.
void dispatch_against_table(const std::vector<bgp::BgpRecord>& records,
                            std::size_t count, bgp::VpTableView& table,
                            std::vector<DispatchedRecord>& out);

// Moves every record belonging to a window <= `window` to the front of
// `pending` (stably), sorts that prefix by time, and returns its length.
// Records for future windows keep their arrival order behind the cut and
// are *not* re-sorted — closing W must cost O(|window W| log |window W|),
// not O(|backlog| log |backlog|) as the old whole-buffer sort did. The
// (time, arrival-order) tie-break is identical to sorting the whole buffer,
// so the dispatched record order (and thus the signal stream) is unchanged.
std::size_t cut_window_prefix(std::vector<bgp::BgpRecord>& pending,
                              const WindowClock& clock, std::int64_t window);

class Engine {
 public:
  // `params.shards` fixes the partition count (clamped to >= 1) and
  // `params.threads` the pool size shared by every shard and monitor.
  Engine(const EngineParams& params, tracemap::ProcessingContext& processing,
         std::vector<bgp::VantagePoint> vps,
         std::set<Asn> ixp_route_server_asns, AsRelDb rels,
         std::map<topo::IxpId, std::set<Asn>> ixp_members);

  // Stable pair -> shard routing (mix64-based, not std::hash: the partition
  // must not vary across platforms or runs).
  std::size_t shard_of(const tr::PairKey& pair) const;

  // --- corpus management ---
  void watch(const tr::Probe& probe, const tr::Traceroute& trace);
  std::size_t corpus_size() const;

  // --- data feeds ---
  void on_bgp_record(const bgp::BgpRecord& record);
  void on_public_trace(const tr::Traceroute& trace);

  // Closes every window ending at or before `t`; returns the staleness
  // prediction signals generated in them, merged across shards in
  // canonical (technique-close-rank, window, potential, pair) order.
  std::vector<StalenessSignal> advance_to(TimePoint t);

  // --- refresh cycle (§4.3.1) ---
  // Merges every shard's candidates and plans under one global budget with
  // one calibration store and one RNG stream, so the chosen set is
  // independent of the partition.
  std::vector<tr::PairKey> plan_refreshes(int budget);
  RefreshOutcome apply_refresh(const tr::Probe& probe,
                               const tr::Traceroute& fresh);

  // --- queries ---
  tr::Freshness freshness(const tr::PairKey& pair) const;
  // Stale pairs across all shards, sorted by pair key.
  std::vector<tr::PairKey> stale_pairs() const;
  // Per-pair verdict state merged across shards, sorted by pair key. Pure
  // read (no RNG draw, no mutation) — the serving layer materializes its
  // snapshots from this at every window boundary.
  std::vector<PairStateView> pair_states() const;
  // Number of closed windows, i.e. of window batches absorbed into the BGP
  // table; captured into ServingSnapshot::table_epoch.
  std::uint64_t table_epoch() const {
    return static_cast<std::uint64_t>(next_window_);
  }
  const Calibration& calibration() const { return calibration_; }
  const CommunityReputation& community_reputation() const {
    return reputation_;
  }
  const tracemap::ProcessedTrace* processed_of(const tr::PairKey& pair) const;
  const SubpathMonitor& subpath_monitor() const { return subpath_; }
  // Suppression counters summed over every shard's community monitor.
  CommunityMonitor::Stats community_stats() const;

  // --- checkpoint support ---
  // Serializes the engine's single cross-pair instances followed by every
  // shard's local slice. The shard count is stored and verified on load:
  // a snapshot written at N shards restores only into an engine built with
  // N shards (the partition fixes which shard holds which pair — but the
  // merged signal stream is partition-invariant, so the determinism grid
  // may still compare runs across shard counts by their outputs).
  void save_state(store::Encoder& enc) const;
  void load_state(store::Decoder& dec);

 private:
  void close_one_window(std::int64_t window,
                        std::vector<StalenessSignal>& out);

  EngineParams params_;
  WindowClock clock_;
  tracemap::ProcessingContext& processing_;
  Rng rng_;
  // Engine-owned instrument bundles (all-null when params_.metrics is null);
  // declared before the shards, which copy obs_ at construction.
  EngineObs obs_;
  runtime::PoolObs pool_obs_;
  // Per-shard phase-A close spans, labeled {shard="i"}; empty when
  // telemetry is off.
  std::vector<obs::Histogram*> shard_close_us_;
  // Shared worker pool (null when threads <= 1); declared before everything
  // that borrows it.
  std::unique_ptr<runtime::ThreadPool> pool_;

  // The single copies of all cross-pair state (see file comment).
  std::vector<bgp::VantagePoint> vps_;
  bgp::VpTableView table_;
  BgpContext context_;
  std::vector<bgp::BgpRecord> pending_records_;
  // The per-close dispatch batch; serial close path only. It is cleared
  // each close and keeps its capacity, so a steady-state close allocates
  // nothing for it.
  std::vector<DispatchedRecord> dispatched_;
  // The public trace being ingested, processed in place; it keeps its
  // vectors' capacity, so a steady-state on_public_trace allocates nothing
  // for it.
  tracemap::ProcessedTrace public_trace_;
  PotentialIndex index_;
  Calibration calibration_;
  CommunityReputation reputation_;
  AsRelDb rels_;
  SubpathMonitor subpath_;
  BorderMonitor border_;
  IxpMonitor ixp_;
  // Feed-health tracker (one instance: delivery is counted at the engine's
  // serial feed boundary; shards only consult it). Null when tracking is
  // off. Declared before the shards, which borrow it at construction.
  std::unique_ptr<FeedHealthTracker> health_;

  std::vector<std::unique_ptr<EngineShard>> shards_;
  // Global signal cooldown: a potential shared by pairs in different shards
  // must still fire at most once per cooldown window span.
  std::map<PotentialId, std::int64_t> last_fired_;
  std::int64_t next_window_ = 0;  // first window not yet closed
};

}  // namespace rrr::signals
