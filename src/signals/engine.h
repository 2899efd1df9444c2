// Engine: the public API of the paper's system.
//
// Wires the six monitors to their data feeds, maintains the corpus's
// freshness state, applies the calibration/scheduling policy of §4.3.1 and
// the revocation rule of §4.3.2.
//
// Contract: feed all BGP records and public traceroutes belonging to a
// window before calling advance_to() past that window's end.
//
// The engine holds the corpus once: one map from pair to that pair's
// processed traceroute, freshness and active signals, and every per-pair
// step (watch, refresh grading, revocation, the queries) runs here. Only
// the BGP monitors (AS-path, community, burst), whose entries are per pair,
// are partitioned: a pair's entries live in the shard hash(pair) % N, by a
// platform-stable hash, and phase A of a window close dispatches and closes
// each shard's three monitors as one pool task. Per-shard batches merge at
// the boundary in a canonical order, so the signal stream is bit-identical
// for any (shards, threads) combination (DESIGN.md "Sharded engine").
//
// Exactly one BGP table exists regardless of shard count. During a window
// close the shards' BGP monitors read it from pool threads (phase A); once
// they are joined, the engine absorbs the window's records into it in the
// serial section, and only then do the trace monitors close (phase B).
// Readers therefore never lock and never observe a half-applied batch.
//
// Cross-pair state — the potential-id space, calibration and
// community-reputation tallies, the global signal cooldown, and the
// trace-driven monitors (subpath/border series are deduplicated across
// pairs; IXP membership is learned globally) — has one instance, because
// per-shard copies would make the output depend on the partition. Parallel
// phases only read it; all mutation happens in engine-serial sections
// (watch, refresh, absorb, registration, applying revocations), which is
// what keeps the close TSAN-clean without locks.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "bgp/record.h"
#include "bgp/table_view.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "signals/aspath_monitor.h"
#include "signals/asreldb.h"
#include "signals/bgp_context.h"
#include "signals/border_monitor.h"
#include "signals/burst_monitor.h"
#include "signals/calibration.h"
#include "signals/community_monitor.h"
#include "signals/engine_obs.h"
#include "signals/feed_health.h"
#include "signals/ixp_monitor.h"
#include "signals/monitor.h"
#include "signals/subpath_monitor.h"
#include "tracemap/pipeline.h"
#include "traceroute/traceroute.h"

namespace rrr::signals {

// One pair's verdict state as read out for the serving layer (src/serve).
// A value copy of the corpus entry's dynamic fields — holders never point
// back into the engine.
struct PairStateView {
  tr::PairKey pair;
  tr::Freshness freshness = tr::Freshness::kFresh;
  std::int64_t watched_window = 0;
  std::uint32_t active_signals = 0;  // fired-and-unrevoked signals
};

// What a refresh revealed, returned to callers for their own accounting.
struct RefreshOutcome {
  tr::PairKey pair;
  tracemap::ChangeKind change = tracemap::ChangeKind::kNone;
  bool was_flagged_stale = false;
};

struct EngineParams {
  TimePoint t0;  // start of window 0; windows are kBaseWindowSeconds long
  // Stationarity maintenance (§4.1.2) for the subpath and border series:
  // outlier windows leave the z-score history. table2
  // --ablate-stationarity turns it off.
  bool trace_drop_outliers = true;
  std::uint64_t seed = 31;
  // Parallelism degree for window closing (shard closes, per-series
  // monitor work and the revocation sweep share one thread pool). 1 =
  // fully serial; results are identical either way — buffers merge in a
  // canonical order, see DESIGN.md "Runtime & determinism".
  int threads = 1;
  // Partitions of the BGP monitors' per-pair entries (phase A runs one
  // task per shard). Purely a throughput knob: the signal stream is
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
  // Plans over every pair with firing signals under one global budget with
  // one calibration store and one RNG stream.
  std::vector<tr::PairKey> plan_refreshes(int budget);
  RefreshOutcome apply_refresh(const tr::Probe& probe,
                               const tr::Traceroute& fresh);

  // --- queries ---
  tr::Freshness freshness(const tr::PairKey& pair) const;
  // Stale pairs, sorted by pair key.
  std::vector<tr::PairKey> stale_pairs() const;
  // Per-pair verdict state, sorted by pair key. Pure read (no RNG draw, no
  // mutation) — the serving layer materializes its snapshots from this at
  // every window boundary.
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
  // Serializes the engine's single cross-pair instances, the corpus in pair
  // order, then shard by shard its three BGP monitors. The shard count is
  // stored and verified on load: a snapshot written at N shards restores
  // only into an engine built with N shards (the merged signal stream is
  // partition-invariant, so the determinism grid may still compare runs
  // across shard counts by their outputs). A corpus pair repeated or out
  // of order is kCorrupt.
  void save_state(store::Encoder& enc) const;
  void load_state(store::Decoder& dec);

 private:
  // One corpus pair: what the monitors watch, and its verdict state.
  struct PairState {
    CorpusView view;  // view.window is the window the pair was watched in
    tr::Freshness freshness = tr::Freshness::kFresh;
    // Fired-and-unrevoked signals, keyed by potential.
    std::map<PotentialId, ActiveSignal> active;

    // The pair's snapshot fields; its key is the corpus map's.
    template <class Io, class Self>
    static void io(Io& io, Self& state) {
      io(state.view.probe_as, state.view.probe_city, state.view.window,
         state.view.processed, state.freshness);
      io.ordered(state.active, "active signals");
    }
  };
  // The BGP monitors of one pair partition. Their entries are per pair, so
  // each shard's three monitors close as one phase-A task without touching
  // another shard's entries. Held by pointer: the monitors keep references
  // to the engine's context and reputation store.
  struct BgpMonitors {
    BgpMonitors(const BgpContext& context, CommunityReputation& reputation)
        : aspath(context), community(context, reputation), burst(context) {}
    AsPathMonitor aspath;
    CommunityMonitor community;
    BurstMonitor burst;
  };

  void close_one_window(std::int64_t window,
                        std::vector<StalenessSignal>& out);
  // §4.3.2 sweep over the corpus: judges the stale pairs on the pool, then
  // applies their revocations serially.
  void run_revocation();
  // §4.3.2: whether the monitor behind `technique` reports `potential`
  // back in its issue-time state (false for the techniques that cannot
  // revert: burst and colocation). `pair` names the BGP monitors' shard.
  bool reverted(const tr::PairKey& pair, Technique technique,
                PotentialId potential) const;
  tr::Freshness initial_freshness(const tr::PairKey& pair,
                                  const CorpusView& view) const;
  // watch() on `trace` once processed: refresh grading hands over the
  // processed form it already made, so a refresh ingests its trace once.
  void watch_processed(const tr::Probe& probe, const tr::Traceroute& trace,
                       tracemap::ProcessedTrace processed);
  template <class Io, class Self>
  static void io(Io& io, Self& self);

  EngineParams params_;
  WindowClock clock_;
  tracemap::ProcessingContext& processing_;
  Rng rng_;
  // Engine-owned instrument bundles (all-null when params_.metrics is null).
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
  // serial feed boundary; monitors only consult it). Null when tracking is
  // off.
  std::unique_ptr<FeedHealthTracker> health_;

  // Indexed by shard_of(pair).
  std::vector<std::unique_ptr<BgpMonitors>> shards_;
  std::map<tr::PairKey, PairState> corpus_;
  // The corpus pairs whose `active` set is non-empty, each pointing at its
  // corpus entry (map entries never move; every path that empties or erases
  // an entry drops it here): the candidates of the revocation sweep and the
  // refresh planner. Walking the whole corpus instead costs a cache miss or
  // two per pair, about 1.3 ms over bgp_corpus's 4000 pairs.
  std::map<tr::PairKey, PairState*> firing_;
  // Global signal cooldown: a potential shared by several pairs fires at
  // most once per cooldown window span.
  std::map<PotentialId, std::int64_t> last_fired_;
  std::int64_t next_window_ = 0;  // first window not yet closed
};

}  // namespace rrr::signals
