// EngineShard: one partition of the staleness engine's corpus.
//
// The Engine (signals/engine.h) routes every corpus pair to one shard by a
// stable pair hash. A shard keeps only per-pair state — its slice of the
// corpus with each pair's freshness and active signals, plus the BGP
// monitors (AS-path, community, burst), whose entries are per-pair. All
// cross-pair state (BGP table, potential index, calibration, reputation,
// the trace-driven monitors, feed health) lives once in the Engine and is
// borrowed through EngineSharedState. The Engine drives the window cycle;
// the shard exposes the hooks it calls.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "runtime/thread_pool.h"
#include "signals/aspath_monitor.h"
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

// Cross-pair state the Engine lends to its shards. Everything here has
// exactly one instance regardless of shard count: one BGP table (shards
// read the start-of-window state through `context`), one potential-id
// space, one calibration/reputation store, and one of each trace-driven
// monitor (their series are deduplicated *across* pairs, so per-shard
// copies would make the signal stream depend on the partition).
struct EngineSharedState {
  const BgpContext* context = nullptr;
  runtime::ThreadPool* pool = nullptr;  // null = serial
  PotentialIndex* index = nullptr;
  Calibration* calibration = nullptr;
  CommunityReputation* reputation = nullptr;
  SubpathMonitor* subpath = nullptr;
  BorderMonitor* border = nullptr;
  IxpMonitor* ixp = nullptr;
  // Engine-owned instrument bundle; null when the engine has no registry.
  // Shards copy it so all shards update the same shared instruments.
  const EngineObs* obs = nullptr;
  // Engine-owned feed-health tracker, read-only during shard closes; null
  // when health tracking is off.
  const FeedHealthTracker* health = nullptr;
};

class EngineShard {
 public:
  // Every pointer in `shared` except `pool` and `health` must be non-null.
  EngineShard(WindowClock clock, tracemap::ProcessingContext& processing,
              const EngineSharedState& shared);

  // --- corpus management ---
  void watch(const tr::Probe& probe, const tr::Traceroute& trace);
  std::size_t corpus_size() const { return corpus_.size(); }
  bool has_pair(const tr::PairKey& pair) const {
    return corpus_.contains(pair);
  }

  // --- refresh cycle (§4.3.1) ---
  // Grades related potential signals against the new measurement, updates
  // calibration and community reputation, and re-registers the pair.
  RefreshOutcome apply_refresh(const tr::Probe& probe,
                               const tr::Traceroute& fresh);
  // Adds this shard's refresh candidates (pairs with firing signals) to the
  // engine's merged candidate map.
  void collect_refresh_candidates(
      std::map<tr::PairKey, RefreshScheduler::PairState>& into) const;

  // --- window-close hooks ---
  // Dispatches one window's records to this shard's BGP monitors (records
  // are read-only; the shared table still holds the start-of-window state).
  void dispatch_window_records(const std::vector<DispatchedRecord>& records,
                               std::int64_t window);
  // Closes the shard's BGP monitors, appending their raw (unregistered)
  // signals to `into`; the engine merges and registers across shards.
  void collect_bgp_close(std::vector<StalenessSignal>& into,
                         std::int64_t window, TimePoint window_end);
  // Applies one registered signal's state change (freshness + active set).
  // The engine has already performed the corpus-presence and cooldown
  // checks.
  void mark_stale(const StalenessSignal& signal);
  // §4.3.2 sweep over this shard's corpus.
  void run_revocation();

  // --- queries ---
  tr::Freshness freshness(const tr::PairKey& pair) const;
  std::vector<tr::PairKey> stale_pairs() const;
  // Appends this shard's per-pair verdict state (corpus order, i.e. sorted
  // by pair). Pure read — no state change — so the serving layer can call
  // it every window without perturbing the signal stream.
  void collect_pair_states(std::vector<PairStateView>& into) const;
  const tracemap::ProcessedTrace* processed_of(const tr::PairKey& pair) const;
  const CommunityMonitor& community_monitor() const { return *community_; }

  // --- checkpoint support ---
  // The corpus slice with per-pair freshness/active-signal state, then the
  // per-pair BGP monitors. Configuration (clock, processing context,
  // borrowed state) is not stored — the owner reconstructs the shard with
  // identical parameters before loading.
  void save_state(store::Encoder& enc) const;
  void load_state(store::Decoder& dec);

 private:
  struct PairState {
    CorpusView view;
    tr::Freshness freshness = tr::Freshness::kFresh;
    std::int64_t watched_window = 0;
    // Fired-and-unrevoked signals, keyed by potential.
    std::map<PotentialId, ActiveSignal> active;
  };

  bool portion_changed(const tracemap::ProcessedTrace& before,
                       const tracemap::ProcessedTrace& after,
                       std::size_t border_index) const;
  tr::Freshness initial_freshness(const tr::PairKey& pair,
                                  const CorpusView& view) const;
  // §4.3.2: whether the monitor behind `technique` reports `potential`
  // back in its issue-time state (false for the techniques that cannot
  // revert: burst and colocation).
  bool reverted(Technique technique, PotentialId potential) const;

  WindowClock clock_;
  tracemap::ProcessingContext& processing_;
  // Copied from the engine's bundle; all-null when telemetry is off.
  EngineObs obs_;

  // Borrowed cross-pair state (see EngineSharedState).
  PotentialIndex* index_;
  Calibration* calibration_;
  CommunityReputation* reputation_;
  SubpathMonitor* subpath_;
  BorderMonitor* border_;
  IxpMonitor* ixp_;
  const FeedHealthTracker* health_;

  // BGP monitors hold per-pair entries only, so every shard owns its own.
  std::unique_ptr<AsPathMonitor> aspath_;
  std::unique_ptr<CommunityMonitor> community_;
  std::unique_ptr<BurstMonitor> burst_;

  std::map<tr::PairKey, PairState> corpus_;
};

}  // namespace rrr::signals
