// §4.1.3 — staleness signals from BGP community changes.
//
// Communities often encode where an AS learned a route (Figure 3), so a
// community change on a path overlapping a corpus traceroute's AS-level
// suffix suggests an IP-level border change even when the AS path is
// unchanged. Two suppression rules guard precision: transitions between
// "has communities" and "has none" only count when the AS path is unchanged
// (an intermediate AS may simply have started stripping), and a community
// that already appears on another VP's overlapping path is not new
// information. A reputation store (Appendix B) additionally prunes
// communities that keep producing false positives, because many communities
// (traffic engineering, prepending control) never relate to the traversed
// path.
#pragma once

#include <map>

#include "signals/bgp_context.h"
#include "signals/bgp_entry_index.h"

namespace rrr::runtime {
class ThreadPool;
}

namespace rrr::signals {

// Appendix B: per-community calibration. A community is pruned once it has
// produced enough confirmed false positives with too few true positives.
class CommunityReputation {
 public:
  // Grades one refresh outcome. Tallies are kept globally per community
  // (prunes communities unrelated to routing, e.g. TE values) and per
  // (community, pair) (prunes communities that describe a portion of the
  // AS the monitored traceroute does not traverse — §4.1.3's second
  // failure case).
  void record_outcome(Community community, const tr::PairKey& pair,
                      bool true_positive);
  bool pruned(Community community) const;
  bool pruned_for(Community community, const tr::PairKey& pair) const;
  // Number of distinct communities that generated at least one FP and are
  // not yet pruned — the quantity Figure 13 tracks over time.
  std::size_t active_false_positive_communities() const;
  std::size_t pruned_count() const;

  struct Stats {
    int tp = 0;
    int fp = 0;

    template <class Io, class Self>
    static void io(Io& io, Self& stats) {
      io(stats.tp, stats.fp);
    }
  };
  const std::map<Community, Stats>& stats() const { return stats_; }

  // Checkpoint support: round-trips the three tally maps.
  void save_state(store::Encoder& enc) const { io(enc, *this); }
  void load_state(store::Decoder& dec) { io(dec, *this); }

 private:
  std::map<Community, Stats> stats_;
  std::map<std::pair<Community, tr::PairKey>, Stats> pair_stats_;
  // Keyed by (defining AS, pair): when an AS's communities repeatedly
  // mis-predict for a traceroute, the BGP path evidently traverses a
  // different portion of that AS than the traceroute does.
  std::map<std::pair<Asn, tr::PairKey>, Stats> definer_stats_;

  template <class Io, class Self>
  static void io(Io& io, Self& self) {
    io.ordered(self.stats_, "reputation communities");
    io.ordered(self.pair_stats_, "reputation (community, pair) keys");
    io.ordered(self.definer_stats_, "reputation (definer, pair) keys");
  }
};

// Each hop a_j's baseline of a corpus AS path τ: the communities defined by
// a_j on the routes in `row` (the standing routes toward τ's destination)
// that overlap τ's suffix from a_j.
std::vector<CommunitySet> hop_baselines(const AsPath& tau, bgp::RouteRow row);

class CommunityMonitor final : public Monitor {
 public:
  CommunityMonitor(const BgpContext& context, CommunityReputation& reputation)
      : context_(context), reputation_(reputation) {}

  // Stamps window-close signals across entries on `pool` (null = serial).
  void set_pool(runtime::ThreadPool* pool) { pool_ = pool; }
  // `row` holds the standing routes toward `view.key.dst`.
  void watch(const CorpusView& view, PotentialIndex& index,
             bgp::RouteRow row);
  void unwatch(const tr::PairKey& pair);
  void on_record(const DispatchedRecord& record, std::int64_t window);
  std::vector<StalenessSignal> close_window(std::int64_t window,
                                            TimePoint window_end);
  bool reverted(PotentialId id) const;

  struct Stats {
    std::int64_t records = 0;          // non-withdrawal records dispatched
    std::int64_t diffs = 0;            // records with a nonempty diff for some entry's definer
    std::int64_t no_prev_overlap = 0;  // suppressed: old path does not overlap
    std::int64_t no_new_overlap = 0;   // suppressed: new path does not overlap
    std::int64_t path_rule = 0;        // suppressed: path changed, not a value change
    std::int64_t known_elsewhere = 0;  // suppressed: community visible on another VP
    std::int64_t pruned = 0;           // suppressed: reputation
    std::int64_t fired = 0;            // pending signals created

    template <class Io, class Self>
    static void io(Io& io, Self& stats) {
      io(stats.records, stats.diffs, stats.no_prev_overlap,
         stats.no_new_overlap, stats.path_rule, stats.known_elsewhere,
         stats.pruned, stats.fired);
    }
  };
  const Stats& stats() const { return stats_; }

  // Checkpoint support: the stats, then the entry store's snapshot
  // (BgpEntryIndex), whose touched list holds the pending entries.
  void save_state(store::Encoder& enc) const { io(enc, *this); }
  void load_state(store::Decoder& dec) { io(dec, *this); }

 private:
  mutable Stats stats_;
  // One potential per (pair, AS on τ's path): a community defined by that
  // AS changing on an overlapping VP path signals that τ's border there may
  // have moved.
  struct Entry {
    PotentialId id = kNoPotential;
    tr::PairKey pair;
    Asn as;  // the defining AS a_j
    // τ_d's full AS path; interned handle shared across entries.
    InternedPath tau_path;
    std::size_t tau_index = 0;
    std::size_t border_index = kWholePath;
    // Communities defined by `as` present on overlapping VP paths at watch
    // time (the baseline for revocation).
    CommunitySet baseline;
    // Pending signal, emitted at window close.
    bool touched = false;
    Community pending_community;
    int pending_vp_count = 0;

    template <class Io, class Self>
    static void io(Io& io, Self& entry) {
      io(entry.pair, entry.as, entry.tau_path, entry.tau_index,
         entry.border_index, entry.baseline, entry.pending_community,
         entry.pending_vp_count);
    }
  };

  // Communities defined by `definer` on any *other* overlapping VP's
  // standing route toward dst.
  bool community_known_elsewhere(const Entry& entry, Community community,
                                 bgp::VpId except_vp) const;
  // The entry's baseline read through route(), for the revocation sweep on
  // the pool.
  CommunitySet baseline_communities(const Entry& entry) const;

  runtime::ThreadPool* pool_ = nullptr;
  const BgpContext& context_;
  CommunityReputation& reputation_;
  BgpEntryIndex<Entry> entries_;

  template <class Io, class Self>
  static void io(Io& io, Self& self) {
    io(self.stats_, self.entries_);
  }
};

}  // namespace rrr::signals
