// §4.1.2 — staleness signals from overlapping BGP AS paths.
//
// For a corpus traceroute τ_d and each AS a_j on its AS-level path, the
// monitor tracks P_ratio = |P_match| / |P_intersect| over 15-minute windows:
// among BGP paths toward d that first intersect τ_d at a_j (counting the
// standing route at window start plus every update within the window, from
// the pinned VP set V_0 that intersected at watch time), the fraction whose
// suffix from a_j matches τ_d's. Outliers in the Bitmap-detected series are
// staleness prediction signals; flagged windows are excluded from history so
// persistent changes keep signalling (§4.1.2).
#pragma once

#include <map>
#include <unordered_map>

#include "detect/series.h"
#include "signals/bgp_context.h"
#include "signals/monitor.h"

namespace rrr::runtime {
class ThreadPool;
}

namespace rrr::signals {

class AsPathMonitor final : public Monitor {
 public:
  explicit AsPathMonitor(const BgpContext& context) : context_(context) {}

  // Evaluates window closes across entries on `pool` (null = serial).
  void set_pool(runtime::ThreadPool* pool) { pool_ = pool; }
  void watch(const CorpusView& view, PotentialIndex& index);
  void unwatch(const tr::PairKey& pair);
  void on_record(const DispatchedRecord& record, std::int64_t window);
  std::vector<StalenessSignal> close_window(std::int64_t window,
                                            TimePoint window_end);
  bool reverted(PotentialId id) const;

  std::size_t entry_count() const { return entries_.size(); }

  // Checkpoint support. Entries are serialized sorted by potential id with
  // every dynamic field; the index vectors (by_pair_/by_dst_/dirty_/hot_)
  // are serialized as ordered id lists rather than rebuilt, because their
  // order (set by unordered_map-driven insertion at watch/dispatch time)
  // feeds the close-path work lists and therefore the canonical signal
  // merge. dst_index_ and by_potential_ are derived and rebuilt on load;
  // the cached standing counts are recomputed from the table on first use.
  void save_state(store::Encoder& enc) const;
  void load_state(store::Decoder& dec);

 private:
  struct Entry {
    PotentialId id = kNoPotential;
    tr::PairKey pair;
    Asn as;                 // a_j
    InternedPath tau_path;  // τ_d's full AS path; shared across entries
    std::size_t tau_index;  // position of a_j in tau_path
    std::size_t border_index = kWholePath;
    // Sorted, duplicate-free; flat instead of std::set for the same
    // resident-set reasons as BurstMonitor's VP lists.
    std::vector<bgp::VpId> v0;
    detect::LazySeries series;
    double baseline_ratio = 1.0;
    bool dirty = false;
    // Windows left in which the series must be re-evaluated even without
    // new updates: the Bitmap detector's lead window needs several samples
    // of a shifted level before the bitmap distance peaks, so a value
    // change keeps the entry "hot" for a few windows.
    int hot_windows = 0;
    // Cached standing_counts(), reused by evaluate() until V0's routes can
    // have changed; standing_den < 0 means not computed. Not serialized.
    int standing_num = 0;
    int standing_den = -1;
    // Update paths observed in the open window, per VP. Interned handles:
    // buffering an update is an id copy, and the checkpoint codec resolves
    // to content on write (bytes unchanged) / re-interns on read.
    std::vector<std::pair<bgp::VpId, InternedPath>> window_updates;
  };

  // (match, intersect) counts over the standing routes of `entry`'s V0,
  // read from the table.
  std::pair<int, int> standing_counts(const Entry& entry) const;
  static bool path_counts(const Entry& entry, const AsPath& path, int& num,
                          int& den);
  void fill_meta(const Entry& entry, double score, SignalMeta& meta) const;

  // One entry's re-evaluation at window close. Touches only `entry` (the
  // table view is read-only during the close), so distinct entries are safe
  // to evaluate concurrently; the hot-queue membership change is returned
  // instead of applied so the caller can apply it in work-list order.
  struct EvalResult {
    std::vector<StalenessSignal> signals;
    bool newly_hot = false;
  };
  EvalResult evaluate(Entry* entry, bool from_update, std::int64_t window,
                      TimePoint window_end);

  runtime::ThreadPool* pool_ = nullptr;
  const BgpContext& context_;
  std::unordered_map<PotentialId, std::unique_ptr<Entry>> entries_;
  std::map<tr::PairKey, std::vector<Entry*>> by_pair_;
  // Destination IP -> entries monitoring it, plus the prefix-cover index.
  std::unordered_map<Ipv4, std::vector<Entry*>> by_dst_;
  DstIndex dst_index_;
  std::vector<Entry*> dirty_;
  std::vector<Entry*> hot_;
  std::unordered_map<PotentialId, Entry*> by_potential_;
};

}  // namespace rrr::signals
