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

#include "detect/series.h"
#include "signals/bgp_context.h"
#include "signals/bgp_entry_index.h"

namespace rrr::runtime {
class ThreadPool;
}

namespace rrr::signals {

// One hop a_j of a corpus AS path τ as the watch pins it: V0, the VPs (in
// ascending order) whose standing route toward τ's destination first
// intersects τ at a_j, and the standing P_ratio, the share of those routes
// that match τ's suffix from a_j (1 when V0 is empty).
struct PinnedHop {
  std::vector<bgp::VpId> v0;
  double baseline_ratio = 1.0;
};

// Pins every hop of `tau` in one pass over `row`, the standing routes
// toward its destination.
std::vector<PinnedHop> pin_hops(const AsPath& tau, bgp::RouteRow row);

class AsPathMonitor final : public Monitor {
 public:
  explicit AsPathMonitor(const BgpContext& context) : context_(context) {}

  // Evaluates window closes across entries on `pool` (null = serial).
  void set_pool(runtime::ThreadPool* pool) { pool_ = pool; }
  // `row` holds the standing routes toward `view.key.dst`.
  void watch(const CorpusView& view, PotentialIndex& index,
             bgp::RouteRow row);
  void unwatch(const tr::PairKey& pair);
  void on_record(const DispatchedRecord& record, std::int64_t window);
  std::vector<StalenessSignal> close_window(std::int64_t window,
                                            TimePoint window_end);
  bool reverted(PotentialId id) const;

  std::size_t entry_count() const { return entries_.size(); }

  // Checkpoint support: the entry store's snapshot (BgpEntryIndex), each
  // entry with every dynamic field, then the hot list as ids. The work
  // lists are saved rather than rebuilt because their order sets the order
  // in which this monitor's close emits its signals (the engine's merge
  // sorts, so it does not depend on it); the cached standing counts are
  // recomputed from the table on first use.
  void save_state(store::Encoder& enc) const { io(enc, *this); }
  void load_state(store::Decoder& dec) { io(dec, *this); }

 private:
  struct Entry {
    PotentialId id = kNoPotential;
    tr::PairKey pair;
    Asn as;                 // a_j
    InternedPath tau_path;  // τ_d's full AS path; shared across entries
    std::size_t tau_index = 0;  // position of a_j in tau_path
    std::size_t border_index = kWholePath;
    // Sorted, duplicate-free; flat instead of std::set for the same
    // resident-set reasons as BurstMonitor's VP lists.
    std::vector<bgp::VpId> v0;
    detect::LazySeries series{detect::GapPolicy::kCarryLast};
    double baseline_ratio = 1.0;
    bool touched = false;  // updates buffered this window
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

    template <class Io, class Self>
    static void io(Io& io, Self& entry) {
      io(entry.pair, entry.as, entry.tau_path, entry.tau_index);
      io.check(entry.tau_index < entry.tau_path.size(),
               "AS-path entry hop lies off its path");
      io(entry.border_index, entry.v0, entry.series, entry.baseline_ratio,
         entry.hot_windows, entry.window_updates);
    }
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
  // Its touched list holds the entries updates reached this window.
  BgpEntryIndex<Entry> entries_;
  std::vector<Entry*> hot_;

  template <class Io, class Self>
  static void io(Io& io, Self& self) {
    io(self.entries_);
    BgpEntryIndex<Entry>::ids(io, self.entries_, self.hot_);
  }
};

}  // namespace rrr::signals
