// §4.1.4 — staleness signals from bursts of duplicate BGP updates.
//
// Routers emit updates when non-transitive attributes (MED, IGP cost)
// change, producing announcements identical to the previous one. A burst of
// such duplicates from multiple VPs sharing an AS-level suffix of a corpus
// traceroute suggests a change on the shared subpath. To avoid blaming the
// overlap when the real change is upstream, a parallel series U' is kept for
// every "extra" AS that at least two of those VPs traverse outside the
// overlap: a signal fires only if some bursting VP traverses no extra AS
// with a contemporaneous burst (Figure 4).
#pragma once

#include <map>

#include "detect/series.h"
#include "signals/bgp_context.h"
#include "signals/bgp_entry_index.h"

namespace rrr::runtime {
class ThreadPool;
}

namespace rrr::signals {

// The watch-time VP sets of one suffix {a_j .. a_d} of a corpus AS path τ.
// VP lists are ascending.
struct BurstHop {
  // V0: the VPs whose standing route ends with the suffix.
  std::vector<bgp::VpId> v0;
  // Each extra AS a_k — off τ, on at least two V0 paths, in ascending order
  // — with W^{k,d}, the VPs whose route traverses a_k but not the whole
  // suffix; an AS with an empty W^{k,d} is left out. Empty when |V0| < 2.
  std::vector<std::pair<Asn, std::vector<bgp::VpId>>> extras;
  // The extras (indices into `extras`) each V0 VP's path traverses.
  std::map<bgp::VpId, std::vector<std::size_t>> vp_extras;
};

// Every suffix's sets for `tau` (index j = the suffix from a_j), from
// `row`, the standing routes toward its destination.
std::vector<BurstHop> burst_hops(const AsPath& tau, bgp::RouteRow row);

class BurstMonitor final : public Monitor {
 public:
  explicit BurstMonitor(const BgpContext& context) : context_(context) {}

  // Evaluates window closes across entries on `pool` (null = serial).
  void set_pool(runtime::ThreadPool* pool) { pool_ = pool; }
  // `row` holds the standing routes toward `view.key.dst`.
  void watch(const CorpusView& view, PotentialIndex& index,
             bgp::RouteRow row);
  void unwatch(const tr::PairKey& pair);
  void on_record(const DispatchedRecord& record, std::int64_t window);
  std::vector<StalenessSignal> close_window(std::int64_t window,
                                            TimePoint window_end);

  std::size_t entry_count() const { return entries_.size(); }

  // Checkpoint support: the entry store's snapshot (BgpEntryIndex), each
  // entry with every dynamic field.
  void save_state(store::Encoder& enc) const { enc(entries_); }
  void load_state(store::Decoder& dec) { dec(entries_); }

 private:
  // Sorted duplicate-free VP lists, flat instead of std::set: the monitor
  // holds one entry per (pair, suffix) — tens of thousands at 10x corpus
  // scale, each watching ~25 VPs — and rb-tree nodes (48 bytes per VP)
  // dominated its resident set. Sorted order keeps iteration, and therefore
  // save_state bytes and the close-path work, identical to the set.
  using VpList = std::vector<bgp::VpId>;

  struct ExtraSeries {
    Asn as;                      // a_k, traversed outside the overlap
    VpList vps;                  // W^{k,d}
    detect::LazySeries series{detect::GapPolicy::kZero};  // U'^{k,d}
    VpList window_dups;
    bool outlier_this_window = false;

    template <class Io, class Self>
    static void io(Io& io, Self& extra) {
      io(extra.as, extra.vps, extra.series, extra.window_dups,
         extra.outlier_this_window);
    }
  };

  struct Entry {                  // one per (pair, suffix start j)
    PotentialId id = kNoPotential;
    tr::PairKey pair;
    InternedPath suffix;         // {a_j .. a_d}; shared across entries
    std::size_t border_index = kWholePath;
    VpList v0;                   // VPs sharing the suffix at watch time
    detect::LazySeries series{detect::GapPolicy::kZero};  // U^{j,d}
    VpList window_dups;
    std::vector<ExtraSeries> extras;
    // Extra ASes traversed per V0 VP (indices into `extras`).
    std::map<bgp::VpId, std::vector<std::size_t>> vp_extras;
    bool touched = false;  // duplicates buffered this window

    template <class Io, class Self>
    static void io(Io& io, Self& entry) {
      io(entry.pair, entry.suffix, entry.border_index, entry.v0,
         entry.series, entry.window_dups, entry.extras);
      io.ordered(entry.vp_extras, "burst entry VPs");
      for (const auto& [vp, indices] : entry.vp_extras) {
        for (std::size_t index : indices) {
          io.check(index < entry.extras.size(),
                   "burst entry names an unknown extra AS");
        }
      }
    }
  };

  runtime::ThreadPool* pool_ = nullptr;
  const BgpContext& context_;
  BgpEntryIndex<Entry> entries_;
};

}  // namespace rrr::signals
