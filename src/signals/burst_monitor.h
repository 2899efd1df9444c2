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
#include <unordered_map>

#include "detect/series.h"
#include "signals/bgp_context.h"
#include "signals/monitor.h"

namespace rrr::runtime {
class ThreadPool;
}

namespace rrr::signals {

class BurstMonitor final : public Monitor {
 public:
  explicit BurstMonitor(const BgpContext& context) : context_(context) {}

  // Evaluates window closes across entries on `pool` (null = serial).
  void set_pool(runtime::ThreadPool* pool) { pool_ = pool; }
  void watch(const CorpusView& view, PotentialIndex& index);
  void unwatch(const tr::PairKey& pair);
  void on_record(const DispatchedRecord& record, std::int64_t window);
  std::vector<StalenessSignal> close_window(std::int64_t window,
                                            TimePoint window_end);

  std::size_t entry_count() const { return entries_.size(); }

  // Checkpoint support; same index-vector ordering contract as
  // AsPathMonitor::save_state.
  void save_state(store::Encoder& enc) const;
  void load_state(store::Decoder& dec);

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
    detect::LazySeries series;   // U'^{k,d}
    VpList window_dups;
    bool outlier_this_window = false;
  };

  struct Entry {                  // one per (pair, suffix start j)
    PotentialId id = kNoPotential;
    tr::PairKey pair;
    InternedPath suffix;         // {a_j .. a_d}; shared across entries
    std::size_t border_index = kWholePath;
    VpList v0;                   // VPs sharing the suffix at watch time
    detect::LazySeries series;   // U^{j,d}
    VpList window_dups;
    std::vector<ExtraSeries> extras;
    // Extra ASes traversed per V0 VP (indices into `extras`).
    std::map<bgp::VpId, std::vector<std::size_t>> vp_extras;
    bool dirty = false;
  };

  runtime::ThreadPool* pool_ = nullptr;
  const BgpContext& context_;
  std::unordered_map<PotentialId, std::unique_ptr<Entry>> entries_;
  std::map<tr::PairKey, std::vector<Entry*>> by_pair_;
  std::unordered_map<Ipv4, std::vector<Entry*>> by_dst_;
  DstIndex dst_index_;
  std::vector<Entry*> dirty_;
};

}  // namespace rrr::signals
