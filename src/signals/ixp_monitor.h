// §4.2.3 — staleness signals from IXP membership changes ("Colocation
// changes" in Table 2).
//
// Membership starts from a PeeringDB-like snapshot, augmented by ASes seen
// as near-end (left-adjacent) neighbors of IXP interfaces in traceroutes
// (far-end neighbors are ignored: routers reply with ingress interfaces, so
// the hop after an IXP address need not belong to the interface's owner).
// When AS_i newly appears as a member of IXP_x, corpus traceroutes that
// traverse AS_i and later another member AS_j may have switched to a direct
// AS_i--AS_j peering: a signal fires when AS_i currently reaches AS_j via a
// provider or a public peer (shortest-path / cost reasoning); private peers
// only produce signals once equal local-preference behaviour has been
// learned for AS_i.
#pragma once

#include <map>
#include <set>
#include <unordered_map>

#include "signals/asreldb.h"
#include "signals/monitor.h"

namespace rrr::runtime {
class ThreadPool;
}

namespace rrr::signals {

class IxpMonitor final : public Monitor {
 public:
  IxpMonitor(const AsRelDb& rels,
             std::map<topo::IxpId, std::set<Asn>> initial_members)
      : rels_(rels), members_(std::move(initial_members)) {}

  // Stamps window-close signals on `pool` (null = serial).
  void set_pool(runtime::ThreadPool* pool) { pool_ = pool; }
  void watch(const CorpusView& view, PotentialIndex& index);
  void unwatch(const tr::PairKey& pair);
  void on_public_trace(const tracemap::ProcessedTrace& trace,
                       std::int64_t window);
  std::vector<StalenessSignal> close_window(std::int64_t window,
                                            TimePoint window_end);

  // Calibration feedback: AS_i has been observed preferring IXP routes over
  // private peers, so future private-peer cases also signal.
  void learn_equal_preference(Asn as) { equal_pref_.insert(as); }

  const std::set<Asn>& members_of(topo::IxpId ixp) const;
  std::size_t detected_joins() const { return detected_joins_; }

  // Checkpoint support. The potential index is re-bound explicitly on load
  // (it is normally captured at first watch, which a restored monitor may
  // never see again).
  void save_state(store::Encoder& enc) const;
  void load_state(store::Decoder& dec, PotentialIndex* index);

 private:
  struct WatchedPair {
    tr::PairKey key;
    AsPath path;
    // For AS at path position p, the border index whose far side is it.
    std::vector<std::size_t> ingress_border;
  };

  void handle_new_member(topo::IxpId ixp, Asn joiner);

  runtime::ThreadPool* pool_ = nullptr;
  const AsRelDb& rels_;
  std::map<topo::IxpId, std::set<Asn>> members_;
  std::set<Asn> equal_pref_;
  std::map<tr::PairKey, WatchedPair> watched_;
  std::map<Asn, std::set<tr::PairKey>> by_as_;
  PotentialIndex* index_ = nullptr;  // bound at first watch
  std::vector<StalenessSignal> pending_;
  std::size_t detected_joins_ = 0;
};

}  // namespace rrr::signals
