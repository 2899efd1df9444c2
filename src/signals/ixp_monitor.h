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
// provider or a public peer (shortest-path / cost reasoning). A join whose
// next hop is a private peer never signals: the paper signals it once equal
// local preference has been learned for AS_i, and nothing here learns local
// preference.
#pragma once

#include <map>
#include <set>

#include "signals/asreldb.h"
#include "signals/monitor.h"

namespace rrr::signals {

class IxpMonitor final : public Monitor {
 public:
  IxpMonitor(const AsRelDb& rels,
             std::map<topo::IxpId, std::set<Asn>> initial_members)
      : rels_(rels), members_(std::move(initial_members)) {}

  // Opens no potential: a join opens one when it signals.
  void watch(const CorpusView& view, PotentialIndex& index);
  void unwatch(const tr::PairKey& pair);
  // A join signal opens its potential in `index`.
  void on_public_trace(const tracemap::ProcessedTrace& trace,
                       std::int64_t window, PotentialIndex& index);
  std::vector<StalenessSignal> close_window(std::int64_t window,
                                            TimePoint window_end);

  std::size_t detected_joins() const { return detected_joins_; }

  // Checkpoint support: the members, the watched pairs, the pending
  // signals and the join count. The load rebuilds the per-AS index from
  // the watched pairs.
  void save_state(store::Encoder& enc) const { io(enc, *this); }
  void load_state(store::Decoder& dec) { io(dec, *this); }

 private:
  struct WatchedPair {
    AsPath path;
    // For AS at path position p, the border index whose far side is it.
    std::vector<std::size_t> ingress_border;

    template <class Io, class Self>
    static void io(Io& io, Self& watched) {
      io(watched.path, watched.ingress_border);
    }
  };

  void handle_new_member(topo::IxpId ixp, Asn joiner, PotentialIndex& index);
  // Files `pair` under every AS on its path.
  void index_watched(const tr::PairKey& pair, const AsPath& path);

  const AsRelDb& rels_;
  std::map<topo::IxpId, std::set<Asn>> members_;
  std::map<tr::PairKey, WatchedPair> watched_;
  std::map<Asn, std::set<tr::PairKey>> by_as_;
  std::vector<StalenessSignal> pending_;
  std::size_t detected_joins_ = 0;

  template <class Io, class Self>
  static void io(Io& io, Self& self) {
    io.ordered(self.members_, "IXP ids", [](auto& io, auto& members) {
      io.ordered(members, "IXP members");
    });
    io.ordered(self.watched_, "IXP watched pairs");
    io(self.pending_, self.detected_joins_);
    if constexpr (Io::kLoading) {
      self.by_as_.clear();
      for (const auto& [pair, watched] : self.watched_) {
        self.index_watched(pair, watched.path);
      }
    }
  }
};

}  // namespace rrr::signals
