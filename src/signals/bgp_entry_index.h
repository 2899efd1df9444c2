// The BGP-entry core shared by the AS-path (§4.1.2), community (§4.1.3) and
// burst (§4.1.4) monitors. Each keeps one potential signal per (corpus
// traceroute τ_d, AS on τ_d) and routes every update to the entries whose
// destination its prefix covers. This class owns that step: the id-ordered
// entry store, the pair and destination indexes and the prefix-cover walk,
// the per-window touched list, unwatch, and the id and index parts of
// the snapshot. A monitor keeps only its Entry payload, its watch-time
// matching, its per-record test and its close.
//
// Entry must be default-constructible and movable, carry `PotentialId id`,
// `tr::PairKey pair`, `std::size_t border_index` and `bool touched`
// members, and list its snapshot fields in a static `io` (store/serial.h)
// that opens with `pair`; `touched` is the core's per-entry work-list flag,
// which the monitor lists among its fields.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "signals/monitor.h"

namespace rrr::signals {

// The border of `trace` whose far side is `as` (its ingress
// interconnection), or kWholePath when none is.
inline std::size_t ingress_border(const tracemap::ProcessedTrace& trace,
                                  Asn as) {
  for (std::size_t b = 0; b < trace.borders.size(); ++b) {
    if (trace.borders[b].far_as == as) return b;
  }
  return kWholePath;
}

template <typename Entry>
class BgpEntryIndex {
 public:
  // The indexes point into the store's nodes: a move keeps them valid, a
  // copy would not.
  BgpEntryIndex() = default;
  BgpEntryIndex(const BgpEntryIndex&) = delete;
  BgpEntryIndex& operator=(const BgpEntryIndex&) = delete;
  BgpEntryIndex(BgpEntryIndex&&) = default;
  BgpEntryIndex& operator=(BgpEntryIndex&&) = default;

  // Stores `entry` under a fresh potential of `technique`, related to
  // border `entry.border_index` of its pair, and indexes it by pair and by
  // destination. The stored entry keeps its address until its pair is
  // unwatched.
  Entry& add(Entry entry, Technique technique, PotentialIndex& index) {
    entry.id = index.create(technique);
    index.relate(entry.id, entry.pair, entry.border_index);
    Entry& stored = entries_.emplace(entry.id, std::move(entry)).first->second;
    by_pair_[stored.pair].push_back(&stored);
    by_dst_[stored.pair.dst].push_back(&stored);
    return stored;
  }

  // Drops every entry of `pair`. A destination whose list this empties
  // stays indexed (with an empty list) and is saved as such.
  void unwatch(const tr::PairKey& pair) {
    auto it = by_pair_.find(pair);
    if (it == by_pair_.end()) return;
    std::vector<Entry*>& dst_list = by_dst_[pair.dst];
    for (Entry* entry : it->second) {
      std::erase(dst_list, entry);
      std::erase(touched_, entry);
      entries_.erase(entry->id);
    }
    by_pair_.erase(it);
  }

  const Entry* find(PotentialId id) const {
    auto it = entries_.find(id);
    return it == entries_.end() ? nullptr : &it->second;
  }

  std::size_t size() const { return entries_.size(); }

  // Calls visit(dst, entries) for every indexed destination `prefix`
  // covers, in address order; `entries` are in watch order.
  template <typename Visit>
  void for_covered(const Prefix& prefix, Visit&& visit) const {
    for (auto it = by_dst_.lower_bound(prefix.first_address());
         it != by_dst_.end() && it->first <= prefix.last_address(); ++it) {
      visit(it->first, it->second);
    }
  }

  // Queues `entry` for the next close, once per window.
  void touch(Entry& entry) {
    if (entry.touched) return;
    entry.touched = true;
    touched_.push_back(&entry);
  }
  std::size_t touched_count() const { return touched_.size(); }
  // The entries touched since the last call, in touch order, with their
  // flags cleared.
  std::vector<Entry*> take_touched() {
    std::vector<Entry*> work;
    work.swap(touched_);
    for (Entry* entry : work) entry->touched = false;
    return work;
  }

  // Snapshot: the entries in id order, each as its id and its fields; then
  // the pair index, the destination index and the touched list as id lists.
  // Ids and index keys strictly ascend, and an index list naming no entry,
  // or filing one under another pair or destination, is kCorrupt.
  template <class Io, class Self>
  static void io(Io& io, Self& self) {
    io.ordered(self.entries_, "BGP entry ids");
    if constexpr (Io::kLoading) {
      for (auto& [id, entry] : self.entries_) entry.id = id;
    }
    auto ids = [&self](auto& io, auto& list) {
      BgpEntryIndex::ids(io, self, list);
    };
    io.ordered(self.by_pair_, "BGP entry pairs", ids);
    io.ordered(self.by_dst_, "BGP entry destinations", ids);
    ids(io, self.touched_);
    if constexpr (Io::kLoading) self.check_filing();
  }

  // A list of `self`'s entries as their ids, for a monitor's own lists.
  template <class Io, class Self, class List>
  static void ids(Io& io, Self& self, List& list) {
    potential_ids(io, list, [&self](PotentialId id) {
      auto it = self.entries_.find(id);
      return it == self.entries_.end() ? nullptr : &it->second;
    });
  }

 private:
  // unwatch() trusts every entry to be filed under its own pair and
  // destination.
  void check_filing() const {
    for (const auto& [pair, list] : by_pair_) {
      for (const Entry* entry : list) {
        if (entry->pair != pair) throw misfiled();
      }
    }
    for (const auto& [dst, list] : by_dst_) {
      for (const Entry* entry : list) {
        if (entry->pair.dst != dst) throw misfiled();
      }
    }
  }
  static store::StoreError misfiled() {
    return store::StoreError(store::StoreError::Kind::kCorrupt,
                             "BGP entry index files an entry elsewhere");
  }

  std::map<PotentialId, Entry> entries_;  // id order, stable addresses
  std::map<tr::PairKey, std::vector<Entry*>> by_pair_;
  std::map<Ipv4, std::vector<Entry*>> by_dst_;
  std::vector<Entry*> touched_;
};

}  // namespace rrr::signals
