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
// that opens with `pair`. `touched` is the core's per-entry work-list flag:
// the field list leaves it out, and a load sets it from the touched list.
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
    file(stored);
    return stored;
  }

  // Drops every entry of `pair`, and the destination's list when this
  // empties it.
  void unwatch(const tr::PairKey& pair) {
    auto it = by_pair_.find(pair);
    if (it == by_pair_.end()) return;
    auto dst = by_dst_.find(pair.dst);
    for (Entry* entry : it->second) {
      std::erase(dst->second, entry);
      std::erase(touched_, entry);
      entries_.erase(entry->id);
    }
    if (dst->second.empty()) by_dst_.erase(dst);
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

  // Snapshot: the entries in id order, each as its id and its fields, then
  // the touched list as ids. Ids strictly ascend, and a touched list naming
  // no entry, or one entry twice, is kCorrupt. The load rebuilds the pair
  // and destination indexes in id order, which is watch order (add() takes
  // fresh, increasing ids), and sets the touched flags from the list.
  template <class Io, class Self>
  static void io(Io& io, Self& self) {
    io.ordered(self.entries_, "BGP entry ids");
    ids(io, self, self.touched_);
    if constexpr (Io::kLoading) {
      self.by_pair_.clear();
      self.by_dst_.clear();
      for (auto& [id, entry] : self.entries_) {
        entry.id = id;
        self.file(entry);
      }
      for (Entry* entry : self.touched_) {
        io.check(!entry->touched, "BGP touched list names an entry twice");
        entry->touched = true;
      }
    }
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
  // Indexes `entry` by pair and by destination, behind those already there.
  void file(Entry& entry) {
    by_pair_[entry.pair].push_back(&entry);
    by_dst_[entry.pair.dst].push_back(&entry);
  }

  std::map<PotentialId, Entry> entries_;  // id order, stable addresses
  std::map<tr::PairKey, std::vector<Entry*>> by_pair_;
  std::map<Ipv4, std::vector<Entry*>> by_dst_;
  std::vector<Entry*> touched_;
};

}  // namespace rrr::signals
