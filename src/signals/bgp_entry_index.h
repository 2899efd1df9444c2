// The BGP-entry core shared by the AS-path (§4.1.2), community (§4.1.3) and
// burst (§4.1.4) monitors. Each keeps one potential signal per (corpus
// traceroute τ_d, AS on τ_d) and routes every update to the entries whose
// destination its prefix covers. This class owns that step: the id-ordered
// entry store, the pair and destination indexes and the prefix-cover walk,
// the per-window touched list, unwatch, and the id, pair and index parts of
// the snapshot. A monitor keeps only its Entry payload, its watch-time
// matching, its per-record test and its close.
//
// Entry must be movable and carry `PotentialId id`, `tr::PairKey pair`,
// `std::size_t border_index` and `bool touched` members; `touched` is the
// core's per-entry work-list flag, which the monitor serializes in its
// payload.
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

  // Snapshot: the entry count, then per entry (in id order) its id, its
  // pair and put_payload(enc, entry); then the pair index, the destination
  // index and the touched list as id lists.
  template <typename PutPayload>
  void save_state(store::Encoder& enc, PutPayload&& put_payload) const {
    enc.u64(entries_.size());
    for (const auto& [id, entry] : entries_) {
      enc.u64(id);
      put_pair(enc, entry.pair);
      put_payload(enc, entry);
    }
    enc.u64(by_pair_.size());
    for (const auto& [pair, list] : by_pair_) {
      put_pair(enc, pair);
      put_ids(enc, list);
    }
    enc.u64(by_dst_.size());
    for (const auto& [dst, list] : by_dst_) {
      store::put(enc, dst);
      put_ids(enc, list);
    }
    put_ids(enc, touched_);
  }
  // Reads what save_state wrote; get_payload(dec) returns an entry read
  // from its payload, whose id and pair are then set from the stream. An
  // id stored twice, or an index list naming an id no entry has, is
  // StoreError kCorrupt.
  template <typename GetPayload>
  void load_state(store::Decoder& dec, GetPayload&& get_payload) {
    entries_.clear();
    by_pair_.clear();
    by_dst_.clear();
    touched_.clear();
    // An entry holds at least its id and pair.
    std::uint64_t count = dec.count(8 + 8);
    for (std::uint64_t i = 0; i < count; ++i) {
      PotentialId id = dec.u64();
      tr::PairKey pair = get_pair(dec);
      Entry entry = get_payload(dec);
      entry.id = id;
      entry.pair = pair;
      if (!entries_.emplace(id, std::move(entry)).second) {
        throw store::StoreError(
            store::StoreError::Kind::kCorrupt,
            "BGP entry store holds potential " + std::to_string(id) +
                " twice");
      }
    }
    // unwatch() trusts every entry to be filed under its own pair and
    // destination.
    auto misfiled = [] {
      return store::StoreError(store::StoreError::Kind::kCorrupt,
                               "BGP entry index files an entry elsewhere");
    };
    std::uint64_t pair_count = dec.count(8 + 8);
    for (std::uint64_t i = 0; i < pair_count; ++i) {
      tr::PairKey pair = get_pair(dec);
      std::vector<Entry*>& list = by_pair_[pair] = get_ids(dec);
      for (const Entry* entry : list) {
        if (entry->pair != pair) throw misfiled();
      }
    }
    std::uint64_t dst_count = dec.count(4 + 8);
    for (std::uint64_t i = 0; i < dst_count; ++i) {
      Ipv4 dst = store::get_ipv4(dec);
      std::vector<Entry*>& list = by_dst_[dst] = get_ids(dec);
      for (const Entry* entry : list) {
        if (entry->pair.dst != dst) throw misfiled();
      }
    }
    touched_ = get_ids(dec);
  }

  // The id-list codec of the indexes, for a monitor's own entry lists.
  void put_ids(store::Encoder& enc, const std::vector<Entry*>& list) const {
    enc.u64(list.size());
    for (const Entry* entry : list) enc.u64(entry->id);
  }
  std::vector<Entry*> get_ids(store::Decoder& dec) {
    std::vector<Entry*> list;
    std::uint64_t n = dec.count(8);
    list.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      PotentialId id = dec.u64();
      auto it = entries_.find(id);
      if (it == entries_.end()) {
        throw store::StoreError(
            store::StoreError::Kind::kCorrupt,
            "BGP entry index names unknown potential " + std::to_string(id));
      }
      list.push_back(&it->second);
    }
    return list;
  }

 private:
  std::map<PotentialId, Entry> entries_;  // id order, stable addresses
  std::map<tr::PairKey, std::vector<Entry*>> by_pair_;
  std::map<Ipv4, std::vector<Entry*>> by_dst_;
  std::vector<Entry*> touched_;
};

}  // namespace rrr::signals
