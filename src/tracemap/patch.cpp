#include "tracemap/patch.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace rrr::tracemap {

void HopPatcher::learn(std::uint64_t ends, Ipv4 middle) {
  auto [slot, added] = pairs_.insert(Slot{ends, middle, kUnique});
  if (added) return;
  if (slot->ambiguous == kUnique) {
    if (slot->middle == middle) return;
    slot->ambiguous = static_cast<std::uint32_t>(ambiguous_.size());
    ambiguous_.push_back({std::min(slot->middle, middle),
                          std::max(slot->middle, middle)});
    return;
  }
  std::vector<Ipv4>& mids = ambiguous_[slot->ambiguous];
  auto it = std::lower_bound(mids.begin(), mids.end(), middle);
  if (it == mids.end() || *it != middle) mids.insert(it, middle);
}

void HopPatcher::observe(const tr::Traceroute& trace) {
  const auto& hops = trace.hops;
  for (std::size_t i = 1; i + 1 < hops.size(); ++i) {
    if (hops[i - 1].responded() && hops[i].responded() &&
        hops[i + 1].responded()) {
      learn(ends_key(*hops[i - 1].ip, *hops[i + 1].ip), *hops[i].ip);
    }
  }
}

std::optional<Ipv4> HopPatcher::unique_middle(Ipv4 prev, Ipv4 next) const {
  const Slot* slot = pairs_.find(ends_key(prev, next));
  if (slot == nullptr || slot->ambiguous != kUnique) return std::nullopt;
  return slot->middle;
}

std::vector<HopPatcher::Slot> HopPatcher::sorted_slots() const {
  std::vector<Slot> slots;
  slots.reserve(pairs_.size());
  pairs_.for_each([&slots](const Slot& slot) { slots.push_back(slot); });
  std::sort(slots.begin(), slots.end(),
            [](const Slot& a, const Slot& b) { return a.key < b.key; });
  return slots;
}

void HopPatcher::insert_loaded(std::vector<Slot>& slots, Ipv4 prev,
                               Ipv4 next, const std::vector<Ipv4>& middles) {
  auto corrupt = [](const char* what) {
    return store::StoreError(store::StoreError::Kind::kCorrupt, what);
  };
  const std::uint64_t key = slots.back().key = ends_key(prev, next);
  if (slots.size() > 1 && key <= slots[slots.size() - 2].key) {
    throw corrupt("patcher (prev, next) pairs out of order or repeated");
  }
  if (middles.empty()) throw corrupt("patcher pair with no middle hop");
  if (std::adjacent_find(middles.begin(), middles.end(),
                         std::greater_equal<>()) != middles.end()) {
    throw corrupt("patcher middle hops out of order or repeated");
  }
  // Learning the middles in ascending order rebuilds the pair as the store
  // held it.
  for (Ipv4 middle : middles) learn(key, middle);
}

}  // namespace rrr::tracemap
