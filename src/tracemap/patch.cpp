#include "tracemap/patch.h"

#include <algorithm>
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

void HopPatcher::save_state(store::Encoder& enc) const {
  std::vector<const Slot*> entries;
  entries.reserve(pairs_.size());
  pairs_.for_each([&entries](const Slot& slot) { entries.push_back(&slot); });
  std::sort(entries.begin(), entries.end(),
            [](const Slot* a, const Slot* b) { return a->key < b->key; });
  enc.u64(entries.size());
  for (const Slot* slot : entries) {
    store::put(enc, Ipv4(static_cast<std::uint32_t>(slot->key >> 32)));
    store::put(enc, Ipv4(static_cast<std::uint32_t>(slot->key)));
    if (slot->ambiguous == kUnique) {
      enc.u64(1);
      store::put(enc, slot->middle);
      continue;
    }
    const std::vector<Ipv4>& mids = ambiguous_[slot->ambiguous];
    enc.u64(mids.size());
    for (Ipv4 mid : mids) store::put(enc, mid);
  }
}

void HopPatcher::load_state(store::Decoder& dec) {
  auto corrupt = [](const char* what) {
    return store::StoreError(store::StoreError::Kind::kCorrupt, what);
  };
  HopPatcher loaded;
  // Each entry holds its two ends, a count and at least one middle.
  const std::uint64_t n = dec.count(4 + 4 + 8 + 4);
  loaded.pairs_.reserve(n);
  std::uint64_t last_key = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Ipv4 prev = store::get_ipv4(dec);
    const Ipv4 next = store::get_ipv4(dec);
    const std::uint64_t key = ends_key(prev, next);
    if (i > 0 && key <= last_key) {
      throw corrupt("patcher (prev, next) pairs out of order or repeated");
    }
    last_key = key;
    const std::uint64_t m = dec.count(4);
    if (m == 0) throw corrupt("patcher pair with no middle hop");
    std::vector<Ipv4> mids;
    mids.reserve(m);
    for (std::uint64_t j = 0; j < m; ++j) {
      const Ipv4 mid = store::get_ipv4(dec);
      if (!mids.empty() && mid <= mids.back()) {
        throw corrupt("patcher middle hops out of order or repeated");
      }
      mids.push_back(mid);
    }
    Slot slot{key, mids.front(), kUnique};
    if (m > 1) {
      slot.ambiguous = static_cast<std::uint32_t>(loaded.ambiguous_.size());
      loaded.ambiguous_.push_back(std::move(mids));
    }
    loaded.pairs_.insert(slot);
  }
  *this = std::move(loaded);
}

}  // namespace rrr::tracemap
