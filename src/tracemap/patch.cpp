#include "tracemap/patch.h"

#include <algorithm>
#include <utility>

namespace rrr::tracemap {

void HopPatcher::observe(const tr::Traceroute& trace) {
  const auto& hops = trace.hops;
  for (std::size_t i = 1; i + 1 < hops.size(); ++i) {
    if (hops[i - 1].responded() && hops[i].responded() &&
        hops[i + 1].responded()) {
      std::vector<Ipv4>& mids =
          middles_[ends_key(*hops[i - 1].ip, *hops[i + 1].ip)];
      const Ipv4 mid = *hops[i].ip;
      auto at = std::lower_bound(mids.begin(), mids.end(), mid);
      if (at == mids.end() || *at != mid) mids.insert(at, mid);
    }
  }
}

std::optional<Ipv4> HopPatcher::unique_middle(Ipv4 prev, Ipv4 next) const {
  auto it = middles_.find(ends_key(prev, next));
  if (it == middles_.end() || it->second.size() != 1) return std::nullopt;
  return it->second.front();
}

tr::Traceroute HopPatcher::patch(const tr::Traceroute& trace) const {
  tr::Traceroute patched = trace;
  auto& hops = patched.hops;
  for (std::size_t i = 1; i + 1 < hops.size(); ++i) {
    if (!hops[i].responded() && hops[i - 1].responded() &&
        hops[i + 1].responded()) {
      if (auto middle = unique_middle(*hops[i - 1].ip, *hops[i + 1].ip)) {
        hops[i].ip = middle;
        // Interpolated latency: midway between the neighbors.
        hops[i].rtt_ms = (hops[i - 1].rtt_ms + hops[i + 1].rtt_ms) / 2.0;
      }
    }
  }
  return patched;
}

void HopPatcher::save_state(store::Encoder& enc) const {
  std::vector<const decltype(middles_)::value_type*> entries;
  entries.reserve(middles_.size());
  for (const auto& entry : middles_) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  enc.u64(entries.size());
  for (const auto* entry : entries) {
    store::put(enc, Ipv4(static_cast<std::uint32_t>(entry->first >> 32)));
    store::put(enc, Ipv4(static_cast<std::uint32_t>(entry->first)));
    enc.u64(entry->second.size());
    for (Ipv4 mid : entry->second) store::put(enc, mid);
  }
}

void HopPatcher::load_state(store::Decoder& dec) {
  auto corrupt = [](const char* what) {
    return store::StoreError(store::StoreError::Kind::kCorrupt, what);
  };
  decltype(middles_) middles;
  // Each entry holds its two ends, a count and at least one middle.
  const std::uint64_t n = dec.count(4 + 4 + 8 + 4);
  middles.reserve(n);
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
    middles.emplace(key, std::move(mids));
  }
  middles_ = std::move(middles);
}

}  // namespace rrr::tracemap
