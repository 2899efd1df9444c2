#include "signals/border_monitor.h"

#include <algorithm>

namespace rrr::signals {

std::optional<BorderMonitor::CityPairKey> BorderMonitor::key_of(
    const tracemap::BorderView& b) {
  if (!b.near_city || !b.far_city || *b.near_city == *b.far_city) {
    return std::nullopt;  // §4.2.2 requires c_m != c_n (and both located)
  }
  return CityPairKey{b.near_as, *b.near_city, b.far_as, *b.far_city};
}

void BorderMonitor::watch(const CorpusView& view, PotentialIndex& index) {
  const tracemap::ProcessedTrace& pt = view.processed;
  for (std::size_t b = 0; b < pt.borders.size(); ++b) {
    auto key = key_of(pt.borders[b]);
    if (!key) continue;
    std::vector<RouterSeries*>& routers = entries_[*key];
    RouterSeries* rs = nullptr;
    for (RouterSeries* candidate : routers) {
      if (candidate->router == pt.borders[b].border_router) {
        rs = candidate;
        break;
      }
    }
    if (rs == nullptr) {
      rs = &routers_.emplace_back(zscore());
      rs->router = pt.borders[b].border_router;
      open(*rs, index);
      routers.push_back(rs);
    }
    subscribe(*rs, view.key, b, index);
  }
}

void BorderMonitor::on_public_trace(const tracemap::ProcessedTrace& trace,
                                    std::int64_t window) {
  for (const tracemap::BorderView& border : trace.borders) {
    auto key = key_of(border);
    if (!key) continue;
    auto eit = entries_.find(*key);
    if (eit == entries_.end()) continue;
    for (RouterSeries* rs : eit->second) {
      observe(*rs, window, rs->router == border.border_router);
    }
  }
}

void BorderMonitor::register_loaded() {
  clear_series();
  for (const auto& [key, routers] : entries_) {
    for (auto it = routers.begin(); it != routers.end(); ++it) {
      if (std::find_if(routers.begin(), it, [&](const RouterSeries* other) {
            return other->router == (*it)->router;
          }) != it) {
        throw store::StoreError(store::StoreError::Kind::kCorrupt,
                                "border router repeated under one city pair");
      }
      register_series(**it);
    }
  }
}

}  // namespace rrr::signals
