#include "signals/border_monitor.h"

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

void BorderMonitor::save_state(store::Encoder& enc) const {
  enc.u64(entries_.size());
  for (const auto& [key, routers] : entries_) {
    store::put(enc, key.as_m);
    enc.u16(key.c_m);
    store::put(enc, key.as_n);
    enc.u16(key.c_n);
    enc.u64(routers.size());
    for (const RouterSeries* rs : routers) {
      enc.u64(rs->id);
      enc.u64(rs->router.value);
      save_series(enc, *rs);
    }
  }
  save_index(enc);
}

void BorderMonitor::load_state(store::Decoder& dec) {
  auto corrupt = [](const char* what) {
    return store::StoreError(store::StoreError::Kind::kCorrupt, what);
  };
  routers_.clear();
  entries_.clear();
  clear();
  std::uint64_t entry_count = dec.u64();
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    CityPairKey key;
    key.as_m = store::get_asn(dec);
    key.c_m = dec.u16();
    key.as_n = store::get_asn(dec);
    key.c_n = dec.u16();
    if (!entries_.empty() && key <= entries_.rbegin()->first) {
      throw corrupt("border city pairs out of order or repeated");
    }
    std::vector<RouterSeries*>& routers = entries_[key];
    std::uint64_t router_count = dec.count(8 + 8);
    routers.reserve(router_count);
    for (std::uint64_t j = 0; j < router_count; ++j) {
      PotentialId id = dec.u64();
      RouterSeries& rs = routers_.emplace_back(zscore());
      rs.router = tracemap::RouterKey{dec.u64()};
      for (const RouterSeries* other : routers) {
        if (other->router == rs.router) {
          throw corrupt("border router repeated under one city pair");
        }
      }
      load_series(dec, id, rs);
      routers.push_back(&rs);
    }
  }
  load_index(dec);
}

}  // namespace rrr::signals
