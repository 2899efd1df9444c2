#include "signals/subpath_monitor.h"

#include <algorithm>

#include "netbase/rng.h"

namespace rrr::signals {

std::uint64_t SubpathMonitor::key_of(const std::vector<Ipv4>& ips) {
  std::uint64_t h = 0x5E69E7;
  for (Ipv4 ip : ips) h = hash_combine(h, ip.value());
  return h;
}

bool SubpathMonitor::index_segment(std::uint32_t position) {
  Segment& segment = segments_[position];
  if (!by_key_.insert(IndexSlot{key_of(segment.ips), position}).second) {
    return false;
  }
  segment.ip_overlap = static_cast<int>(segment.ips.size());
  auto [list, added] = by_first_ip_.insert(IndexSlot{
      segment.ips.front().value(),
      static_cast<std::uint32_t>(first_ip_lists_.size())});
  if (added) first_ip_lists_.emplace_back();
  first_ip_lists_[list->value].push_back(&segment);
  return true;
}

void SubpathMonitor::index_loaded() {
  auto corrupt = [](const char* what) {
    return store::StoreError(store::StoreError::Kind::kCorrupt, what);
  };
  by_key_ = FlatIndex();
  by_first_ip_ = FlatIndex();
  first_ip_lists_.clear();
  clear_series();
  for (std::uint32_t i = 0; i < segments_.size(); ++i) {
    Segment& segment = segments_[i];
    if (i > 0 && segment.id <= segments_[i - 1].id) {
      throw corrupt("subpath segment ids out of order or repeated");
    }
    if (segment.ips.size() < 2) {  // watch() opens segments of two hops+
      throw corrupt("subpath segment has fewer than two hops");
    }
    if (!index_segment(i)) throw corrupt("two subpath segments share IPs");
    register_series(segment);
  }
}

SubpathMonitor::Segment& SubpathMonitor::ensure_segment(
    const std::vector<Ipv4>& ips, PotentialIndex& index) {
  const std::uint32_t known = lookup(by_key_, key_of(ips));
  if (known != IndexSlot::kNone) return segments_[known];
  Segment& segment = segments_.emplace_back(zscore());
  segment.ips = ips;
  index_segment(static_cast<std::uint32_t>(segments_.size() - 1));
  open(segment, index);
  return segment;
}

void SubpathMonitor::watch(const CorpusView& view, PotentialIndex& index) {
  const tracemap::ProcessedTrace& pt = view.processed;
  for (std::size_t b = 0; b < pt.borders.size(); ++b) {
    // The monitored segment must *span* the border it watches with
    // endpoints that survive a change of that border: when the crossing
    // moves, traceroutes still flow between the endpoints (T_intersect
    // holds) but no longer follow the exact hops (T_match drops), which is
    // what the ratio detector needs. A segment whose endpoints die with
    // the crossing only ever produces missing windows.
    std::size_t begin =
        b > 0 ? pt.borders[b - 1].far_index
              : (pt.borders[b].near_index > 0 ? pt.borders[b].near_index - 1
                                              : pt.borders[b].near_index);
    std::size_t end = b + 1 < pt.borders.size()
                          ? pt.borders[b + 1].near_index
                          : std::min(pt.borders[b].far_index + kFlankHops,
                                     pt.hops.size() - 1);
    if (end <= begin) continue;
    std::vector<Ipv4> ips;
    bool usable = true;
    for (std::size_t i = begin; i <= end; ++i) {
      if (!pt.hops[i].responded()) {
        usable = false;
        break;
      }
      ips.push_back(*pt.hops[i].ip);
    }
    if (!usable || ips.size() < 2) continue;
    subscribe(ensure_segment(ips, index), view.key, b, index);
  }
}

void SubpathMonitor::on_public_trace(const tracemap::ProcessedTrace& trace,
                                     std::int64_t window) {
  // One word per hop, so the scans below read 8 bytes a hop instead of a
  // whole ProcessedHop.
  hop_keys_.clear();
  for (const tracemap::ProcessedHop& hop : trace.hops) {
    hop_keys_.push_back(hop.responded() ? hop.ip->value() : kStar);
  }
  const std::size_t n = hop_keys_.size();
  const std::uint64_t* keys = hop_keys_.data();
  // Position of an IP's first occurrence; a trace has a dozen hops, so a
  // scan beats building an index per trace.
  auto first_position = [keys, n](Ipv4 ip) {
    return static_cast<std::size_t>(std::find(keys, keys + n, ip.value()) -
                                    keys);
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (keys[i] == kStar) continue;
    const std::uint32_t list = lookup(by_first_ip_, keys[i]);
    if (list == IndexSlot::kNone) continue;
    for (Segment* segment : first_ip_lists_[list]) {
      // Intersect: the public trace goes from ι_m to ι_n.
      const std::size_t end = first_position(segment->ips.back());
      if (end == n || end <= i) continue;
      // Match: the exact hop sequence is followed.
      const std::vector<Ipv4>& ips = segment->ips;
      bool match = i + ips.size() <= n;
      for (std::size_t k = 0; match && k < ips.size(); ++k) {
        match = keys[i + k] == ips[k].value();
      }
      observe(*segment, window, match);
      ++observations_;
    }
  }
}

SubpathMonitor::Stats SubpathMonitor::stats() const {
  Stats stats;
  stats.segments = segments_.size();
  double mult_sum = 0.0;
  for (const Segment& segment : segments_) {
    if (segment.ratio.armed()) ++stats.armed;
    if (segment.ratio.dormant()) ++stats.dormant;
    if (!segment.subscribers.empty()) ++stats.subscribed;
    mult_sum += static_cast<double>(segment.ratio.multiplier());
  }
  if (!segments_.empty()) {
    stats.mean_multiplier = mult_sum / static_cast<double>(segments_.size());
  }
  stats.observations = observations_;
  return stats;
}

std::vector<SubpathMonitor::SegmentInfo> SubpathMonitor::segments_for(
    const tr::PairKey& pair) const {
  std::vector<SegmentInfo> out;
  for (const Series* series : series_of(pair)) {
    const auto& segment = static_cast<const Segment&>(*series);
    SegmentInfo info;
    for (const Subscriber& sub : segment.subscribers) {
      if (sub.pair == pair) {
        info.border_index = sub.border;
        break;
      }
    }
    info.length = segment.ips.size();
    info.armed = segment.ratio.armed();
    info.dormant = segment.ratio.dormant();
    info.multiplier = segment.ratio.multiplier();
    info.has_ratio = segment.ratio.has_ratio();
    info.last_ratio = segment.ratio.last_ratio();
    out.push_back(info);
  }
  return out;
}

}  // namespace rrr::signals
