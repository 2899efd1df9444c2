#include "signals/subpath_monitor.h"

#include <algorithm>

#include "netbase/rng.h"

namespace rrr::signals {

std::uint64_t SubpathMonitor::key_of(const std::vector<Ipv4>& ips) {
  std::uint64_t h = 0x5E69E7;
  for (Ipv4 ip : ips) h = hash_combine(h, ip.value());
  return h;
}

SubpathMonitor::Segment& SubpathMonitor::add_segment(std::vector<Ipv4> ips) {
  Segment& segment = segments_.emplace_back(zscore());
  segment.ip_overlap = static_cast<int>(ips.size());
  segment.ips = std::move(ips);
  by_key_.emplace(key_of(segment.ips), &segment);
  by_first_ip_[segment.ips.front()].push_back(&segment);
  return segment;
}

SubpathMonitor::Segment& SubpathMonitor::ensure_segment(
    const std::vector<Ipv4>& ips, PotentialIndex& index) {
  auto it = by_key_.find(key_of(ips));
  if (it != by_key_.end()) return *it->second;
  Segment& segment = add_segment(ips);
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
  // Position of a responding IP's first occurrence; a trace has a dozen
  // hops, so a scan beats building an index per trace.
  auto first_position = [&trace](Ipv4 ip) {
    for (std::size_t j = 0; j < trace.hops.size(); ++j) {
      if (trace.hops[j].responded() && *trace.hops[j].ip == ip) return j;
    }
    return trace.hops.size();
  };
  for (std::size_t i = 0; i < trace.hops.size(); ++i) {
    if (!trace.hops[i].responded()) continue;
    auto sit = by_first_ip_.find(*trace.hops[i].ip);
    if (sit == by_first_ip_.end()) continue;
    for (Segment* segment : sit->second) {
      // Intersect: the public trace goes from ι_m to ι_n.
      const std::size_t end = first_position(segment->ips.back());
      if (end == trace.hops.size() || end <= i) continue;
      // Match: the exact hop sequence is followed.
      bool match = true;
      if (i + segment->ips.size() <= trace.hops.size()) {
        for (std::size_t k = 0; k < segment->ips.size(); ++k) {
          const auto& hop = trace.hops[i + k];
          if (!hop.responded() || *hop.ip != segment->ips[k]) {
            match = false;
            break;
          }
        }
      } else {
        match = false;
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

void SubpathMonitor::save_state(store::Encoder& enc) const {
  enc.u64(segments_.size());
  for (const Segment& segment : segments_) {
    enc.u64(segment.id);
    enc.u64(segment.ips.size());
    for (Ipv4 ip : segment.ips) store::put(enc, ip);
    save_series(enc, segment);
  }
  save_index(enc);
  enc.u64(observations_);
}

void SubpathMonitor::load_state(store::Decoder& dec) {
  segments_.clear();
  by_key_.clear();
  by_first_ip_.clear();
  clear();
  std::uint64_t count = dec.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    PotentialId id = dec.u64();
    std::vector<Ipv4> ips;
    std::uint64_t ip_count = dec.count(4);
    if (ip_count < 2) {  // watch() opens segments of two hops or more
      throw store::StoreError(store::StoreError::Kind::kCorrupt,
                              "subpath segment has fewer than two hops");
    }
    ips.reserve(ip_count);
    for (std::uint64_t j = 0; j < ip_count; ++j) {
      ips.push_back(store::get_ipv4(dec));
    }
    load_series(dec, id, add_segment(std::move(ips)));
  }
  load_index(dec);
  observations_ = dec.u64();
}

}  // namespace rrr::signals
