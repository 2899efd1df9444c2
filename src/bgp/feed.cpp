#include "bgp/feed.h"

#include <algorithm>

namespace rrr::bgp {
namespace {

// Index of the first position where the crossing lists differ, or -1 when
// equal (used for duplicate-probability distance decay).
int first_crossing_diff(const std::vector<topo::InterconnectId>& a,
                        const std::vector<topo::InterconnectId>& b) {
  std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return static_cast<int>(i);
  }
  if (a.size() != b.size()) return static_cast<int>(n);
  return -1;
}

}  // namespace

FeedSimulator::FeedSimulator(ControlPlane& control_plane,
                             const FeedParams& params,
                             const std::vector<AsIndex>& candidate_ases,
                             const std::vector<AsIndex>& origins)
    : cp_(control_plane),
      params_(params),
      rng_(Rng(params.seed).fork(0xFEED)),
      origins_(origins) {
  const topo::Topology& topology = cp_.topology();
  int collector_round_robin = 0;
  for (AsIndex as : candidate_ases) {
    if (!rng_.bernoulli(params_.vp_as_fraction)) continue;
    VantagePoint vp;
    vp.id = static_cast<VpId>(vps_.size());
    vp.as_index = as;
    vp.asn = topology.as_at(as).asn;
    // Peer address: an infrastructure address of the host AS.
    vp.peer_ip = Ipv4(topo::as_infra_block(as).last_address().value() -
                      vp.id % 16);
    vp.collector = (collector_round_robin++ % 2 == 0)
                       ? "route-views" + std::to_string(vp.id % 6)
                       : "rrc" + std::to_string(vp.id % 10);
    vp.full_table = rng_.bernoulli(params_.full_table_fraction);
    vps_by_as_[as].push_back(vp.id);
    vps_.push_back(std::move(vp));
  }
  // Warm attribute caches: partial-table VPs only cover a subset of origins
  // (they announce customer/peer routes only; approximated by sampling).
  for (const VantagePoint& vp : vps_) {
    for (AsIndex origin : origins_) {
      if (!vp.full_table && rng_.bernoulli(0.6)) continue;
      Key key{vp.id, origin};
      routing::RouteAttributes attrs = cp_.attributes(vp.as_index, origin);
      reindex(key, routing::RouteAttributes{}, attrs);
      cache_.emplace(key, std::move(attrs));
    }
  }
}

const routing::RouteAttributes* FeedSimulator::cached_attributes(
    VpId vp, AsIndex origin) const {
  auto it = cache_.find(Key{vp, origin});
  return it == cache_.end() ? nullptr : &it->second;
}

void FeedSimulator::reindex(const Key& key,
                            const routing::RouteAttributes& old_attrs,
                            const routing::RouteAttributes& new_attrs) {
  const topo::Topology& topology = cp_.topology();
  for (topo::InterconnectId ic : old_attrs.crossings) {
    by_link_[topology.interconnect_at(ic).link].erase(key);
  }
  for (topo::InterconnectId ic : new_attrs.crossings) {
    by_link_[topology.interconnect_at(ic).link].insert(key);
  }
}

TimePoint FeedSimulator::jittered(TimePoint t) {
  auto jitter = static_cast<std::int64_t>(
      rng_.exponential(1.0 / params_.jitter_mean_seconds));
  return t + std::min(jitter, params_.jitter_cap_seconds);
}

void FeedSimulator::emit_route(std::vector<BgpRecord>& out,
                               const VantagePoint& vp, AsIndex origin,
                               const routing::RouteAttributes& attrs,
                               TimePoint t, RecordType type) {
  const topo::Topology& topology = cp_.topology();
  for (const Prefix& prefix : topology.as_at(origin).originated) {
    BgpRecord record;
    record.time = t;
    record.type = type;
    record.vp = vp.id;
    record.peer_asn = vp.asn;
    record.peer_ip = vp.peer_ip;
    record.collector = vp.collector;
    record.prefix = prefix;
    if (type != RecordType::kWithdrawal) {
      record.as_path = attrs.path;
      record.communities = attrs.communities;
    }
    out.push_back(std::move(record));
  }
}

std::vector<BgpRecord> FeedSimulator::initial_rib(TimePoint t) {
  std::vector<BgpRecord> out;
  for (const auto& [key, attrs] : cache_) {
    if (!attrs.reachable()) continue;
    emit_route(out, vps_[key.vp], key.origin, attrs, t,
               RecordType::kRibEntry);
  }
  return out;
}

std::vector<BgpRecord> FeedSimulator::on_event(
    const routing::Event& event, const ControlPlane::Impact& impact) {
  std::vector<BgpRecord> out;

  // Parrot noise: re-announce the cached route unchanged.
  if (event.kind == routing::EventKind::kParrotUpdate) {
    auto vps_it = vps_by_as_.find(event.as);
    if (vps_it != vps_by_as_.end()) {
      for (VpId vp : vps_it->second) {
        auto it = cache_.find(Key{vp, event.origin});
        if (it != cache_.end() && it->second.reachable()) {
          emit_route(out, vps_[vp], event.origin, it->second,
                     jittered(event.time), RecordType::kAnnouncement);
        }
      }
    }
    return out;
  }

  // Candidate (vp, origin) pairs whose view may have changed.
  std::set<Key> candidates;
  for (const auto& [viewer, origin] : impact.as_route_changes) {
    auto vps_it = vps_by_as_.find(viewer);
    if (vps_it == vps_by_as_.end()) continue;
    for (VpId vp : vps_it->second) candidates.insert(Key{vp, origin});
  }
  for (topo::LinkId link : impact.touched_links) {
    auto it = by_link_.find(link);
    if (it == by_link_.end()) continue;
    candidates.insert(it->second.begin(), it->second.end());
  }
  for (const auto& [as, origin] : impact.te_changes) {
    // Any cached route for `origin` whose path contains `as` may now carry
    // a different TE community.
    Asn asn = cp_.topology().as_at(as).asn;
    for (const auto& [key, attrs] : cache_) {
      if (key.origin == origin && contains(attrs.path, asn)) {
        candidates.insert(key);
      }
    }
  }

  for (const Key& key : candidates) {
    auto it = cache_.find(key);
    if (it == cache_.end()) continue;
    const routing::RouteAttributes old_attrs = it->second;
    routing::RouteAttributes new_attrs =
        cp_.attributes(vps_[key.vp].as_index, key.origin);

    if (new_attrs == old_attrs) {
      // Nothing visible changed, but if the event touched a link this VP's
      // route crosses, iBGP/MED churn may still leak a duplicate update.
      bool touches = false;
      for (topo::InterconnectId ic : old_attrs.crossings) {
        topo::LinkId l = cp_.topology().interconnect_at(ic).link;
        if (std::find(impact.touched_links.begin(),
                      impact.touched_links.end(),
                      l) != impact.touched_links.end()) {
          touches = true;
          break;
        }
      }
      if (touches && old_attrs.reachable() &&
          rng_.bernoulli(params_.duplicate_prob_untouched)) {
        emit_route(out, vps_[key.vp], key.origin, old_attrs,
                   jittered(event.time), RecordType::kAnnouncement);
      }
      continue;
    }

    if (!new_attrs.reachable()) {
      emit_route(out, vps_[key.vp], key.origin, new_attrs,
                 jittered(event.time), RecordType::kWithdrawal);
    } else if (new_attrs.path != old_attrs.path ||
               new_attrs.communities != old_attrs.communities) {
      // Visible attribute change: always announced.
      emit_route(out, vps_[key.vp], key.origin, new_attrs,
                 jittered(event.time), RecordType::kAnnouncement);
    } else {
      // Only the (invisible) crossings changed: duplicate update with
      // probability decaying in distance from the VP to the change site.
      int diff = first_crossing_diff(new_attrs.crossings,
                                     old_attrs.crossings);
      double p = params_.duplicate_prob_adjacent;
      for (int i = 0; i < diff; ++i) p *= params_.duplicate_decay;
      if (diff >= 0 && rng_.bernoulli(p)) {
        emit_route(out, vps_[key.vp], key.origin, new_attrs,
                   jittered(event.time), RecordType::kAnnouncement);
      }
    }

    reindex(key, old_attrs, new_attrs);
    it->second = std::move(new_attrs);
  }

  std::sort(out.begin(), out.end(),
            [](const BgpRecord& a, const BgpRecord& b) {
              return a.time < b.time;
            });
  return out;
}

}  // namespace rrr::bgp
