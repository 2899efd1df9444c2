#include "routing/control_plane.h"

#include <algorithm>

namespace rrr::routing {
namespace {

int base_pref(topo::NeighborKind kind) {
  switch (kind) {
    case topo::NeighborKind::kCustomer:
      return 300;
    case topo::NeighborKind::kPeer:
      return 200;
    case topo::NeighborKind::kProvider:
      return 100;
  }
  return 0;
}

}  // namespace

ControlPlane::ControlPlane(topo::Topology& topology, std::uint64_t seed)
    : topology_(topology),
      state_(topology),
      resolver_(topology, state_, *this),
      rng_(Rng(seed).fork(0xC0117)) {}

const RouteTable& ControlPlane::table_for(AsIndex origin) {
  return cached(origin).table;
}

ControlPlane::CachedTable& ControlPlane::cached(AsIndex origin) {
  if (origin >= tables_.size()) tables_.resize(origin + 1);
  std::unique_ptr<CachedTable>& entry = tables_[origin];
  if (entry == nullptr) {
    entry = std::make_unique<CachedTable>();
    entry->table = compute_routes(topology_, state_, origin);
    entry->used = used_links(entry->table);
  }
  return *entry;
}

RouteAttributes ControlPlane::attributes(AsIndex vp_as, AsIndex origin) {
  RouteAttributes attrs;
  // Canonical control-plane view: the path the VP AS's primary PoP uses,
  // with flow id 0 (deterministic across calls).
  Ipv4 target = topology_.as_at(origin).originated.front().network();
  ForwardPath fwd = resolver_.resolve(
      vp_as, topology_.as_at(vp_as).pops.front(), target, /*flow_id=*/0,
      /*with_ip_hops=*/false);
  if (!fwd.reachable) return attrs;

  attrs.path.reserve(fwd.as_path.size());
  for (AsIndex as : fwd.as_path) attrs.path.push_back(topology_.as_at(as).asn);
  attrs.crossings.reserve(fwd.crossings.size());
  for (const BorderCrossing& c : fwd.crossings) {
    attrs.crossings.push_back(c.interconnect);
  }

  // Communities: AS i on the path (i = 0 at the VP) adds its geo community
  // where it learns the route; an AS that strips received communities
  // removes everything added farther along the path, but keeps its own
  // additions.
  //
  // The tagged location is the AS's *canonical* exit toward the next hop:
  // BGP selects one best route per prefix at the border and iBGP
  // distributes that route (with its communities) AS-wide, so every
  // external observer sees the same tag regardless of where their own
  // traffic would enter the AS.
  //
  // Walk from the origin side toward the VP maintaining the surviving set.
  CommunitySet surviving;
  for (std::size_t i = fwd.as_path.size(); i-- > 0;) {
    AsIndex as = fwd.as_path[i];
    const topo::AsNode& node = topology_.as_at(as);
    if (i < fwd.as_path.size() - 1) {
      // This AS re-exports the route toward the VP; if it strips, received
      // communities vanish before its own are added.
      if (node.strips_communities) surviving.clear();
    }
    if (i + 1 < fwd.as_path.size()) {
      if (node.adds_geo_communities) {
        topo::InterconnectId canonical = resolver_.egress_choice(
            as, fwd.as_path[i + 1], node.pops.front(), /*flow_id=*/0);
        if (canonical != topo::kNoInterconnect) {
          surviving.insert(topology_.geo_community(
              as, topology_.interconnect_at(canonical).city));
        }
      }
    }
    std::uint16_t te = state_.te_community_value(as, origin);
    if (te != 0) {
      surviving.insert(Community(
          node.asn,
          static_cast<std::uint16_t>(topo::kTeCommunityBase + te)));
    }
  }
  attrs.communities = std::move(surviving);
  return attrs;
}

std::vector<AsIndex> ControlPlane::origins_using_link(
    topo::LinkId link) const {
  std::vector<AsIndex> origins;
  for (AsIndex origin = 0; origin < tables_.size(); ++origin) {
    const CachedTable* entry = tables_[origin].get();
    if (entry != nullptr &&
        std::binary_search(entry->used.begin(), entry->used.end(), link)) {
      origins.push_back(origin);
    }
  }
  return origins;
}

std::vector<AsIndex> ControlPlane::cached_origins() const {
  std::vector<AsIndex> origins;
  for (AsIndex origin = 0; origin < tables_.size(); ++origin) {
    if (tables_[origin] != nullptr) origins.push_back(origin);
  }
  return origins;
}

void ControlPlane::recompute_origin(AsIndex origin, Impact& impact) {
  if (origin >= tables_.size() || tables_[origin] == nullptr) {
    return;  // not monitored; stays lazy
  }
  CachedTable& entry = *tables_[origin];
  RouteTable fresh = compute_routes(topology_, state_, origin);
  const RouteTable& old = entry.table;
  for (AsIndex viewer = 0; viewer < fresh.routes.size(); ++viewer) {
    // Only viewer count of the old table is comparable after topology
    // growth; new ASes have no old route.
    bool changed =
        viewer < old.routes.size()
            ? fresh.routes[viewer].path != old.routes[viewer].path
            : fresh.routes[viewer].reachable();
    if (changed) impact.as_route_changes.emplace_back(viewer, origin);
  }
  entry.used = used_links(fresh);
  entry.table = std::move(fresh);
  impact.recomputed_origins.push_back(origin);
}

bool ControlPlane::endpoint_improvement_possible(
    topo::LinkId link, const RouteTable& table) const {
  const topo::AsLink& l = topology_.link_at(link);
  // Check both directions: could endpoint X switch to a route via `link`?
  for (int dir = 0; dir < 2; ++dir) {
    AsIndex viewer = dir == 0 ? l.a : l.b;
    AsIndex neighbor = dir == 0 ? l.b : l.a;
    if (viewer == table.origin) continue;
    const Route& supplier = table.routes[neighbor];
    if (!supplier.reachable()) continue;
    // Export rule as in compute_routes.
    topo::NeighborKind viewer_sees = topo::NeighborKind::kPeer;
    for (const topo::Neighbor& nb : topology_.neighbors(viewer)) {
      if (nb.link == link) {
        viewer_sees = nb.kind;
        break;
      }
    }
    bool exported =
        neighbor == table.origin ||
        supplier.learned_from == topo::NeighborKind::kCustomer ||
        viewer_sees == topo::NeighborKind::kProvider;
    if (!exported) continue;
    if (contains(supplier.path, topology_.as_at(viewer).asn)) continue;

    int cand_pref =
        base_pref(viewer_sees) +
        (state_.preferred_link(viewer, table.origin) == link ? 50 : 0);
    std::size_t cand_len = supplier.path.size() + 1;
    const Route& incumbent = table.routes[viewer];
    if (!incumbent.reachable()) return true;
    // Incumbent metrics.
    topo::NeighborKind inc_kind = incumbent.learned_from;
    int inc_pref =
        base_pref(inc_kind) +
        (state_.preferred_link(viewer, table.origin) == incumbent.via_link
             ? 50
             : 0);
    if (cand_pref > inc_pref) return true;
    if (cand_pref == inc_pref) {
      if (cand_len < incumbent.path.size()) return true;
      if (cand_len == incumbent.path.size()) {
        // ASN / link-id tie-breaks could flip the choice; treat ties as
        // potentially affected (cheap false positives, never misses).
        return true;
      }
    }
  }
  return false;
}

ControlPlane::Impact ControlPlane::apply(const Event& event) {
  Impact impact;
  switch (event.kind) {
    case EventKind::kInterconnectDown: {
      bool was_usable = state_.adjacency_usable(topology_, event.link);
      state_.set_interconnect_active(event.interconnect, false);
      bool still_usable = state_.adjacency_usable(topology_, event.link);
      impact.touched_links.push_back(event.link);
      if (was_usable && !still_usable) {
        for (AsIndex origin : origins_using_link(event.link)) {
          recompute_origin(origin, impact);
        }
      }
      break;
    }
    case EventKind::kInterconnectUp: {
      bool was_usable = state_.adjacency_usable(topology_, event.link);
      state_.set_interconnect_active(event.interconnect, true);
      impact.touched_links.push_back(event.link);
      if (!was_usable) {
        for (AsIndex origin : cached_origins()) {
          if (endpoint_improvement_possible(event.link,
                                            cached(origin).table)) {
            recompute_origin(origin, impact);
          }
        }
      }
      break;
    }
    case EventKind::kEgressWeightSet: {
      state_.set_egress_weight(event.interconnect, event.weight);
      impact.touched_links.push_back(event.link);
      break;
    }
    case EventKind::kAdjacencyDown: {
      state_.set_adjacency_enabled(event.link, false);
      for (AsIndex origin : origins_using_link(event.link)) {
        recompute_origin(origin, impact);
      }
      break;
    }
    case EventKind::kAdjacencyUp: {
      state_.set_adjacency_enabled(event.link, true);
      for (AsIndex origin : cached_origins()) {
        if (endpoint_improvement_possible(event.link,
                                          cached(origin).table)) {
          recompute_origin(origin, impact);
        }
      }
      break;
    }
    case EventKind::kPreferredLinkSet: {
      state_.set_preferred_link(event.as, event.origin, event.link);
      recompute_origin(event.origin, impact);
      break;
    }
    case EventKind::kPreferredLinkClear: {
      state_.clear_preferred_link(event.as, event.origin);
      recompute_origin(event.origin, impact);
      break;
    }
    case EventKind::kTeCommunitySet: {
      state_.set_te_community_value(event.as, event.origin, event.value);
      impact.te_changes.emplace_back(event.as, event.origin);
      break;
    }
    case EventKind::kParrotUpdate: {
      // Pure feed-level noise; the BGP feed reads the event directly.
      break;
    }
    case EventKind::kIxpJoin: {
      impact.new_links =
          topo::ixp_join(topology_, event.ixp, event.as,
                         /*peer_prob=*/0.35, /*max_new_peers=*/5, rng_);
      state_.sync_sizes(topology_);
      for (topo::LinkId link : impact.new_links) {
        impact.touched_links.push_back(link);
        for (AsIndex origin : cached_origins()) {
          if (endpoint_improvement_possible(link, cached(origin).table)) {
            recompute_origin(origin, impact);
          }
        }
      }
      break;
    }
  }
  // Deduplicate (an origin can be recomputed once per new link above).
  auto& ro = impact.recomputed_origins;
  std::sort(ro.begin(), ro.end());
  ro.erase(std::unique(ro.begin(), ro.end()), ro.end());
  auto& rc = impact.as_route_changes;
  std::sort(rc.begin(), rc.end());
  rc.erase(std::unique(rc.begin(), rc.end()), rc.end());
  return impact;
}

}  // namespace rrr::routing
