#include "routing/forwarding.h"

#include <algorithm>
#include <limits>

#include "netbase/rng.h"
#include "routing/control_plane.h"
#include "topology/city.h"

namespace rrr::routing {

InterconnectId ForwardingResolver::egress_choice(AsIndex from_as,
                                                 AsIndex to_as,
                                                 CityId ingress_city,
                                                 std::uint64_t flow_id) const {
  LinkId link = topology_.link_between(from_as, to_as);
  if (link == topo::kNoLink) return topo::kNoInterconnect;

  // Egress selection: static per-interconnect preference dominates, with a
  // damped hot-potato distance term as tie-break — real ASes converge on a
  // consistent exit per neighbor, with ingress-dependent early exit only
  // among equally-preferred interconnects (§4.2.2's consistency argument).
  constexpr double kHotPotatoScale = 0.15;
  InterconnectId best = topo::kNoInterconnect;
  double best_cost = std::numeric_limits<double>::infinity();
  for (InterconnectId ic_id : topology_.link_interconnects(link)) {
    if (!state_.interconnect_active(ic_id)) continue;
    const topo::Interconnect& ic = topology_.interconnect_at(ic_id);
    double cost =
        kHotPotatoScale * topo::city_distance_km(ingress_city, ic.city) +
        ic.base_weight + state_.egress_weight(ic_id);
    if (cost < best_cost || (cost == best_cost && ic_id < best)) {
      best_cost = cost;
      best = ic_id;
    }
  }
  if (best == topo::kNoInterconnect) return best;

  // ECMP interconnect group: flows hash uniformly across the group's active
  // members instead of the pure hot-potato winner (interdomain diamonds).
  // The flow takes the (h mod k)-th of the k members, in link order.
  const int group = topology_.interconnect_at(best).ecmp_group;
  if (group >= 0) {
    auto member = [&](InterconnectId ic_id) {
      return state_.interconnect_active(ic_id) &&
             topology_.interconnect_at(ic_id).ecmp_group == group;
    };
    const auto interconnects = topology_.link_interconnects(link);
    const auto members = static_cast<std::uint64_t>(
        std::count_if(interconnects.begin(), interconnects.end(), member));
    if (members >= 2) {
      std::uint64_t skip =
          hash_combine(flow_id, 0x1C0000ull + link) % members;
      for (InterconnectId ic_id : interconnects) {
        if (member(ic_id) && skip-- == 0) return ic_id;
      }
    }
  }
  return best;
}

void ForwardingResolver::emit_internal_hop(ForwardPath& path, AsIndex as,
                                           CityId city,
                                           std::uint64_t flow_id) const {
  auto routers = topology_.internal_routers(as, city);
  if (routers.empty()) return;  // AS colocates there with border gear only
  std::uint64_t h = hash_combine(flow_id, hash_combine(as, city));
  RouterId r = routers[h % routers.size()];
  const topo::Router& router = topology_.router_at(r);
  if (router.interfaces.empty()) return;
  path.hops.push_back(router.interfaces.front());
  path.hop_routers.push_back(r);
}

void ForwardingResolver::emit_border_hops(ForwardPath& path,
                                          const topo::Interconnect& ic,
                                          bool forward) const {
  // The near-side border router replies with its internal-facing interface
  // (its first-attached address); the far side replies with its ingress
  // interface on the interconnect medium (an IXP LAN address for IXP
  // crossings).
  RouterId near = forward ? ic.router_a : ic.router_b;
  const topo::Router& near_router = topology_.router_at(near);
  if (!near_router.interfaces.empty()) {
    path.hops.push_back(near_router.interfaces.front());
    path.hop_routers.push_back(near);
  }
  RouterId far = forward ? ic.router_b : ic.router_a;
  path.hops.push_back(forward ? ic.ip_b : ic.ip_a);
  path.hop_routers.push_back(far);
}

ForwardPath ForwardingResolver::resolve(AsIndex src_as, CityId src_city,
                                        Ipv4 dst_ip, std::uint64_t flow_id,
                                        bool with_ip_hops) const {
  ForwardPath path;
  resolve(src_as, src_city, dst_ip, flow_id, with_ip_hops, path);
  return path;
}

void ForwardingResolver::resolve(AsIndex src_as, CityId src_city,
                                 Ipv4 dst_ip, std::uint64_t flow_id,
                                 bool with_ip_hops, ForwardPath& path) const {
  path.clear();
  AsIndex dst_as = topology_.announced_owner_of(dst_ip);
  if (dst_as == topo::kNoAs) return;

  const RouteTable& table = routes_.table_for(dst_as);
  const Route& route = table.at(src_as);
  if (!route.reachable()) return;

  // Translate the ASN path into dense indices. Each AS shows at most three
  // hops: where the path enters it, an internal router in the city it
  // leaves from, and its near-side border router (for the last AS, the
  // destination host).
  path.as_path.reserve(route.path.size());
  path.crossings.reserve(route.path.size());
  if (with_ip_hops) {
    path.hops.reserve(3 * route.path.size());
    path.hop_routers.reserve(3 * route.path.size());
  }
  for (Asn asn : route.path) {
    AsIndex idx = topology_.index_of(asn);
    if (idx == topo::kNoAs) return;  // should not happen
    path.as_path.push_back(idx);
  }

  CityId current_city = src_city;
  for (std::size_t i = 0; i + 1 < path.as_path.size(); ++i) {
    AsIndex from = path.as_path[i];
    AsIndex to = path.as_path[i + 1];
    InterconnectId ic_id = egress_choice(from, to, current_city, flow_id);
    if (ic_id == topo::kNoInterconnect) {  // partitioned
      path.clear();
      return;
    }
    const topo::Interconnect& ic = topology_.interconnect_at(ic_id);
    bool forward = topology_.link_at(ic.link).a == from;
    if (with_ip_hops) {
      // Intra-AS travel inside `from`: a hop at the entry city and, when the
      // egress is elsewhere, a hop at the egress city.
      if (i == 0) emit_internal_hop(path, from, current_city, flow_id);
      if (ic.city != current_city) {
        emit_internal_hop(path, from, ic.city, flow_id);
      }
      emit_border_hops(path, ic, forward);
    }
    path.crossings.push_back(BorderCrossing{.interconnect = ic_id,
                                            .forward = forward,
                                            .from_as = from,
                                            .to_as = to,
                                            .city = ic.city});
    current_city = ic.city;
  }

  if (with_ip_hops) {
    AsIndex final_as = path.as_path.back();
    CityId dst_city = host_city(dst_as);
    if (path.as_path.size() == 1) {
      emit_internal_hop(path, final_as, current_city, flow_id);
    }
    if (dst_city != current_city) {
      emit_internal_hop(path, final_as, dst_city, flow_id);
    }
    path.hops.push_back(dst_ip);
    path.hop_routers.push_back(topo::kNoRouter);
  }
  path.reachable = true;
}

}  // namespace rrr::routing
