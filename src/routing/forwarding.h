// Data-plane path resolution over the simulated topology.
//
// Given a source (AS, city), a destination IP, and a flow identifier, the
// resolver walks the control-plane AS path and materializes the actual
// forwarding path: which interconnect each AS-to-AS crossing uses (hot-potato
// egress selection perturbed by IGP weights, or flow-hashed across ECMP
// interconnect groups), which internal routers the packet visits (flow-hashed
// across load-balancer branches), and the IP address each hop would reveal to
// a traceroute (ingress interfaces; IXP crossings reveal IXP LAN addresses).
#pragma once

#include <cstdint>
#include <vector>

#include "netbase/ipv4.h"
#include "routing/routes.h"
#include "routing/state.h"
#include "topology/topology.h"

namespace rrr::routing {

using topo::CityId;
using topo::RouterId;

// Supplies the converged per-origin route tables the resolver walks.
class ControlPlane;

struct BorderCrossing {
  InterconnectId interconnect = topo::kNoInterconnect;
  bool forward = true;  // true: crossing link.a -> link.b
  AsIndex from_as = topo::kNoAs;
  AsIndex to_as = topo::kNoAs;
  CityId city = topo::kNoCity;

  friend bool operator==(const BorderCrossing&, const BorderCrossing&) =
      default;
};

struct ForwardPath {
  bool reachable = false;
  // AS-level path, source first, origin last (by dense index).
  std::vector<AsIndex> as_path;
  // One crossing per AS-level hop (size = as_path.size() - 1). This is the
  // paper's "border router path" granularity: the sequence of border
  // interconnections, abstracting intra-AS hops.
  std::vector<BorderCrossing> crossings;
  // IP hops a traceroute would reveal, excluding the probe's own address,
  // ending with the destination.
  std::vector<Ipv4> hops;
  // Router revealing each hop (kNoRouter for the destination host).
  std::vector<RouterId> hop_routers;

  // Empties every field, keeping the vectors' capacity.
  void clear() {
    reachable = false;
    as_path.clear();
    crossings.clear();
    hops.clear();
    hop_routers.clear();
  }

  // True when the border-level path (AS path + crossings) equals `other`'s.
  bool same_border_path(const ForwardPath& other) const {
    return as_path == other.as_path && crossings == other.crossings;
  }
};

class ForwardingResolver {
 public:
  ForwardingResolver(const Topology& topology, const RoutingState& state,
                     ControlPlane& routes)
      : topology_(topology), state_(state), routes_(routes) {}

  // Resolves the path from (src_as, src_city) to dst_ip for the given flow.
  // `flow_id` drives every load-balancing decision; the same flow always
  // takes the same branches (Paris-traceroute semantics). `with_ip_hops`
  // skips hop materialization when only the border path is needed (ground
  // truth bookkeeping is ~3x faster without it).
  ForwardPath resolve(AsIndex src_as, CityId src_city, Ipv4 dst_ip,
                      std::uint64_t flow_id, bool with_ip_hops = true) const;
  // The same, into `path`, overwriting every field. Its vectors keep their
  // capacity, so a caller that reuses one `path` allocates nothing once it
  // has seen its longest route.
  void resolve(AsIndex src_as, CityId src_city, Ipv4 dst_ip,
               std::uint64_t flow_id, bool with_ip_hops,
               ForwardPath& path) const;

  // The interconnect AS `from_as` currently uses to reach `to_as` for flows
  // entering `from_as` at `ingress_city`. Exposed for the control plane's
  // canonical attribute computation.
  InterconnectId egress_choice(AsIndex from_as, AsIndex to_as,
                               CityId ingress_city,
                               std::uint64_t flow_id) const;

  // City where hosts of an AS live (its primary PoP).
  CityId host_city(AsIndex as) const {
    return topology_.as_at(as).pops.front();
  }

 private:
  void emit_internal_hop(ForwardPath& path, AsIndex as, CityId city,
                         std::uint64_t flow_id) const;
  void emit_border_hops(ForwardPath& path, const topo::Interconnect& ic,
                        bool forward) const;

  const Topology& topology_;
  const RoutingState& state_;
  ControlPlane& routes_;
};

}  // namespace rrr::routing
