// The simulated Internet: ASes, PoPs, routers, interconnections, and IXPs.
//
// This module is the static substrate underneath the routing simulator. It
// stands in for the real-world topology that the paper observes through
// RouteViews/RIS and RIPE Atlas: ASes with business relationships, multiple
// interconnection points per AS pair (so border-level changes can happen
// without AS-level changes), IXP LANs with member ASes, and routers with
// multiple interface addresses (so alias resolution is meaningful).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "netbase/asn.h"
#include "netbase/community.h"
#include "netbase/flat_table.h"
#include "netbase/ipv4.h"
#include "netbase/prefix.h"
#include "netbase/radix_trie.h"
#include "netbase/rng.h"
#include "topology/city.h"
#include "topology/types.h"

namespace rrr::topo {

// Community value conventions used by the generated ASes. Geo communities
// mirror the paper's Figure 3 example (e.g. 13030:51701 = Telehouse LON-1):
// value = kGeoCommunityBase + city id. TE communities are unrelated to the
// traversed path and exercise the false-signal suppression of §4.1.3.
inline constexpr std::uint16_t kGeoCommunityBase = 51000;
inline constexpr std::uint16_t kTeCommunityBase = 7000;

inline bool is_geo_community_value(std::uint16_t v) {
  return v >= kGeoCommunityBase && v < kGeoCommunityBase + 1000;
}

struct AsNode {
  Asn asn;
  AsTier tier = AsTier::kStub;
  // Cities where the AS has a point of presence; pops[0] is the primary
  // (headquarters) city used for canonical control-plane egress selection.
  std::vector<CityId> pops;
  // Prefixes this AS originates in BGP; the first covers its whole block.
  std::vector<Prefix> originated;
  // Border routers tag routes with a geo community for the ingress PoP.
  bool adds_geo_communities = false;
  // Strips all communities from routes it propagates (optional transitive
  // attribute handling, §4.1.3).
  bool strips_communities = false;
  // Number of parallel intra-domain ECMP branches (1 = no load balancing).
  int lb_branches = 1;

  bool has_pop(CityId c) const {
    for (CityId p : pops)
      if (p == c) return true;
    return false;
  }
};

struct Router {
  RouterId id = kNoRouter;
  AsIndex owner = kNoAs;
  CityId city = kNoCity;
  bool is_border = false;
  // All interface addresses of this router (alias set).
  std::vector<Ipv4> interfaces;
};

// One physical interconnection point between the two ASes of a link.
struct Interconnect {
  InterconnectId id = kNoInterconnect;
  LinkId link = kNoLink;
  CityId city = kNoCity;
  IxpId ixp = kNoIxp;  // kNoIxp => private interconnect (PNI)
  // Interfaces on each side. When a packet crosses a->b, the traceroute
  // reveals ip_b (the ingress interface of b's border router); for IXP
  // interconnects ip_b is drawn from the IXP LAN prefix.
  Ipv4 ip_a;
  Ipv4 ip_b;
  RouterId router_a = kNoRouter;
  RouterId router_b = kNoRouter;
  // Interconnects of the same link sharing an ecmp_group >= 0 hash flows
  // across each other, forming an interdomain diamond (§5.4).
  int ecmp_group = -1;
  // Static egress preference in km-equivalents: the primary interconnect of
  // a link carries 0, backups increasing penalties. Real egress selection
  // is mostly policy with a hot-potato tie-break, not pure geography.
  double base_weight = 0.0;
};

struct AsLink {
  LinkId id = kNoLink;
  AsIndex a = kNoAs;
  AsIndex b = kNoAs;
  RelType rel = RelType::kPeerPeer;  // kCustomerProvider: a is customer of b
  std::vector<InterconnectId> interconnects;
};

struct Ixp {
  IxpId id = kNoIxp;
  std::string name;
  CityId city = kNoCity;
  // The route-server ASN that §4.1.1 strips from AS paths.
  Asn route_server_asn;
  // The IXP LAN; member router interfaces on the LAN come from here.
  Prefix lan;
  std::vector<AsIndex> members;

  bool has_member(AsIndex as) const {
    for (AsIndex m : members)
      if (m == as) return true;
    return false;
  }
};

// How an adjacency looks from one endpoint.
enum class NeighborKind : std::uint8_t { kCustomer, kPeer, kProvider };

struct Neighbor {
  AsIndex as = kNoAs;
  LinkId link = kNoLink;
  NeighborKind kind = NeighborKind::kPeer;
};

class Topology {
 public:
  // --- construction (used by TopologyBuilder and the event engine) ---
  AsIndex add_as(AsNode node);
  RouterId add_router(Router router);
  IxpId add_ixp(Ixp ixp);
  LinkId add_link(AsIndex a, AsIndex b, RelType rel);
  InterconnectId add_interconnect(Interconnect ic);
  // Registers `ip` as an interface of `router` (updates alias indices).
  void attach_interface(RouterId router, Ipv4 ip);

  // --- read access ---
  std::span<const AsNode> ases() const { return ases_; }
  std::span<const Router> routers() const { return routers_; }
  std::span<const AsLink> links() const { return links_; }
  std::span<const Interconnect> interconnects() const {
    return interconnects_;
  }
  std::span<const Ixp> ixps() const { return ixps_; }

  const AsNode& as_at(AsIndex i) const { return ases_[i]; }
  AsNode& as_at(AsIndex i) { return ases_[i]; }
  const Router& router_at(RouterId r) const { return routers_[r]; }
  const AsLink& link_at(LinkId l) const { return links_[l]; }
  const Interconnect& interconnect_at(InterconnectId i) const {
    return interconnects_[i];
  }
  Interconnect& interconnect_mut(InterconnectId i) {
    return interconnects_[i];
  }
  Ixp& ixp_at(IxpId i) { return ixps_[i]; }
  const Ixp& ixp_at(IxpId i) const { return ixps_[i]; }

  // Dense index of an ASN, or kNoAs.
  AsIndex index_of(Asn asn) const;

  // Adjacency list of `as` with per-endpoint relationship view.
  std::span<const Neighbor> neighbors(AsIndex as) const;

  // The link between two ASes, or kNoLink.
  LinkId link_between(AsIndex a, AsIndex b) const;

  // Router owning interface `ip`, or kNoRouter.
  RouterId router_of_interface(Ipv4 ip) const;

  // True AS owning `ip` (ground truth: interface owner's AS; IXP LAN
  // addresses map to the member router's AS).
  AsIndex true_owner_of(Ipv4 ip) const;

  // IXP whose LAN contains `ip`, or kNoIxp.
  IxpId ixp_of_ip(Ipv4 ip) const;

  // Longest-prefix match over *originated* prefixes: the AS a control-plane
  // observer would map `ip` to. Returns kNoAs when unrouted (e.g. IXP LANs).
  AsIndex announced_owner_of(Ipv4 ip) const;

  // Internal (non-border) routers of an AS in a city.
  std::span<const RouterId> internal_routers(AsIndex as, CityId city) const {
    return routers_at(as, city, /*border=*/false);
  }

  // Border routers of an AS in a city.
  std::span<const RouterId> border_routers(AsIndex as, CityId city) const {
    return routers_at(as, city, /*border=*/true);
  }

  // Every interconnect of `link` in construction order.
  std::span<const InterconnectId> link_interconnects(LinkId link) const;

  // Geo community an AS attaches for routes ingressing at `city`.
  Community geo_community(AsIndex as, CityId city) const {
    return Community(as_at(as).asn,
                     static_cast<std::uint16_t>(kGeoCommunityBase + city));
  }

  // --- address allocation (builder/event-engine use) ---
  // Next unused infrastructure address of an AS (router interfaces, PNIs).
  Ipv4 allocate_infra_ip(AsIndex as);
  // Next unused address on an IXP LAN.
  Ipv4 allocate_ixp_ip(IxpId ixp);
  // The LAN address of a member on an IXP: one per (member, IXP), shared by
  // all its peerings over that fabric (why IXP border IPs serve many AS
  // pairs — Appendix C / Figure 14). Allocates on first use and binds it to
  // `router` (subsequent calls may pass kNoRouter).
  Ipv4 member_ixp_ip(IxpId ixp, AsIndex member, RouterId router);
  // Next unused host address inside an AS's announced space (probes,
  // anchors, traceroute targets).
  Ipv4 allocate_host_ip(AsIndex as);

  std::size_t as_count() const { return ases_.size(); }

 private:
  std::span<const RouterId> routers_at(AsIndex as, CityId city,
                                       bool border) const;

  std::vector<AsNode> ases_;
  std::vector<Router> routers_;
  std::vector<AsLink> links_;
  std::vector<Interconnect> interconnects_;
  std::vector<Ixp> ixps_;

  // The indexes are flat tables and never iterated. ASN -> AsIndex.
  FlatIndex asn_index_;
  std::vector<std::vector<Neighbor>> neighbors_;
  // min(a, b) << 32 | max(a, b) -> LinkId.
  FlatIndex link_index_;
  // Interface address -> RouterId.
  FlatIndex interface_router_;
  // border << 48 | owner << 16 | city -> position in router_lists_, which
  // holds the routers of that kind there in construction order.
  FlatIndex router_index_;
  std::vector<std::vector<RouterId>> router_lists_;
  RadixTrie<AsIndex> announced_;
  std::map<std::pair<IxpId, AsIndex>, Ipv4> member_ixp_ips_;
  std::vector<std::uint32_t> next_infra_offset_;
  std::vector<std::uint32_t> next_host_offset_;
  std::vector<std::uint32_t> next_ixp_offset_;
};

// Address-plan constants: AS i owns the /16 with network (i+1)<<16; the top
// /20 of the block is infrastructure space; IXP j owns a /22 at
// 0xF0000000 + (j<<16).
Prefix as_block(AsIndex as);
Prefix as_infra_block(AsIndex as);
Prefix ixp_block(IxpId ixp);

}  // namespace rrr::topo
