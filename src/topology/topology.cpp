#include "topology/topology.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace rrr::topo {

namespace {

std::uint64_t as_pair_key(AsIndex a, AsIndex b) {
  return std::uint64_t{a} << 32 | b;
}

std::uint64_t routers_key(AsIndex as, CityId city, bool border) {
  return std::uint64_t{border} << 48 | std::uint64_t{as} << 16 | city;
}

}  // namespace

Prefix as_block(AsIndex as) {
  return Prefix(Ipv4((as + 1u) << 16), 16);
}

Prefix as_infra_block(AsIndex as) {
  // Top /20 of the AS's /16: x.y.240.0/20.
  return Prefix(Ipv4(((as + 1u) << 16) | 0xF000u), 20);
}

Prefix ixp_block(IxpId ixp) {
  return Prefix(Ipv4(0xF0000000u | (std::uint32_t{ixp} << 16)), 22);
}

AsIndex Topology::add_as(AsNode node) {
  if (node.pops.empty()) {
    throw std::invalid_argument("AS must have at least one PoP");
  }
  auto index = static_cast<AsIndex>(ases_.size());
  if (!asn_index_.insert(IndexSlot{node.asn.number(), index}).second) {
    throw std::invalid_argument("duplicate ASN " + node.asn.to_string());
  }
  for (const Prefix& p : node.originated) announced_.insert(p, index);
  ases_.push_back(std::move(node));
  neighbors_.emplace_back();
  next_infra_offset_.push_back(0);
  next_host_offset_.push_back(0);
  return index;
}

RouterId Topology::add_router(Router router) {
  auto id = static_cast<RouterId>(routers_.size());
  router.id = id;
  auto [list, added] = router_index_.insert(
      IndexSlot{routers_key(router.owner, router.city, router.is_border),
                static_cast<std::uint32_t>(router_lists_.size())});
  if (added) router_lists_.emplace_back();
  router_lists_[list->value].push_back(id);
  std::vector<Ipv4> interfaces = std::move(router.interfaces);
  router.interfaces.clear();
  routers_.push_back(std::move(router));
  for (Ipv4 ip : interfaces) attach_interface(id, ip);
  return id;
}

IxpId Topology::add_ixp(Ixp ixp) {
  auto id = static_cast<IxpId>(ixps_.size());
  ixp.id = id;
  ixps_.push_back(std::move(ixp));
  next_ixp_offset_.push_back(2);  // .0/.1 reserved for the LAN itself
  return id;
}

LinkId Topology::add_link(AsIndex a, AsIndex b, RelType rel) {
  assert(a < ases_.size() && b < ases_.size() && a != b);
  auto key = std::minmax(a, b);
  auto id = static_cast<LinkId>(links_.size());
  if (!link_index_.insert(IndexSlot{as_pair_key(key.first, key.second), id})
           .second) {
    throw std::invalid_argument("duplicate AS link");
  }
  links_.push_back(AsLink{.id = id, .a = a, .b = b, .rel = rel,
                          .interconnects = {}});
  NeighborKind a_sees, b_sees;
  if (rel == RelType::kCustomerProvider) {
    a_sees = NeighborKind::kProvider;  // a is the customer, sees provider b
    b_sees = NeighborKind::kCustomer;
  } else {
    a_sees = b_sees = NeighborKind::kPeer;
  }
  neighbors_[a].push_back(Neighbor{.as = b, .link = id, .kind = a_sees});
  neighbors_[b].push_back(Neighbor{.as = a, .link = id, .kind = b_sees});
  return id;
}

InterconnectId Topology::add_interconnect(Interconnect ic) {
  assert(ic.link < links_.size());
  auto id = static_cast<InterconnectId>(interconnects_.size());
  ic.id = id;
  links_[ic.link].interconnects.push_back(id);
  interconnects_.push_back(ic);
  return id;
}

void Topology::attach_interface(RouterId router, Ipv4 ip) {
  assert(router < routers_.size());
  routers_[router].interfaces.push_back(ip);
  interface_router_.insert(IndexSlot{ip.value(), router});
}

AsIndex Topology::index_of(Asn asn) const {
  return lookup(asn_index_, asn.number());
}

std::span<const Neighbor> Topology::neighbors(AsIndex as) const {
  assert(as < neighbors_.size());
  return neighbors_[as];
}

LinkId Topology::link_between(AsIndex a, AsIndex b) const {
  auto key = std::minmax(a, b);
  return lookup(link_index_, as_pair_key(key.first, key.second));
}

RouterId Topology::router_of_interface(Ipv4 ip) const {
  return lookup(interface_router_, ip.value());
}

AsIndex Topology::true_owner_of(Ipv4 ip) const {
  RouterId r = router_of_interface(ip);
  if (r == kNoRouter) return kNoAs;
  return routers_[r].owner;
}

IxpId Topology::ixp_of_ip(Ipv4 ip) const {
  for (const Ixp& ixp : ixps_) {
    if (ixp.lan.contains(ip)) return ixp.id;
  }
  return kNoIxp;
}

AsIndex Topology::announced_owner_of(Ipv4 ip) const {
  const AsIndex* as = announced_.lookup(ip);
  return as == nullptr ? kNoAs : *as;
}

std::span<const RouterId> Topology::routers_at(AsIndex as, CityId city,
                                               bool border) const {
  const std::uint32_t list =
      lookup(router_index_, routers_key(as, city, border));
  if (list == IndexSlot::kNone) return {};
  return router_lists_[list];
}

std::span<const InterconnectId> Topology::link_interconnects(
    LinkId link) const {
  return links_[link].interconnects;
}

Ipv4 Topology::allocate_infra_ip(AsIndex as) {
  Prefix block = as_infra_block(as);
  std::uint32_t offset = next_infra_offset_[as]++;
  if (offset >= block.size()) {
    throw std::runtime_error("infrastructure block exhausted for AS index " +
                             std::to_string(as));
  }
  return Ipv4(block.network().value() + offset + 1);
}

Ipv4 Topology::allocate_ixp_ip(IxpId ixp) {
  Prefix block = ixp_block(ixp);
  std::uint32_t offset = next_ixp_offset_[ixp]++;
  if (offset >= block.size()) {
    throw std::runtime_error("IXP LAN exhausted for IXP " +
                             std::to_string(ixp));
  }
  return Ipv4(block.network().value() + offset);
}

Ipv4 Topology::member_ixp_ip(IxpId ixp, AsIndex member, RouterId router) {
  auto it = member_ixp_ips_.find({ixp, member});
  if (it != member_ixp_ips_.end()) return it->second;
  Ipv4 ip = allocate_ixp_ip(ixp);
  member_ixp_ips_.emplace(std::pair{ixp, member}, ip);
  if (router != kNoRouter) attach_interface(router, ip);
  return ip;
}

Ipv4 Topology::allocate_host_ip(AsIndex as) {
  Prefix block = as_block(as);
  // Host addresses grow from the bottom of the /16 (infra uses the top /20).
  std::uint32_t offset = next_host_offset_[as]++;
  if (offset >= block.size() - as_infra_block(as).size()) {
    throw std::runtime_error("host space exhausted for AS index " +
                             std::to_string(as));
  }
  return Ipv4(block.network().value() + offset + 1);
}

}  // namespace rrr::topo
