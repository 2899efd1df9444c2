// Unit and property tests for the topology substrate (src/topology).
#include <gtest/gtest.h>

#include <bit>
#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "topology/builder.h"
#include "topology/city.h"
#include "topology/topology.h"

namespace rrr::topo {
namespace {

TopologyParams small_params(std::uint64_t seed = 11) {
  TopologyParams params;
  params.num_tier1 = 4;
  params.num_transit = 20;
  params.num_stub = 60;
  params.num_ixps = 5;
  params.seed = seed;
  return params;
}

TEST(CityTable, LooksSane) {
  EXPECT_GE(city_count(), 40);
  EXPECT_EQ(find_city("London"), 0);
  EXPECT_EQ(find_city("Atlantis"), kNoCity);
  EXPECT_GT(city_distance_km(find_city("London"), find_city("Tokyo")),
            9000.0);
}

// The distance table holds distance_km's own doubles, so every RTT and
// hot-potato cost built on it stays bit-identical to a per-call haversine.
TEST(CityTable, DistanceTableMatchesHaversineBitForBit) {
  for (CityId a = 0; a < city_count(); ++a) {
    for (CityId b = 0; b < city_count(); ++b) {
      const double reference = distance_km(city(a).location, city(b).location);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(city_distance_km(a, b)),
                std::bit_cast<std::uint64_t>(reference))
          << city(a).name << " -> " << city(b).name;
    }
  }
}

TEST(Builder, DeterministicForSameSeed) {
  Topology a = build_topology(small_params(7));
  Topology b = build_topology(small_params(7));
  ASSERT_EQ(a.as_count(), b.as_count());
  ASSERT_EQ(a.links().size(), b.links().size());
  ASSERT_EQ(a.interconnects().size(), b.interconnects().size());
  for (std::size_t i = 0; i < a.interconnects().size(); ++i) {
    EXPECT_EQ(a.interconnects()[i].ip_b, b.interconnects()[i].ip_b);
    EXPECT_EQ(a.interconnects()[i].city, b.interconnects()[i].city);
  }
}

TEST(Builder, DifferentSeedsDiffer) {
  Topology a = build_topology(small_params(7));
  Topology b = build_topology(small_params(8));
  bool any_difference = a.links().size() != b.links().size();
  for (std::size_t i = 0;
       !any_difference && i < std::min(a.ases().size(), b.ases().size());
       ++i) {
    any_difference = a.ases()[i].pops != b.ases()[i].pops;
  }
  EXPECT_TRUE(any_difference);
}

class TopologyInvariants : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override { topology_ = build_topology(small_params(GetParam())); }
  Topology topology_ = build_topology(small_params());
};

TEST_P(TopologyInvariants, EveryInterconnectIsInABothSidedCity) {
  for (const Interconnect& ic : topology_.interconnects()) {
    const AsLink& link = topology_.link_at(ic.link);
    EXPECT_TRUE(topology_.as_at(link.a).has_pop(ic.city) ||
                ic.ixp != kNoIxp)
        << "interconnect " << ic.id;
    // The routers must belong to the right ASes and cities.
    EXPECT_EQ(topology_.router_at(ic.router_a).owner, link.a);
    EXPECT_EQ(topology_.router_at(ic.router_b).owner, link.b);
    EXPECT_EQ(topology_.router_at(ic.router_a).city, ic.city);
    EXPECT_EQ(topology_.router_at(ic.router_b).city, ic.city);
  }
}

TEST_P(TopologyInvariants, InterfaceOwnershipIsConsistent) {
  for (const Router& router : topology_.routers()) {
    for (Ipv4 ip : router.interfaces) {
      EXPECT_EQ(topology_.router_of_interface(ip), router.id);
      EXPECT_EQ(topology_.true_owner_of(ip), router.owner);
    }
  }
}

TEST_P(TopologyInvariants, AnnouncedSpaceMapsToOwner) {
  for (AsIndex as = 0; as < topology_.as_count(); ++as) {
    Ipv4 inside = Ipv4(as_block(as).network().value() + 5);
    EXPECT_EQ(topology_.announced_owner_of(inside), as);
  }
  // IXP LANs are not announced.
  for (const Ixp& ixp : topology_.ixps()) {
    EXPECT_EQ(topology_.announced_owner_of(ixp.lan.network()), kNoAs);
    EXPECT_EQ(topology_.ixp_of_ip(Ipv4(ixp.lan.network().value() + 3)),
              ixp.id);
  }
}

TEST_P(TopologyInvariants, StubsHaveProviders) {
  for (AsIndex as = 0; as < topology_.as_count(); ++as) {
    if (topology_.as_at(as).tier != AsTier::kStub) continue;
    bool has_provider = false;
    for (const Neighbor& nb : topology_.neighbors(as)) {
      if (nb.kind == NeighborKind::kProvider) has_provider = true;
    }
    EXPECT_TRUE(has_provider) << topology_.as_at(as).asn.to_string();
  }
}

TEST_P(TopologyInvariants, LinksAreSymmetricInNeighborLists) {
  for (const AsLink& link : topology_.links()) {
    bool a_sees_b = false, b_sees_a = false;
    for (const Neighbor& nb : topology_.neighbors(link.a)) {
      if (nb.as == link.b && nb.link == link.id) a_sees_b = true;
    }
    for (const Neighbor& nb : topology_.neighbors(link.b)) {
      if (nb.as == link.a && nb.link == link.id) b_sees_a = true;
    }
    EXPECT_TRUE(a_sees_b && b_sees_a);
    EXPECT_GE(link.interconnects.size(), 1u);
  }
}

TEST_P(TopologyInvariants, IxpMembersShareOneLanAddressAcrossPeerings) {
  // One LAN address per (member, IXP): the Figure 14 sharing property.
  std::map<std::pair<IxpId, AsIndex>, std::set<Ipv4>> lan_ips;
  for (const Interconnect& ic : topology_.interconnects()) {
    if (ic.ixp == kNoIxp) continue;
    const AsLink& link = topology_.link_at(ic.link);
    lan_ips[{ic.ixp, link.a}].insert(ic.ip_a);
    lan_ips[{ic.ixp, link.b}].insert(ic.ip_b);
  }
  for (const auto& [key, ips] : lan_ips) {
    EXPECT_EQ(ips.size(), 1u)
        << "member has multiple LAN addresses on one IXP";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyInvariants,
                         ::testing::Values(1, 2, 3, 4, 5));

// Topology's flat indexes against std::unordered_maps fed the same adds:
// a built topology's ASes, routers and links replayed into a fresh one,
// plus an interface attached a second time to another router (the first
// router keeps it). Every ASN up to past the largest, every ordered AS
// pair, every (AS, city) and every interface with its two neighbouring
// addresses is asked of both, so absent keys are covered too.
TEST(TopologyIndexes, MatchUnorderedMapsBuiltFromTheSameAdds) {
  const Topology built = build_topology(small_params(23));
  Topology replayed;
  std::unordered_map<std::uint32_t, AsIndex> asns;
  std::unordered_map<std::uint64_t, LinkId> links;
  std::unordered_map<std::uint32_t, RouterId> interfaces;
  std::unordered_map<std::uint64_t, std::vector<RouterId>> internal, border;
  auto at_key = [](AsIndex as, CityId city) {
    return std::uint64_t{as} << 16 | city;
  };

  for (const AsNode& node : built.ases()) {
    asns.emplace(node.asn.number(), replayed.add_as(node));
  }
  for (const Router& router : built.routers()) {
    const RouterId id = replayed.add_router(router);
    (router.is_border ? border : internal)[at_key(router.owner, router.city)]
        .push_back(id);
    for (Ipv4 ip : router.interfaces) interfaces.emplace(ip.value(), id);
  }
  const Ipv4 shared = built.routers()[3].interfaces.front();
  replayed.attach_interface(5, shared);
  interfaces.emplace(shared.value(), 5);
  for (const AsLink& link : built.links()) {
    const auto [lo, hi] = std::minmax(link.a, link.b);
    links.emplace(std::uint64_t{lo} << 32 | hi,
                  replayed.add_link(link.a, link.b, link.rel));
  }
  ASSERT_EQ(interfaces.at(shared.value()), 3u);

  auto find_or = [](const auto& map, auto key, auto none) {
    auto it = map.find(key);
    return it == map.end() ? none : it->second;
  };
  std::uint32_t max_asn = 0;
  for (const auto& [asn, index] : asns) max_asn = std::max(max_asn, asn);
  for (std::uint32_t asn = 0; asn <= max_asn + 64; ++asn) {
    ASSERT_EQ(replayed.index_of(Asn(asn)), find_or(asns, asn, kNoAs)) << asn;
  }
  const auto n = static_cast<AsIndex>(replayed.as_count());
  for (AsIndex a = 0; a < n + 2; ++a) {
    for (AsIndex b = 0; b < n + 2; ++b) {
      const auto [lo, hi] = std::minmax(a, b);
      ASSERT_EQ(replayed.link_between(a, b),
                find_or(links, std::uint64_t{lo} << 32 | hi, kNoLink))
          << a << "-" << b;
    }
    for (CityId city = 0; city < city_count() + 2; ++city) {
      const std::vector<RouterId> none;
      const auto want_internal = find_or(internal, at_key(a, city), none);
      const auto want_border = find_or(border, at_key(a, city), none);
      const auto got_internal = replayed.internal_routers(a, city);
      const auto got_border = replayed.border_routers(a, city);
      ASSERT_TRUE(std::equal(got_internal.begin(), got_internal.end(),
                             want_internal.begin(), want_internal.end()))
          << a << "@" << city;
      ASSERT_TRUE(std::equal(got_border.begin(), got_border.end(),
                             want_border.begin(), want_border.end()))
          << a << "@" << city;
    }
  }
  std::size_t absent = 0;
  for (const auto& [ip, router] : interfaces) {
    for (std::uint32_t probe : {ip - 1, ip, ip + 1}) {
      const RouterId want = find_or(interfaces, probe, kNoRouter);
      absent += want == kNoRouter;
      ASSERT_EQ(replayed.router_of_interface(Ipv4(probe)), want) << probe;
    }
  }
  EXPECT_GT(absent, 0u);
  EXPECT_GT(links.size(), 0u);
}

TEST(IxpJoin, CreatesPeeringsAndReusesLanAddress) {
  TopologyParams params = small_params(3);
  params.num_transit = 30;        // enough IXP membership to join against
  params.ixp_join_prob_transit = 0.8;
  Topology topology = build_topology(params);
  Rng rng(99);
  // Find an IXP with members and an AS not yet a member.
  const Ixp* target = nullptr;
  for (const Ixp& ixp : topology.ixps()) {
    if (ixp.members.size() >= 3) {
      target = &ixp;
      break;
    }
  }
  ASSERT_NE(target, nullptr);
  AsIndex joiner = kNoAs;
  for (AsIndex as = 0; as < topology.as_count(); ++as) {
    if (!target->has_member(as)) {
      joiner = as;
      break;
    }
  }
  ASSERT_NE(joiner, kNoAs);
  IxpId ixp_id = target->id;
  std::size_t links_before = topology.links().size();
  auto created = ixp_join(topology, ixp_id, joiner, /*peer_prob=*/1.0,
                          /*max_new_peers=*/3, rng);
  EXPECT_GE(created.size(), 1u);
  EXPECT_EQ(topology.links().size(), links_before + created.size());
  EXPECT_TRUE(topology.ixp_at(ixp_id).has_member(joiner));
  // All the joiner's new LAN interfaces are the same address.
  std::set<Ipv4> joiner_ips;
  for (LinkId link_id : created) {
    const AsLink& link = topology.link_at(link_id);
    for (InterconnectId ic_id : link.interconnects) {
      const Interconnect& ic = topology.interconnect_at(ic_id);
      joiner_ips.insert(link.a == joiner ? ic.ip_a : ic.ip_b);
    }
  }
  EXPECT_EQ(joiner_ips.size(), 1u);
}

TEST(PeeringDb, CompletenessBounds) {
  Topology topology = build_topology(small_params(4));
  Rng rng(5);
  PeeringDbSnapshot full = make_peeringdb(topology, 1.0, rng);
  std::size_t total = 0, recorded = 0;
  for (const Ixp& ixp : topology.ixps()) {
    total += ixp.members.size();
    recorded += full.ixp_members[ixp.id].size();
  }
  EXPECT_EQ(total, recorded);
  Rng rng2(5);
  PeeringDbSnapshot empty = make_peeringdb(topology, 0.0, rng2);
  for (const auto& members : empty.ixp_members) {
    EXPECT_TRUE(members.empty());
  }
}

}  // namespace
}  // namespace rrr::topo
