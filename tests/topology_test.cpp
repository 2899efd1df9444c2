// Unit and property tests for the topology substrate (src/topology).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>

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
