// Tests for the measurement platform and prober (src/traceroute).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "netbase/geo.h"
#include "topology/builder.h"
#include "topology/city.h"
#include "traceroute/platform.h"

namespace rrr::tr {
namespace {

class PlatformFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    topo::TopologyParams params;
    params.num_tier1 = 4;
    params.num_transit = 16;
    params.num_stub = 40;
    params.seed = 41;
    topology_ = topo::build_topology(params);
    cp_ = std::make_unique<routing::ControlPlane>(topology_, 41);
    ProberParams prober;
    prober.seed = 41;
    PlatformParams plat;
    plat.num_probes = 80;
    plat.num_anchors = 12;
    plat.seed = 41;
    platform_ = std::make_unique<Platform>(*cp_, prober, plat);
  }
  topo::Topology topology_;
  std::unique_ptr<routing::ControlPlane> cp_;
  std::unique_ptr<Platform> platform_;
};

TEST_F(PlatformFixture, ProbesHaveValidPlacement) {
  EXPECT_EQ(platform_->anchors().size(), 12u);
  EXPECT_EQ(platform_->regular_probes().size(), 80u);
  for (const Probe& probe : platform_->probes()) {
    EXPECT_LT(probe.as, topology_.as_count());
    EXPECT_TRUE(topology_.as_at(probe.as).has_pop(probe.city));
    // The probe's address belongs to its AS's announced space.
    EXPECT_EQ(topology_.announced_owner_of(probe.ip), probe.as);
  }
}

TEST_F(PlatformFixture, TracerouteEndsAtDestination) {
  Ipv4 dst = platform_->probe(platform_->anchors()[0]).ip;
  Traceroute trace =
      platform_->issue(platform_->regular_probes()[0], dst, TimePoint(0), 0);
  ASSERT_FALSE(trace.hops.empty());
  if (trace.reached) {
    ASSERT_TRUE(trace.hops.back().responded());
    EXPECT_EQ(*trace.hops.back().ip, dst);
  }
}

TEST_F(PlatformFixture, SameFlowVariantIsStable) {
  Ipv4 dst = platform_->probe(platform_->anchors()[1]).ip;
  ProbeId src = platform_->regular_probes()[3];
  Traceroute a = platform_->issue(src, dst, TimePoint(100), 2);
  Traceroute b = platform_->issue(src, dst, TimePoint(100), 2);
  ASSERT_EQ(a.hops.size(), b.hops.size());
  for (std::size_t i = 0; i < a.hops.size(); ++i) {
    EXPECT_EQ(a.hops[i].ip, b.hops[i].ip);
  }
}

TEST_F(PlatformFixture, RttsIncreaseAlongThePath) {
  Ipv4 dst = platform_->probe(platform_->anchors()[2]).ip;
  Traceroute trace =
      platform_->issue(platform_->regular_probes()[5], dst, TimePoint(0), 0);
  double last = 0.0;
  for (const Hop& hop : trace.hops) {
    if (!hop.responded()) continue;
    EXPECT_GE(hop.rtt_ms, last * 0.7) << "RTT collapsed implausibly";
    last = std::max(last, hop.rtt_ms);
    EXPECT_LT(hop.rtt_ms, 500.0);
  }
}

TEST_F(PlatformFixture, SilentRoutersAreConsistent) {
  // A router that is silent must be silent in every measurement.
  Prober& prober = platform_->prober();
  std::set<topo::RouterId> silent;
  for (const topo::Router& router : topology_.routers()) {
    if (prober.router_is_silent(router.id)) silent.insert(router.id);
  }
  Ipv4 dst = platform_->probe(platform_->anchors()[3]).ip;
  for (int round = 0; round < 5; ++round) {
    Traceroute trace = platform_->issue(platform_->regular_probes()[7], dst,
                                        TimePoint(round * 900), 0);
    routing::ForwardPath path = cp_->resolver().resolve(
        platform_->probe(platform_->regular_probes()[7]).as,
        platform_->probe(platform_->regular_probes()[7]).city, dst,
        trace.flow_id);
    for (std::size_t i = 0;
         i < trace.hops.size() && i < path.hop_routers.size(); ++i) {
      if (path.hop_routers[i] != topo::kNoRouter &&
          silent.contains(path.hop_routers[i])) {
        EXPECT_FALSE(trace.hops[i].responded());
      }
    }
  }
}

TEST_F(PlatformFixture, ChurnKillsOnlyRegularProbes) {
  PlatformParams plat;
  plat.num_probes = 200;
  plat.num_anchors = 10;
  plat.probe_death_per_day = 0.5;  // aggressive, to observe deaths
  plat.seed = 5;
  ProberParams prober;
  Platform churny(*cp_, prober, plat);
  auto died = churny.advance_churn(TimePoint(3 * kSecondsPerDay));
  EXPECT_GT(died.size(), 50u);
  for (ProbeId id : died) {
    EXPECT_FALSE(churny.probe(id).is_anchor);
    EXPECT_FALSE(churny.probe(id).active);
  }
  for (ProbeId id : churny.anchors()) {
    EXPECT_TRUE(churny.probe(id).active);
  }
}

// Resolve and measure as they were before the city-distance table, the
// buffer reserves and the counted ECMP pick: a haversine for every
// distance, vectors grown hop by hop, and a member vector built for every
// ECMP egress. The rewritten resolver and prober must match it bit for bit.
class ReferenceTracer {
 public:
  ReferenceTracer(routing::ControlPlane& cp, const ProberParams& params)
      : cp_(cp), topology_(cp.topology()), state_(cp.state()),
        params_(params) {}

  routing::ForwardPath resolve(topo::AsIndex src_as, topo::CityId src_city,
                               Ipv4 dst_ip, std::uint64_t flow_id) {
    routing::ForwardPath path;
    topo::AsIndex dst_as = topology_.announced_owner_of(dst_ip);
    if (dst_as == topo::kNoAs) return path;
    const routing::Route& route = cp_.table_for(dst_as).at(src_as);
    if (!route.reachable()) return path;
    for (Asn asn : route.path) {
      topo::AsIndex idx = topology_.index_of(asn);
      if (idx == topo::kNoAs) return path;
      path.as_path.push_back(idx);
    }
    topo::CityId current_city = src_city;
    for (std::size_t i = 0; i + 1 < path.as_path.size(); ++i) {
      topo::AsIndex from = path.as_path[i];
      topo::AsIndex to = path.as_path[i + 1];
      topo::InterconnectId ic_id =
          egress_choice(from, to, current_city, flow_id);
      if (ic_id == topo::kNoInterconnect) return routing::ForwardPath{};
      const topo::Interconnect& ic = topology_.interconnect_at(ic_id);
      bool forward = topology_.link_at(ic.link).a == from;
      if (i == 0) emit_internal_hop(path, from, current_city, flow_id);
      if (ic.city != current_city) {
        emit_internal_hop(path, from, ic.city, flow_id);
      }
      emit_border_hops(path, ic, forward);
      path.crossings.push_back(routing::BorderCrossing{.interconnect = ic_id,
                                                       .forward = forward,
                                                       .from_as = from,
                                                       .to_as = to,
                                                       .city = ic.city});
      current_city = ic.city;
    }
    topo::AsIndex final_as = path.as_path.back();
    topo::CityId dst_city = topology_.as_at(dst_as).pops.front();
    if (path.as_path.size() == 1) {
      emit_internal_hop(path, final_as, current_city, flow_id);
    }
    if (dst_city != current_city) {
      emit_internal_hop(path, final_as, dst_city, flow_id);
    }
    path.hops.push_back(dst_ip);
    path.hop_routers.push_back(topo::kNoRouter);
    path.reachable = true;
    return path;
  }

  Traceroute measure(const Probe& probe, Ipv4 dst_ip, TimePoint t,
                     std::uint64_t flow_id) {
    Traceroute trace;
    trace.probe = probe.id;
    trace.src_ip = probe.ip;
    trace.dst_ip = dst_ip;
    trace.time = t;
    trace.flow_id = flow_id;
    routing::ForwardPath path = resolve(probe.as, probe.city, dst_ip, flow_id);
    if (!path.reachable) return trace;
    Rng rng(hash_combine(
        hash_combine(params_.seed, probe.id),
        hash_combine(dst_ip.value(),
                     hash_combine(static_cast<std::uint64_t>(t.seconds()),
                                  flow_id))));
    double cumulative_km = 0.0;
    topo::CityId previous_city = probe.city;
    for (std::size_t i = 0; i < path.hops.size(); ++i) {
      bool is_destination = i + 1 == path.hops.size();
      topo::RouterId router = path.hop_routers[i];
      topo::CityId hop_city =
          router == topo::kNoRouter
              ? topology_.as_at(topology_.announced_owner_of(dst_ip))
                    .pops.front()
              : topology_.router_at(router).city;
      cumulative_km += km(previous_city, hop_city);
      previous_city = hop_city;
      double base_rtt = 2.0 * cumulative_km / 200.0 + 0.2;
      double rtt =
          base_rtt * (1.0 + params_.rtt_jitter_fraction * rng.uniform());
      Hop hop;
      bool silent = router != topo::kNoRouter && router_is_silent(router);
      bool lost = rng.bernoulli(params_.intermittent_loss_prob);
      bool filtered = is_destination &&
                      rng.bernoulli(params_.unresponsive_destination_prob);
      if (!silent && !lost && !filtered) {
        hop.ip = path.hops[i];
        hop.rtt_ms = rtt;
      }
      trace.hops.push_back(hop);
      if (is_destination) trace.reached = hop.responded();
    }
    return trace;
  }

  // Egress choices that hashed a flow across two or more ECMP members.
  std::size_t ecmp_picks() const { return ecmp_picks_; }

 private:
  static double km(topo::CityId a, topo::CityId b) {
    if (a == b) return 0.0;
    return distance_km(topo::city(a).location, topo::city(b).location);
  }

  topo::InterconnectId egress_choice(topo::AsIndex from_as,
                                     topo::AsIndex to_as,
                                     topo::CityId ingress_city,
                                     std::uint64_t flow_id) {
    topo::LinkId link = topology_.link_between(from_as, to_as);
    if (link == topo::kNoLink) return topo::kNoInterconnect;
    topo::InterconnectId best = topo::kNoInterconnect;
    double best_cost = std::numeric_limits<double>::infinity();
    for (topo::InterconnectId ic_id : topology_.link_interconnects(link)) {
      if (!state_.interconnect_active(ic_id)) continue;
      const topo::Interconnect& ic = topology_.interconnect_at(ic_id);
      double cost = 0.15 * km(ingress_city, ic.city) + ic.base_weight +
                    state_.egress_weight(ic_id);
      if (cost < best_cost || (cost == best_cost && ic_id < best)) {
        best_cost = cost;
        best = ic_id;
      }
    }
    if (best == topo::kNoInterconnect) return best;
    const topo::Interconnect& winner = topology_.interconnect_at(best);
    if (winner.ecmp_group >= 0) {
      std::vector<topo::InterconnectId> members;
      for (topo::InterconnectId ic_id : topology_.link_interconnects(link)) {
        if (!state_.interconnect_active(ic_id)) continue;
        if (topology_.interconnect_at(ic_id).ecmp_group ==
            winner.ecmp_group) {
          members.push_back(ic_id);
        }
      }
      if (members.size() >= 2) {
        ++ecmp_picks_;
        std::uint64_t h = hash_combine(flow_id, 0x1C0000ull + link);
        return members[h % members.size()];
      }
    }
    return best;
  }

  void emit_internal_hop(routing::ForwardPath& path, topo::AsIndex as,
                         topo::CityId city, std::uint64_t flow_id) const {
    auto routers = topology_.internal_routers(as, city);
    if (routers.empty()) return;
    std::uint64_t h = hash_combine(flow_id, hash_combine(as, city));
    topo::RouterId r = routers[h % routers.size()];
    const topo::Router& router = topology_.router_at(r);
    if (router.interfaces.empty()) return;
    path.hops.push_back(router.interfaces.front());
    path.hop_routers.push_back(r);
  }

  void emit_border_hops(routing::ForwardPath& path,
                        const topo::Interconnect& ic, bool forward) const {
    topo::RouterId near = forward ? ic.router_a : ic.router_b;
    const topo::Router& near_router = topology_.router_at(near);
    if (!near_router.interfaces.empty()) {
      path.hops.push_back(near_router.interfaces.front());
      path.hop_routers.push_back(near);
    }
    path.hops.push_back(forward ? ic.ip_b : ic.ip_a);
    path.hop_routers.push_back(forward ? ic.router_b : ic.router_a);
  }

  bool router_is_silent(topo::RouterId router) const {
    std::uint64_t h = hash_combine(params_.seed, 0x51137ull + router);
    return (h % 10000) < static_cast<std::uint64_t>(
                             params_.silent_router_fraction * 10000);
  }

  routing::ControlPlane& cp_;
  const topo::Topology& topology_;
  const routing::RoutingState& state_;
  ProberParams params_;
  std::size_t ecmp_picks_ = 0;
};

::testing::AssertionResult same_path(const routing::ForwardPath& mine,
                                     const routing::ForwardPath& theirs) {
  if (mine.reachable != theirs.reachable) {
    return ::testing::AssertionFailure() << "reachability differs";
  }
  if (mine.as_path != theirs.as_path) {
    return ::testing::AssertionFailure() << "AS path differs";
  }
  if (mine.crossings != theirs.crossings) {
    return ::testing::AssertionFailure() << "crossings differ";
  }
  if (mine.hops != theirs.hops) {
    return ::testing::AssertionFailure() << "hops differ";
  }
  if (mine.hop_routers != theirs.hop_routers) {
    return ::testing::AssertionFailure() << "hop routers differ";
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_trace(const Traceroute& mine,
                                      const Traceroute& theirs) {
  if (mine.probe != theirs.probe || mine.src_ip != theirs.src_ip ||
      mine.dst_ip != theirs.dst_ip || mine.time != theirs.time ||
      mine.flow_id != theirs.flow_id || mine.reached != theirs.reached) {
    return ::testing::AssertionFailure() << "trace header differs";
  }
  if (mine.hops.size() != theirs.hops.size()) {
    return ::testing::AssertionFailure() << "hop count differs";
  }
  for (std::size_t h = 0; h < mine.hops.size(); ++h) {
    if (mine.hops[h].ip != theirs.hops[h].ip ||
        std::bit_cast<std::uint64_t>(mine.hops[h].rtt_ms) !=
            std::bit_cast<std::uint64_t>(theirs.hops[h].rtt_ms)) {
      return ::testing::AssertionFailure() << "hop " << h << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

// Public-feed-shaped shots (random regular probes toward 120 destinations,
// half of them anchors' hosts, Paris variants 0-15) on two full-size
// topologies, before and after a member of every other ECMP group goes
// down.
TEST(PublicTraceOracle, ResolveAndMeasureMatchTheHaversineCode) {
  for (const std::uint64_t seed : {87u, 91u}) {
    topo::TopologyParams shape;
    shape.seed = seed;
    topo::Topology topology = topo::build_topology(shape);
    routing::ControlPlane cp(topology, seed);
    PlatformParams plat;
    plat.num_probes = 120;
    plat.num_anchors = 20;
    plat.seed = seed;
    const ProberParams prober;
    Platform platform(cp, prober, plat);
    ReferenceTracer reference(cp, prober);

    Rng rng(seed + 1);
    std::vector<Ipv4> dests;
    for (int i = 0; i < 120; ++i) {
      const auto& anchors = platform.anchors();
      dests.push_back(topology.allocate_host_ip(
          i % 2 == 0 ? platform.probe(anchors[(i / 2) % anchors.size()]).as
                     : static_cast<topo::AsIndex>(
                           rng.index(topology.as_count()))));
    }
    std::size_t shots = 0, reached = 0, crossed_ecmp = 0;
    auto shoot = [&](int count) {
      for (int i = 0; i < count; ++i, ++shots) {
        const auto& probes = platform.regular_probes();
        const Probe& probe = platform.probe(probes[rng.index(probes.size())]);
        const Ipv4 dst = dests[rng.index(dests.size())];
        const int variant = static_cast<int>(rng.uniform_int(0, 15));
        const TimePoint t(static_cast<std::int64_t>(shots));
        const std::uint64_t flow = hash_combine(
            hash_combine(probe.ip.value(), dst.value()),
            static_cast<std::uint64_t>(variant));

        const std::size_t picks = reference.ecmp_picks();
        const routing::ForwardPath theirs =
            reference.resolve(probe.as, probe.city, dst, flow);
        crossed_ecmp += reference.ecmp_picks() > picks;
        ASSERT_TRUE(same_path(
            cp.resolver().resolve(probe.as, probe.city, dst, flow), theirs))
            << "seed " << seed << " shot " << shots;
        const routing::ForwardPath border_only = cp.resolver().resolve(
            probe.as, probe.city, dst, flow, /*with_ip_hops=*/false);
        ASSERT_EQ(border_only.as_path, theirs.as_path);
        ASSERT_EQ(border_only.crossings, theirs.crossings);
        ASSERT_TRUE(border_only.hops.empty());

        const Traceroute mine = platform.issue(probe.id, dst, t, variant);
        ASSERT_TRUE(same_trace(mine, reference.measure(probe, dst, t, flow)))
            << "seed " << seed << " shot " << shots;
        reached += mine.reached;
      }
    };
    shoot(1500);
    const std::size_t crossed_before = crossed_ecmp;
    // One member down on every other diamond link: its flows stop hashing.
    std::size_t diamonds = 0;
    for (const topo::AsLink& link : topology.links()) {
      for (topo::InterconnectId ic : link.interconnects) {
        if (topology.interconnect_at(ic).ecmp_group < 0) continue;
        if (diamonds++ % 2 == 0) {
          cp.state_mut().set_interconnect_active(ic, false);
        }
        break;
      }
    }
    ASSERT_GE(diamonds, 2u);
    shoot(1500);
    // 103 and 77 of the first 1500 shots hash across a diamond on these
    // seeds; 43 and 32 of the next 1500, with half the diamonds cut.
    const std::size_t crossed_after = crossed_ecmp - crossed_before;
    EXPECT_GE(crossed_before, 50u) << "seed " << seed;
    EXPECT_GT(crossed_after, 0u) << "seed " << seed;
    EXPECT_LT(crossed_after, crossed_before) << "seed " << seed;
    EXPECT_GT(reached, shots / 2);
  }
}

// The resolver's reused path and the prober's kept one: a reachable shot
// after an unreachable one (a destination nobody announces) and after a
// partitioned one (every interconnect of a link on its route down while
// the cached route still crosses it) must match the reference exactly.
TEST(PublicTraceOracle, ReusedPathsMatchAfterUnreachableAndPartitioned) {
  topo::TopologyParams shape;
  shape.seed = 91;
  topo::Topology topology = topo::build_topology(shape);
  routing::ControlPlane cp(topology, 91);
  PlatformParams plat;
  plat.num_probes = 120;
  plat.num_anchors = 20;
  plat.seed = 91;
  const ProberParams prober;
  Platform platform(cp, prober, plat);
  ReferenceTracer reference(cp, prober);

  // A regular probe and a destination at least three ASes away.
  const Probe* probe = nullptr;
  Ipv4 dst;
  routing::ForwardPath far;
  Rng rng(92);
  for (int attempt = 0; attempt < 1000 && probe == nullptr; ++attempt) {
    const auto& probes = platform.regular_probes();
    const Probe& candidate = platform.probe(probes[rng.index(probes.size())]);
    const Ipv4 target = topology.allocate_host_ip(
        static_cast<topo::AsIndex>(rng.index(topology.as_count())));
    far = reference.resolve(candidate.as, candidate.city, target, 5);
    if (far.reachable && far.as_path.size() >= 3) {
      probe = &candidate;
      dst = target;
    }
  }
  ASSERT_NE(probe, nullptr);
  const Ipv4 unannounced(0xCB007107u);  // 203.0.113.7
  ASSERT_EQ(topology.announced_owner_of(unannounced), topo::kNoAs);

  routing::ForwardPath reused;
  auto check = [&](Ipv4 target, const char* what) {
    SCOPED_TRACE(what);
    cp.resolver().resolve(probe->as, probe->city, target, 5, true, reused);
    const routing::ForwardPath theirs =
        reference.resolve(probe->as, probe->city, target, 5);
    EXPECT_TRUE(same_path(reused, theirs));
    const TimePoint t(100);
    EXPECT_TRUE(same_trace(platform.prober().measure(*probe, target, t, 5),
                           reference.measure(*probe, target, t, 5)));
    return theirs.reachable;
  };
  EXPECT_TRUE(check(dst, "reachable"));
  EXPECT_FALSE(check(unannounced, "unreachable"));
  EXPECT_TRUE(check(dst, "reachable after unreachable"));

  const topo::LinkId cut =
      topology.link_between(far.as_path[1], far.as_path[2]);
  for (topo::InterconnectId ic : topology.link_at(cut).interconnects) {
    cp.state_mut().set_interconnect_active(ic, false);
  }
  EXPECT_FALSE(check(dst, "partitioned"));
  for (topo::InterconnectId ic : topology.link_at(cut).interconnects) {
    cp.state_mut().set_interconnect_active(ic, true);
  }
  EXPECT_TRUE(check(dst, "reachable after partitioned"));
}

}  // namespace
}  // namespace rrr::tr
