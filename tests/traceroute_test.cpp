// Tests for the measurement platform and prober (src/traceroute).
#include <gtest/gtest.h>

#include <set>

#include "topology/builder.h"
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

}  // namespace
}  // namespace rrr::tr
