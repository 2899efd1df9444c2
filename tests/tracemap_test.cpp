// Tests for the Appendix-A traceroute processing pipeline (src/tracemap).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "netbase/rng.h"
#include "routing/control_plane.h"
#include "store/codec.h"
#include "topology/builder.h"
#include "tracemap/pipeline.h"
#include "traceroute/platform.h"

namespace rrr::tracemap {
namespace {

topo::Topology small_topology(std::uint64_t seed = 51) {
  topo::TopologyParams params;
  params.num_tier1 = 4;
  params.num_transit = 16;
  params.num_stub = 40;
  params.seed = seed;
  return topo::build_topology(params);
}

TEST(Ip2As, MapsAnnouncedSpaceAndIxpLans) {
  topo::Topology topology = small_topology();
  Ip2As ip2as = build_ip2as(topology, /*ixp_interface_coverage=*/1.0, 1);
  // Announced host space maps to the owner.
  MapResult host = ip2as.map(Ipv4(topo::as_block(3).network().value() + 9));
  EXPECT_EQ(host.asn, topology.as_at(3).asn);
  EXPECT_FALSE(host.is_ixp);
  // IXP interfaces map to their member with full coverage.
  for (const topo::Interconnect& ic : topology.interconnects()) {
    if (ic.ixp == topo::kNoIxp) continue;
    MapResult side_b = ip2as.map(ic.ip_b);
    EXPECT_TRUE(side_b.is_ixp);
    EXPECT_EQ(side_b.ixp, ic.ixp);
    EXPECT_EQ(side_b.asn, topology.as_at(topology.link_at(ic.link).b).asn);
    break;
  }
}

TEST(Ip2As, UnknownIxpInterfaceStaysIxpButUnmapped) {
  topo::Topology topology = small_topology();
  Ip2As ip2as = build_ip2as(topology, /*ixp_interface_coverage=*/0.0, 1);
  for (const topo::Interconnect& ic : topology.interconnects()) {
    if (ic.ixp == topo::kNoIxp) continue;
    MapResult result = ip2as.map(ic.ip_b);
    EXPECT_TRUE(result.is_ixp);
    EXPECT_FALSE(result.mapped());
    break;
  }
}

TEST(Alias, FullCoverageGroupsAllInterfaces) {
  topo::Topology topology = small_topology();
  AliasParams params;
  params.coverage = 1.0;
  AliasResolver resolver(topology, params);
  for (const topo::Router& router : topology.routers()) {
    if (router.interfaces.size() < 2) continue;
    RouterKey first = resolver.resolve(router.interfaces[0]);
    EXPECT_TRUE(first.resolved());
    for (Ipv4 ip : router.interfaces) {
      EXPECT_EQ(resolver.resolve(ip), first);
    }
  }
}

TEST(Alias, ZeroCoverageYieldsSingletons) {
  topo::Topology topology = small_topology();
  AliasParams params;
  params.coverage = 0.0;
  AliasResolver resolver(topology, params);
  for (const topo::Router& router : topology.routers()) {
    if (router.interfaces.size() < 2) continue;
    EXPECT_NE(resolver.resolve(router.interfaces[0]),
              resolver.resolve(router.interfaces[1]));
    EXPECT_FALSE(resolver.resolve(router.interfaces[0]).resolved());
    break;
  }
}

TEST(Geolocate, FullCoverageIsExact) {
  topo::Topology topology = small_topology();
  GeoParams params;
  params.ipmap_coverage = 1.0;
  Geolocator geo(topology, params);
  for (const topo::Router& router : topology.routers()) {
    for (Ipv4 ip : router.interfaces) {
      auto city = geo.locate(ip);
      ASSERT_TRUE(city.has_value());
      EXPECT_EQ(*city, router.city);
      EXPECT_EQ(geo.method(ip), GeoMethod::kIpMap);
    }
  }
}

TEST(Geolocate, UnknownAddressesAreUnlocated) {
  topo::Topology topology = small_topology();
  Geolocator geo(topology, {});
  EXPECT_FALSE(geo.locate(*Ipv4::parse("203.0.113.7")).has_value());
  EXPECT_EQ(geo.method(*Ipv4::parse("203.0.113.7")), GeoMethod::kNone);
}

TEST(HopPatcher, FillsUniquelyDeterminedStars) {
  topo::Topology topology = small_topology();
  ProcessingContext processing(topology, {});
  const Ipv4 a = *Ipv4::parse("1.1.1.1"), b = *Ipv4::parse("2.2.2.2"),
             c = *Ipv4::parse("3.3.3.3");
  tr::Traceroute teach;
  teach.hops = {{a, 1.0}, {b, 2.0}, {c, 3.0}};
  processing.ingest(teach);
  EXPECT_EQ(processing.patcher().unique_middle(a, c), b);
  EXPECT_FALSE(processing.patcher().unique_middle(c, a).has_value());

  tr::Traceroute broken = teach;
  broken.hops[1].ip.reset();
  const ProcessedTrace patched = processing.process(broken);
  ASSERT_TRUE(patched.hops[1].responded());
  EXPECT_EQ(*patched.hops[1].ip, b);
  EXPECT_EQ(patched.hops[1].asn, processing.process(teach).hops[1].asn);
  EXPECT_FALSE(broken.hops[1].responded());  // the raw trace is untouched

  // A star needs a responding hop on both sides.
  broken.hops[0].ip.reset();
  const ProcessedTrace unflanked = processing.process(broken);
  EXPECT_FALSE(unflanked.hops[0].responded());
  EXPECT_FALSE(unflanked.hops[1].responded());
}

TEST(HopPatcher, AmbiguousMiddlesStayWild) {
  topo::Topology topology = small_topology();
  ProcessingContext processing(topology, {});
  const Ipv4 a = *Ipv4::parse("1.1.1.1"), c = *Ipv4::parse("3.3.3.3");
  tr::Traceroute seen;
  seen.hops = {{a, 1.0}, {*Ipv4::parse("2.2.2.2"), 2.0}, {c, 3.0}};
  processing.ingest(seen);
  seen.hops[1].ip = *Ipv4::parse("9.9.9.9");  // a second observed middle
  processing.ingest(seen);
  EXPECT_FALSE(processing.patcher().unique_middle(a, c).has_value());

  tr::Traceroute broken = seen;
  broken.hops[1].ip.reset();
  EXPECT_FALSE(processing.process(broken).hops[1].responded());
}

// A std::map / std::set triple store with HopPatcher's encoding: the
// straightforward layout the open-addressing store must agree with,
// observation for observation and byte for byte. Its patch() is the
// copy-then-patch path TraceProcessor replaced, kept as the oracle.
class ReferencePatcher {
 public:
  void observe(const tr::Traceroute& trace) {
    const auto& hops = trace.hops;
    for (std::size_t i = 1; i + 1 < hops.size(); ++i) {
      if (hops[i - 1].responded() && hops[i].responded() &&
          hops[i + 1].responded()) {
        middles_[{*hops[i - 1].ip, *hops[i + 1].ip}].insert(*hops[i].ip);
      }
    }
  }

  std::optional<Ipv4> unique_middle(Ipv4 prev, Ipv4 next) const {
    auto it = middles_.find({prev, next});
    if (it == middles_.end() || it->second.size() != 1) return std::nullopt;
    return *it->second.begin();
  }

  tr::Traceroute patch(const tr::Traceroute& trace) const {
    tr::Traceroute patched = trace;
    auto& hops = patched.hops;
    for (std::size_t i = 1; i + 1 < hops.size(); ++i) {
      if (!hops[i].responded() && hops[i - 1].responded() &&
          hops[i + 1].responded()) {
        if (auto middle = unique_middle(*hops[i - 1].ip, *hops[i + 1].ip)) {
          hops[i].ip = middle;
          hops[i].rtt_ms = (hops[i - 1].rtt_ms + hops[i + 1].rtt_ms) / 2.0;
        }
      }
    }
    return patched;
  }

  std::string save_state() const {
    store::Encoder enc;
    enc.u64(middles_.size());
    for (const auto& [ends, mids] : middles_) {
      store::put(enc, ends.first);
      store::put(enc, ends.second);
      enc.u64(mids.size());
      for (Ipv4 mid : mids) store::put(enc, mid);
    }
    return enc.take();
  }

  const std::map<std::pair<Ipv4, Ipv4>, std::set<Ipv4>>& middles() const {
    return middles_;
  }

 private:
  std::map<std::pair<Ipv4, Ipv4>, std::set<Ipv4>> middles_;
};

std::string saved(const HopPatcher& patcher) {
  store::Encoder enc;
  patcher.save_state(enc);
  return enc.take();
}

// Seeded traces over a 64-address pool starting at `base`. Each address
// steps to four of the next five addresses, the first step far likelier, so
// triples repeat and many (prev, next) pairs gain two to four middles; 10%
// of the hops are stars.
class PoolTraces {
 public:
  PoolTraces(std::uint64_t seed, std::uint32_t base = 0x0A000001u)
      : rng_(seed), base_(base) {
    for (std::uint32_t at = 0; at < kPool; ++at) {
      std::vector<std::uint32_t> steps = {1, 2, 3, 4, 5};
      rng_.shuffle(steps);
      for (std::size_t j = 0; j < 4; ++j) {
        successors_[at][j] = (at + steps[j]) % kPool;
      }
    }
  }

  Ipv4 address(std::uint32_t i) const { return Ipv4(base_ + i); }

  tr::Traceroute next() {
    tr::Traceroute trace;
    auto at = static_cast<std::uint32_t>(rng_.index(kPool));
    const std::int64_t length = rng_.uniform_int(2, 14);
    for (std::int64_t h = 0; h < length; ++h) {
      tr::Hop hop;
      if (!rng_.bernoulli(0.1)) hop.ip = address(at);
      hop.rtt_ms = 1.0 + static_cast<double>(h) + rng_.uniform();
      trace.hops.push_back(hop);
      at = successors_[at][rng_.weighted_index({16.0, 2.0, 1.0, 1.0})];
    }
    return trace;
  }

 private:
  static constexpr std::size_t kPool = 64;
  Rng rng_;
  std::uint32_t base_;
  std::array<std::array<std::uint32_t, 4>, kPool> successors_{};
};

TEST(HopPatcher, HashedStoreMatchesTreeReference) {
  HopPatcher patcher;
  ReferencePatcher reference;
  // Halfway through, a second pool's pairs start to arrive, so the table
  // doubles while it already holds unique and ambiguous pairs. It doubles
  // whenever its pair count passes a power of two.
  PoolTraces traces(77);
  PoolTraces later(79, 0x0B000001u);
  std::size_t last_pairs = 0;
  bool grew_between_checks = false;
  for (int i = 1; i <= 6000; ++i) {
    const tr::Traceroute trace =
        i > 3000 && i % 2 == 0 ? later.next() : traces.next();
    patcher.observe(trace);
    reference.observe(trace);
    if (i % 250 == 0) {
      ASSERT_EQ(saved(patcher), reference.save_state()) << i;
      const std::size_t pairs = reference.middles().size();
      grew_between_checks |=
          last_pairs > 0 && std::bit_width(pairs) > std::bit_width(last_pairs);
      last_pairs = pairs;
    }
  }
  EXPECT_TRUE(grew_between_checks);
  // The pool shape must give both unique and ambiguous pairs.
  std::size_t most_middles = 0, unique = 0;
  for (const auto& [ends, mids] : reference.middles()) {
    most_middles = std::max(most_middles, mids.size());
    unique += mids.size() == 1;
  }
  EXPECT_GE(most_middles, 3u);
  EXPECT_GT(unique, reference.middles().size() / 4);

  for (const auto& [ends, mids] : reference.middles()) {
    ASSERT_EQ(patcher.unique_middle(ends.first, ends.second),
              reference.unique_middle(ends.first, ends.second));
  }
  Rng pick(78);
  for (int i = 0; i < 200; ++i) {
    // Pairs the pools never produce: one end outside both.
    const Ipv4 inside =
        traces.address(static_cast<std::uint32_t>(pick.index(64)));
    const Ipv4 outside(0xC0000200u + static_cast<std::uint32_t>(i));
    const bool outside_first = pick.bernoulli(0.5);
    const Ipv4 prev = outside_first ? outside : inside;
    const Ipv4 next = outside_first ? inside : outside;
    ASSERT_FALSE(patcher.unique_middle(prev, next).has_value());
    ASSERT_FALSE(reference.unique_middle(prev, next).has_value());
  }

  // Every star flanked by responding hops gets the reference's answer.
  std::size_t filled = 0;
  for (int i = 0; i < 200; ++i) {
    const tr::Traceroute trace = traces.next();
    const auto& hops = trace.hops;
    for (std::size_t h = 1; h + 1 < hops.size(); ++h) {
      if (hops[h].responded() || !hops[h - 1].responded() ||
          !hops[h + 1].responded()) {
        continue;
      }
      const std::optional<Ipv4> mine =
          patcher.unique_middle(*hops[h - 1].ip, *hops[h + 1].ip);
      ASSERT_EQ(mine,
                reference.unique_middle(*hops[h - 1].ip, *hops[h + 1].ip))
          << i << "/" << h;
      filled += mine.has_value();
    }
  }
  EXPECT_GT(filled, 0u);

  const std::string bytes = saved(patcher);
  HopPatcher loaded;
  store::Decoder dec(bytes);
  loaded.load_state(dec);
  dec.expect_done();
  EXPECT_EQ(saved(loaded), bytes);

  // A load that throws leaves the store as it was: a truncated section, a
  // count past the payload, and the reference's pairs with the last two
  // swapped, which fails only after every other pair was read.
  std::vector<std::pair<std::pair<Ipv4, Ipv4>, std::set<Ipv4>>> entries(
      reference.middles().begin(), reference.middles().end());
  std::swap(entries[entries.size() - 2], entries.back());
  store::Encoder unordered;
  unordered.u64(entries.size());
  for (const auto& [ends, mids] : entries) {
    store::put(unordered, ends.first);
    store::put(unordered, ends.second);
    unordered.u64(mids.size());
    for (Ipv4 mid : mids) store::put(unordered, mid);
  }
  for (const std::string& damaged :
       {bytes.substr(0, bytes.size() - 3), std::string(bytes.size(), '\xFF'),
        unordered.take()}) {
    store::Decoder bad(damaged);
    EXPECT_THROW(loaded.load_state(bad), store::StoreError);
    ASSERT_EQ(saved(loaded), bytes);
  }
  for (const auto& [ends, mids] : reference.middles()) {
    ASSERT_EQ(loaded.unique_middle(ends.first, ends.second),
              reference.unique_middle(ends.first, ends.second));
  }
}

class ProcessingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    topology_ = small_topology(61);
    cp_ = std::make_unique<routing::ControlPlane>(topology_, 61);
    tr::PlatformParams plat;
    plat.num_probes = 60;
    plat.num_anchors = 10;
    plat.seed = 61;
    tr::ProberParams prober;
    prober.seed = 61;
    prober.silent_router_fraction = 0.0;
    prober.intermittent_loss_prob = 0.0;
    prober.unresponsive_destination_prob = 0.0;
    platform_ = std::make_unique<tr::Platform>(*cp_, prober, plat);
    PipelineParams pipeline;
    pipeline.alias.coverage = 1.0;
    pipeline.geo.ipmap_coverage = 1.0;
    pipeline.ixp_interface_coverage = 1.0;
    pipeline.seed = 61;
    processing_ = std::make_unique<ProcessingContext>(topology_, pipeline);
  }
  topo::Topology topology_;
  std::unique_ptr<routing::ControlPlane> cp_;
  std::unique_ptr<tr::Platform> platform_;
  std::unique_ptr<ProcessingContext> processing_;
};

TEST_F(ProcessingFixture, AsPathMatchesControlPlane) {
  // With perfect mapping/noise-free measurement, the processed AS path must
  // equal the control-plane AS path.
  int checked = 0;
  for (tr::ProbeId probe_id : platform_->regular_probes()) {
    Ipv4 dst = platform_->probe(platform_->anchors()[0]).ip;
    tr::Traceroute trace = platform_->issue(probe_id, dst, TimePoint(0), 0);
    if (!trace.reached) continue;
    ProcessedTrace processed = processing_->process(trace);
    const tr::Probe& probe = platform_->probe(probe_id);
    topo::AsIndex origin = topology_.announced_owner_of(dst);
    const routing::Route& route = cp_->table_for(origin).at(probe.as);
    if (!route.reachable()) continue;
    ASSERT_FALSE(processed.has_as_loop);
    EXPECT_EQ(processed.as_path, route.path)
        << "processed " << to_string(processed.as_path) << " vs control "
        << to_string(route.path);
    // One border per AS transition.
    EXPECT_EQ(processed.borders.size(), route.path.size() - 1);
    if (++checked >= 10) break;
  }
  EXPECT_GE(checked, 5);
}

TEST_F(ProcessingFixture, BorderRouterPathMatchesGroundTruthCrossings) {
  tr::ProbeId probe_id = platform_->regular_probes()[1];
  const tr::Probe& probe = platform_->probe(probe_id);
  Ipv4 dst = platform_->probe(platform_->anchors()[1]).ip;
  tr::Traceroute trace = platform_->issue(probe_id, dst, TimePoint(0), 0);
  if (!trace.reached) GTEST_SKIP();
  ProcessedTrace processed = processing_->process(trace);
  routing::ForwardPath truth = cp_->resolver().resolve(
      probe.as, probe.city, dst, trace.flow_id);
  ASSERT_EQ(processed.borders.size(), truth.crossings.size());
  for (std::size_t i = 0; i < processed.borders.size(); ++i) {
    // The inferred far side must physically belong to the entered AS. (It
    // is not always the interconnect's ingress interface: messy PNIs are
    // numbered from the near side's block, so LPM places the AS transition
    // one hop later — the "assume both IPs are part of the border" case.)
    EXPECT_EQ(topology_.true_owner_of(processed.borders[i].far_ip),
              truth.crossings[i].to_as);
    EXPECT_EQ(processed.borders[i].far_as,
              topology_.as_at(truth.crossings[i].to_as).asn);
  }
}

TEST_F(ProcessingFixture, ClassifyChangeDistinguishesGranularities) {
  tr::ProbeId probe_id = platform_->regular_probes()[2];
  Ipv4 dst = platform_->probe(platform_->anchors()[2]).ip;
  tr::Traceroute trace = platform_->issue(probe_id, dst, TimePoint(0), 0);
  ProcessedTrace a = processing_->process(trace);
  EXPECT_EQ(classify_change(a, a), ChangeKind::kNone);
  // Tamper with a border router identity: border-level change.
  ProcessedTrace b = a;
  if (!b.borders.empty()) {
    b.borders[0].border_router.value ^= 1;
    EXPECT_EQ(classify_change(a, b), ChangeKind::kBorderLevel);
  }
  // Tamper with the AS path: AS-level change dominates.
  ProcessedTrace c = a;
  if (!c.as_path.empty()) {
    c.as_path[0] = Asn(64999);
    EXPECT_EQ(classify_change(a, c), ChangeKind::kAsLevel);
  }
}

// TraceProcessor as it was before the hop-annotation table and patching
// while annotating: a patched copy of the trace, then Ip2As::map,
// AliasResolver::resolve and Geolocator::locate for every responded hop,
// then a std::set loop check. It patches from its own tree store, fed the
// same observations. Each lookup is a pure function
// of the topology and the params, so building its own from the same inputs
// gives the answers the table must hold.
class ReferenceProcessor {
 public:
  ReferenceProcessor(const topo::Topology& topology,
                     const PipelineParams& params,
                     const ReferencePatcher& patcher)
      : ip2as_(build_ip2as(topology, params.ixp_interface_coverage,
                           params.seed)),
        aliases_(topology, params.alias),
        geo_(topology, params.geo),
        patcher_(patcher) {}

  ProcessedTrace process(const tr::Traceroute& raw) const {
    tr::Traceroute trace = patcher_.patch(raw);

    ProcessedTrace out;
    out.trace_id = trace.id;
    out.probe = trace.probe;
    out.src_ip = trace.src_ip;
    out.dst_ip = trace.dst_ip;
    out.time = trace.time;
    out.reached = trace.reached;
    for (const tr::Hop& hop : trace.hops) {
      ProcessedHop ph;
      if (hop.responded()) {
        ph.ip = hop.ip;
        MapResult mapped = ip2as_.map(*hop.ip);
        ph.asn = mapped.asn;
        ph.is_ixp = mapped.is_ixp;
        ph.ixp = mapped.ixp;
        ph.router = aliases_.resolve(*hop.ip);
        ph.city = geo_.locate(*hop.ip);
      }
      out.hops.push_back(ph);
    }

    Asn last_mapped;
    for (const ProcessedHop& hop : out.hops) {
      if (!hop.responded() || !hop.asn.is_valid()) continue;
      if (hop.asn != last_mapped) {
        out.as_path.push_back(hop.asn);
        last_mapped = hop.asn;
      }
    }
    std::set<Asn> seen;
    for (Asn asn : out.as_path) {
      if (!seen.insert(asn).second) {
        out.has_as_loop = true;
        break;
      }
    }
    if (out.has_as_loop) out.as_path.clear();

    int prev = -1;
    for (std::size_t i = 0; i < out.hops.size(); ++i) {
      const ProcessedHop& hop = out.hops[i];
      if (!hop.responded() || !hop.asn.is_valid()) continue;
      if (prev >= 0) {
        const ProcessedHop& near = out.hops[static_cast<std::size_t>(prev)];
        if (near.asn != hop.asn) {
          BorderView border;
          border.near_index = static_cast<std::size_t>(prev);
          border.far_index = i;
          border.near_as = near.asn;
          border.far_as = hop.asn;
          border.near_ip = *near.ip;
          border.far_ip = *hop.ip;
          border.border_router = hop.router;
          border.via_ixp = hop.is_ixp || near.is_ixp;
          border.near_city = near.city;
          border.far_city = hop.city;
          out.borders.push_back(border);
        }
      }
      prev = static_cast<int>(i);
    }
    return out;
  }

 private:
  Ip2As ip2as_;
  AliasResolver aliases_;
  Geolocator geo_;
  const ReferencePatcher& patcher_;
};

::testing::AssertionResult same_processed(const ProcessedTrace& mine,
                                          const ProcessedTrace& theirs) {
  if (mine.trace_id != theirs.trace_id || mine.probe != theirs.probe ||
      mine.src_ip != theirs.src_ip || mine.dst_ip != theirs.dst_ip ||
      mine.time != theirs.time || mine.reached != theirs.reached) {
    return ::testing::AssertionFailure() << "trace header differs";
  }
  if (mine.hops.size() != theirs.hops.size()) {
    return ::testing::AssertionFailure() << "hop count differs";
  }
  for (std::size_t h = 0; h < mine.hops.size(); ++h) {
    const ProcessedHop& a = mine.hops[h];
    const ProcessedHop& b = theirs.hops[h];
    if (a.ip != b.ip || a.asn != b.asn || a.is_ixp != b.is_ixp ||
        a.ixp != b.ixp || a.router != b.router || a.city != b.city) {
      return ::testing::AssertionFailure()
             << "hop " << h << " (" << (b.ip ? b.ip->to_string() : "*")
             << ") differs";
    }
  }
  if (mine.as_path != theirs.as_path) {
    return ::testing::AssertionFailure() << "AS path differs";
  }
  if (mine.has_as_loop != theirs.has_as_loop) {
    return ::testing::AssertionFailure() << "loop flag differs";
  }
  if (mine.borders != theirs.borders) {
    return ::testing::AssertionFailure() << "borders differ";
  }
  return ::testing::AssertionSuccess();
}

tr::Traceroute hand_trace(std::uint64_t id,
                          std::initializer_list<std::optional<Ipv4>> ips) {
  tr::Traceroute trace;
  trace.id = id;
  double rtt = 1.0;
  for (const std::optional<Ipv4>& ip : ips) {
    trace.hops.push_back(tr::Hop{ip, rtt});
    rtt += 2.5;
  }
  return trace;
}

TEST(TraceProcessor, FlatTableMatchesPerHopLookups) {
  topo::TopologyParams shape;
  shape.seed = 87;
  topo::Topology topology = topo::build_topology(shape);
  routing::ControlPlane cp(topology, 87);
  tr::PlatformParams plat;
  plat.num_probes = 120;
  plat.num_anchors = 20;
  plat.seed = 87;
  tr::Platform platform(cp, tr::ProberParams{}, plat);
  const PipelineParams params;
  ProcessingContext processing(topology, params);
  ReferencePatcher patcher;
  const ReferenceProcessor reference(topology, params, patcher);
  auto ingest = [&](const tr::Traceroute& trace) {
    processing.ingest(trace);
    patcher.observe(trace);
  };

  // Public-feed-shaped traces: random probes toward 120 destinations, half
  // of them anchors, with Paris flow variants 0-15. The topology seed is one
  // whose traces cross IXP interfaces the PeeringDB-like dump misses.
  Rng rng(88);
  std::vector<Ipv4> dests;
  for (int i = 0; i < 120; ++i) {
    const auto& anchors = platform.anchors();
    dests.push_back(
        i % 2 == 0 ? platform.probe(anchors[(i / 2) % anchors.size()]).ip
                   : topology.allocate_host_ip(static_cast<topo::AsIndex>(
                         rng.index(topology.as_count()))));
  }
  constexpr int kTraces = 4800;
  std::vector<tr::Traceroute> traces;
  for (int i = 0; i < kTraces; ++i) {
    const auto& probes = platform.regular_probes();
    traces.push_back(platform.issue(
        probes[rng.index(probes.size())], dests[rng.index(dests.size())],
        TimePoint(i), static_cast<int>(rng.uniform_int(0, 15))));
  }
  for (int i = 0; i < kTraces / 2; ++i) ingest(traces[i]);

  std::size_t stars = 0, patched = 0, singletons = 0, unlocated = 0,
              unknown_members = 0, off_table = 0;
  for (int i = kTraces / 2; i < kTraces; ++i) {
    const ProcessedTrace theirs = reference.process(traces[i]);
    ASSERT_TRUE(same_processed(processing.process(traces[i]), theirs))
        << "trace " << i;
    for (std::size_t h = 0; h < theirs.hops.size(); ++h) {
      const ProcessedHop& hop = theirs.hops[h];
      if (!hop.responded()) {
        ++stars;
        continue;
      }
      patched += !traces[i].hops[h].responded();
      singletons += !hop.router.resolved();
      unlocated += !hop.city.has_value();
      unknown_members += hop.is_ixp && !hop.asn.is_valid();
      off_table += topology.router_of_interface(*hop.ip) == topo::kNoRouter;
    }
  }
  // The lossy defaults must reach every branch of an annotation.
  EXPECT_GT(stars, 0u);
  EXPECT_GT(patched, 0u);
  EXPECT_GT(singletons, 0u);
  EXPECT_GT(unlocated, 0u);
  EXPECT_GT(unknown_members, 0u);
  EXPECT_GT(off_table, 0u);

  // Hand-built traces. Addresses allocated after the context was built are
  // missing from its table and answered by the fallback.
  const Ip2As ip2as =
      build_ip2as(topology, params.ixp_interface_coverage, params.seed);
  std::vector<Ipv4> interfaces;
  std::map<Asn, std::vector<Ipv4>> by_as;
  for (const topo::Router& router : topology.routers()) {
    for (Ipv4 ip : router.interfaces) {
      interfaces.push_back(ip);
      const MapResult mapped = ip2as.map(ip);
      if (mapped.mapped() && !mapped.is_ixp) by_as[mapped.asn].push_back(ip);
    }
  }
  std::vector<Ipv4> looping;  // A, B, A after merging
  for (const auto& [asn, ips] : by_as) {
    if (ips.size() < 2) continue;
    const auto other = std::find_if(by_as.begin(), by_as.end(),
                                     [&](const auto& entry) {
                                       return entry.first != asn;
                                     });
    looping = {ips[0], other->second[0], ips[1]};
    break;
  }
  ASSERT_EQ(looping.size(), 3u);

  const Ipv4 host = topology.allocate_host_ip(5);
  const Ipv4 infra = topology.allocate_infra_ip(7);
  const Ipv4 lan = topology.allocate_ixp_ip(topology.ixps().front().id);
  const Ipv4 test_net(0xCB007107u);  // 203.0.113.7
  const Ipv4 p = interfaces[0], m1 = interfaces[1], m2 = interfaces[2],
             n = interfaces[3], q = interfaces[4];
  ingest(hand_trace(1, {p, m1, n}));  // (p, n): one middle
  ingest(hand_trace(2, {q, m1, n}));  // (q, n): two middles
  ingest(hand_trace(3, {q, m2, n}));

  const std::vector<tr::Traceroute> hand = {
      hand_trace(10, {p, m1, host}),
      hand_trace(11, {infra, p, lan, n}),
      hand_trace(12, {test_net, std::nullopt, m1}),
      hand_trace(13, {p, std::nullopt, n}),
      hand_trace(14, {q, std::nullopt, n}),
      hand_trace(15, {looping[0], looping[1], looping[2]}),
  };
  for (const tr::Traceroute& trace : hand) {
    ASSERT_TRUE(same_processed(processing.process(trace),
                               reference.process(trace)))
        << "hand trace " << trace.id;
  }
  const ProcessedTrace lan_hop = processing.process(hand[1]);
  EXPECT_TRUE(lan_hop.hops[0].asn.is_valid());  // infra space is announced
  EXPECT_TRUE(lan_hop.hops[2].is_ixp);
  EXPECT_FALSE(lan_hop.hops[2].router.resolved());
  EXPECT_FALSE(processing.process(hand[2]).hops[0].asn.is_valid());
  EXPECT_EQ(processing.process(hand[3]).hops[1].ip, m1);
  EXPECT_FALSE(processing.process(hand[4]).hops[1].responded());
  const ProcessedTrace loop = processing.process(hand[5]);
  EXPECT_TRUE(loop.has_as_loop);
  EXPECT_TRUE(loop.as_path.empty());

  // The engine's path: ingest into one reused ProcessedTrace. A reachable
  // trace after an unreachable one (no hops), an AS-loop one and a patched
  // one must leave nothing of them behind.
  ProcessedTrace reused;
  auto ingest_reused = [&](const tr::Traceroute& trace) {
    processing.ingest(trace, reused);
    patcher.observe(trace);
    return same_processed(reused, reference.process(trace));
  };
  const tr::Traceroute& reachable = traces[kTraces - 1];
  ASSERT_TRUE(reachable.reached);
  const tr::Traceroute unreachable = hand_trace(16, {});
  for (const tr::Traceroute* before : {&unreachable, &hand[5], &hand[3]}) {
    ASSERT_TRUE(ingest_reused(*before)) << "trace " << before->id;
    ASSERT_TRUE(ingest_reused(reachable)) << "after trace " << before->id;
  }
  for (int i = kTraces / 2; i < kTraces; ++i) {
    ASSERT_TRUE(ingest_reused(traces[i])) << "trace " << i;
  }
}

}  // namespace
}  // namespace rrr::tracemap
