// Route rows (§4.1.1): VpTableView::row's per-destination memo, and the
// AS-path, community and burst watch kernels that read one row, against
// the per-lookup watch bodies they replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bgp/feed.h"
#include "bgp/table_view.h"
#include "netbase/rng.h"
#include "routing/control_plane.h"
#include "routing/events.h"
#include "signals/aspath_monitor.h"
#include "signals/burst_monitor.h"
#include "signals/community_monitor.h"
#include "topology/builder.h"
#include "tracemap/pipeline.h"
#include "traceroute/platform.h"

namespace rrr::signals {
namespace {

// --- The per-lookup watch bodies, kept as oracles ---------------------------
//
// Each reads every VP's route through VpTableView::route(), per hop where
// the watches did, as they were before they shared one row per destination.

int first_intersection(const AsPath& path, const AsPath& tau) {
  for (Asn asn : path) {
    int idx = index_of(tau, asn);
    if (idx >= 0) return idx;
  }
  return -1;
}

// AS path: V0 from each VP's route, then each hop's standing counts from
// V0's routes (AsPathMonitor::standing_counts).
std::vector<PinnedHop> lookup_pin_hops(
    const bgp::VpTableView& table, const std::vector<bgp::VantagePoint>& vps,
    Ipv4 dst, const AsPath& tau) {
  std::vector<std::vector<bgp::VpId>> v0s(tau.size());
  for (const bgp::VantagePoint& vp : vps) {
    const bgp::VpRoute* route = table.route(vp.id, dst);
    if (route == nullptr || route->path.empty()) continue;
    int j = first_intersection(route->path, tau);
    if (j < 0) continue;
    v0s[static_cast<std::size_t>(j)].push_back(vp.id);
  }
  std::vector<PinnedHop> hops(tau.size());
  for (std::size_t j = 0; j < tau.size(); ++j) {
    std::sort(v0s[j].begin(), v0s[j].end());
    int num = 0;
    int den = 0;
    for (bgp::VpId vp : v0s[j]) {
      const bgp::VpRoute* standing = table.route(vp, dst);
      if (standing == nullptr || standing->path.empty()) continue;
      const AsPath& path = standing->path;
      int at = first_intersection(path, tau);
      if (at < 0 || static_cast<std::size_t>(at) != j) continue;
      ++den;
      if (suffix_matches(path,
                         static_cast<std::size_t>(index_of(path, tau[j])),
                         tau)) {
        ++num;
      }
    }
    hops[j].v0 = v0s[j];
    hops[j].baseline_ratio =
        den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 1.0;
  }
  return hops;
}

// Community: every VP's route looked up again for each hop.
std::vector<CommunitySet> lookup_baselines(
    const bgp::VpTableView& table, const std::vector<bgp::VantagePoint>& vps,
    Ipv4 dst, const AsPath& tau) {
  std::vector<CommunitySet> baselines(tau.size());
  for (std::size_t j = 0; j < tau.size(); ++j) {
    for (const bgp::VantagePoint& vp : vps) {
      const bgp::VpRoute* route = table.route(vp.id, dst);
      if (route == nullptr) continue;
      const AsPath& path = route->path;
      int pos = index_of(path, tau[j]);
      if (pos < 0 ||
          !suffix_matches(path, static_cast<std::size_t>(pos), tau)) {
        continue;
      }
      for (Community c : route->communities) {
        if (c.definer() == tau[j]) baselines[j].insert(c);
      }
    }
  }
  return baselines;
}

bool shares_suffix(const AsPath& path, const AsPath& suffix) {
  if (suffix.empty() || path.size() < suffix.size()) return false;
  return std::equal(suffix.begin(), suffix.end(),
                    path.end() - static_cast<std::ptrdiff_t>(suffix.size()));
}

void vp_insert(std::vector<bgp::VpId>& vps, bgp::VpId vp) {
  auto it = std::lower_bound(vps.begin(), vps.end(), vp);
  if (it == vps.end() || *it != vp) vps.insert(it, vp);
}

// Burst: per hop, V0 by suffix comparison, the extras from a map of
// off-τ ASes to the V0 VPs on them, and W^{k,d} by rescanning every VP
// path for each extra.
std::vector<BurstHop> lookup_burst_hops(
    const bgp::VpTableView& table, const std::vector<bgp::VantagePoint>& vps,
    Ipv4 dst, const AsPath& tau) {
  std::vector<std::pair<bgp::VpId, const AsPath*>> vp_paths;
  for (const bgp::VantagePoint& vp : vps) {
    const bgp::VpRoute* route = table.route(vp.id, dst);
    if (route != nullptr && !route->path.empty()) {
      vp_paths.emplace_back(vp.id, &route->path.view());
    }
  }
  std::vector<BurstHop> hops(tau.size());
  for (std::size_t j = 0; j < tau.size(); ++j) {
    AsPath suffix(tau.begin() + static_cast<std::ptrdiff_t>(j), tau.end());
    BurstHop& hop = hops[j];
    for (auto& [vp, path] : vp_paths) {
      if (shares_suffix(*path, suffix)) vp_insert(hop.v0, vp);
    }
    if (hop.v0.size() < 2) continue;
    std::map<Asn, std::set<bgp::VpId>> outside;
    for (auto& [vp, path] : vp_paths) {
      if (!std::binary_search(hop.v0.begin(), hop.v0.end(), vp)) continue;
      for (Asn asn : *path) {
        if (!contains(tau, asn)) outside[asn].insert(vp);
      }
    }
    for (auto& [asn, vps_on] : outside) {
      if (vps_on.size() < 2) continue;
      std::vector<bgp::VpId> w;
      for (auto& [vp, path] : vp_paths) {
        if (contains(*path, asn) && !shares_suffix(*path, suffix)) {
          vp_insert(w, vp);
        }
      }
      if (w.empty()) continue;
      std::size_t extra_index = hop.extras.size();
      hop.extras.emplace_back(asn, std::move(w));
      for (bgp::VpId vp : vps_on) hop.vp_extras[vp].push_back(extra_index);
    }
  }
  return hops;
}

// --- A warmed table and public-feed-shaped corpora --------------------------

constexpr int kAnchorDests = 12;
constexpr int kHostDests = 12;
// An event provoking at least this many updates makes a cut.
constexpr std::size_t kBusyEvent = 6;
// A cut lands this long after its event: jittered updates still in flight.
constexpr std::int64_t kCutLagSeconds = 25;

// A BGP table warmed the way World warms the engine's: a RIB dump for the
// origins of anchor destinations, then routing events' updates, each
// absorbed once its timestamp is due. The corpus traces are
// public-feed-shaped: random probes with Paris flow variants 0-15, toward
// the anchors (whose origins the feed carries) and toward hosts in random
// ASes (mostly without a route).
class WarmWorld {
 public:
  explicit WarmWorld(std::uint64_t seed)
      : topology_([seed] {
          topo::TopologyParams shape;
          shape.num_transit = 48;
          shape.num_stub = 200;
          shape.seed = seed;
          return topo::build_topology(shape);
        }()),
        cp_(topology_, seed),
        platform_(cp_, tr::ProberParams{}, [seed] {
          tr::PlatformParams params;
          params.num_probes = 160;
          params.num_anchors = 20;
          params.seed = seed;
          return params;
        }()),
        processing_(topology_, tracemap::PipelineParams{}),
        rng_(seed) {
    std::vector<topo::AsIndex> origins;
    for (int i = 0; i < kAnchorDests; ++i) {
      Ipv4 anchor =
          platform_.probe(platform_.anchors()[static_cast<std::size_t>(i)]).ip;
      dests_.push_back(anchor);
      topo::AsIndex origin = topology_.announced_owner_of(anchor);
      if (origin != topo::kNoAs) origins.push_back(origin);
    }
    for (int i = 0; i < kHostDests; ++i) {
      dests_.push_back(topology_.allocate_host_ip(
          static_cast<topo::AsIndex>(rng_.index(topology_.as_count()))));
    }
    std::sort(origins.begin(), origins.end());
    origins.erase(std::unique(origins.begin(), origins.end()), origins.end());

    std::vector<topo::AsIndex> candidates(topology_.as_count());
    for (topo::AsIndex as = 0; as < topology_.as_count(); ++as) {
      candidates[as] = as;
    }
    bgp::FeedParams feed_params;
    feed_params.seed = seed + 1;
    feed_ = std::make_unique<bgp::FeedSimulator>(cp_, feed_params, candidates,
                                                 origins);
    vps = feed_->vantage_points();
    std::vector<topo::AsIndex> vp_ases;
    for (const bgp::VantagePoint& vp : vps) {
      ids.push_back(vp.id);
      vp_ases.push_back(vp.as_index);
    }
    for (const topo::Ixp& ixp : topology_.ixps()) {
      route_servers.insert(ixp.route_server_asn);
    }
    table = std::make_unique<bgp::VpTableView>(route_servers, ids);

    for (const bgp::BgpRecord& record : feed_->initial_rib(now_)) {
      table->apply(record);
    }
    schedule_ = routing::generate_schedule(
        topology_, routing::DynamicsParams{}, now_, now_ + 8 * kSecondsPerDay,
        origins, vp_ases, seed + 2);
  }

  // Runs the routing events, absorbing each update once it is due, up to
  // kCutLagSeconds after the next event that provokes at least kBusyEvent
  // updates; later updates stay in flight, as between two window closes.
  // False once the schedule runs out.
  bool advance_to_busy_event() {
    while (next_event_ < schedule_.size()) {
      const routing::Event& event = schedule_[next_event_++];
      absorb_until(event.time);
      std::vector<bgp::BgpRecord> updates =
          feed_->on_event(event, cp_.apply(event));
      const std::size_t provoked = updates.size();
      in_flight_.insert(in_flight_.end(),
                        std::make_move_iterator(updates.begin()),
                        std::make_move_iterator(updates.end()));
      std::stable_sort(in_flight_.begin(), in_flight_.end(),
                       [](const bgp::BgpRecord& a, const bgp::BgpRecord& b) {
                         return a.time < b.time;
                       });
      if (provoked >= kBusyEvent) {
        absorb_until(event.time + kCutLagSeconds);
        return true;
      }
    }
    return false;
  }

  // `count` corpus views issued at the current time, skipping traces with
  // an empty AS path (no monitor watches those). Every other view goes to
  // a destination with an update in flight, where VPs disagree.
  std::vector<CorpusView> issue_views(int count) {
    std::vector<Ipv4> unsettled;
    for (Ipv4 dst : dests_) {
      for (const bgp::BgpRecord& record : in_flight_) {
        if (record.prefix.contains(dst)) {
          unsettled.push_back(dst);
          break;
        }
      }
    }
    std::vector<CorpusView> views;
    const std::vector<tr::ProbeId>& probes = platform_.regular_probes();
    for (int i = 0; i < count; ++i) {
      tr::ProbeId probe = probes[rng_.index(probes.size())];
      Ipv4 dst = i % 2 == 0 && !unsettled.empty()
                     ? unsettled[rng_.index(unsettled.size())]
                     : dests_[rng_.index(dests_.size())];
      tr::Traceroute trace = platform_.issue(
          probe, dst, now_, static_cast<int>(rng_.uniform_int(0, 15)));
      CorpusView view;
      view.key = tr::PairKey{probe, dst};
      view.processed = processing_.ingest(trace);
      if (!view.processed.as_path.empty()) views.push_back(std::move(view));
    }
    return views;
  }

  std::size_t in_flight() const { return in_flight_.size(); }

  std::vector<bgp::VantagePoint> vps;
  std::vector<bgp::VpId> ids;  // the VPs' ids, the table's row order
  std::set<Asn> route_servers;
  std::unique_ptr<bgp::VpTableView> table;

 private:
  void absorb_until(TimePoint t) {
    std::size_t due = 0;
    while (due < in_flight_.size() && in_flight_[due].time <= t) {
      table->apply(in_flight_[due++]);
    }
    in_flight_.erase(in_flight_.begin(),
                     in_flight_.begin() + static_cast<std::ptrdiff_t>(due));
    now_ = std::max(now_, t);
  }

  topo::Topology topology_;
  routing::ControlPlane cp_;
  tr::Platform platform_;
  tracemap::ProcessingContext processing_;
  Rng rng_;
  std::vector<Ipv4> dests_;
  std::unique_ptr<bgp::FeedSimulator> feed_;
  std::vector<routing::Event> schedule_;
  std::size_t next_event_ = 0;
  std::vector<bgp::BgpRecord> in_flight_;
  TimePoint now_{0};
};

// Every cell of `row` is the route() lookup of its VP, in the VP order the
// table was given.
void expect_row_is_lookups(const bgp::VpTableView& table,
                           const std::vector<bgp::VantagePoint>& vps,
                           Ipv4 dst, bgp::RouteRow row) {
  ASSERT_EQ(row.size(), vps.size());
  for (std::size_t i = 0; i < vps.size(); ++i) {
    ASSERT_EQ(row[i].vp, vps[i].id);
    ASSERT_EQ(row[i].route, table.route(vps[i].id, dst)) << "VP " << vps[i].id;
  }
}

void expect_same_pins(const std::vector<PinnedHop>& got,
                      const std::vector<PinnedHop>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < got.size(); ++j) {
    SCOPED_TRACE("hop " + std::to_string(j));
    EXPECT_EQ(got[j].v0, want[j].v0);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[j].baseline_ratio),
              std::bit_cast<std::uint64_t>(want[j].baseline_ratio));
  }
}

void expect_same_burst(const std::vector<BurstHop>& got,
                       const std::vector<BurstHop>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < got.size(); ++j) {
    SCOPED_TRACE("hop " + std::to_string(j));
    EXPECT_EQ(got[j].v0, want[j].v0);
    EXPECT_EQ(got[j].extras, want[j].extras);
    EXPECT_EQ(got[j].vp_extras, want[j].vp_extras);
  }
}

// What the oracle comparison reached, so a corpus too thin to exercise a
// field fails instead of passing vacuously.
struct Reach {
  std::size_t pinned_hops = 0;     // AS-path hops with a V0
  std::size_t partial_ratios = 0;  // ... whose standing ratio is below 1
  std::size_t baselines = 0;       // community hops with a baseline
  std::size_t burst_hops = 0;      // burst hops with |V0| >= 2
  std::size_t burst_misses = 0;    // ... of which some VP path is not in V0
  std::size_t extras = 0;          // extra ASes, each with a W^{k,d}
};

void compare_all(WarmWorld& world, const std::vector<CorpusView>& views,
                 Reach& reach) {
  for (const CorpusView& view : views) {
    SCOPED_TRACE("pair " + std::to_string(view.key.probe) + " -> " +
                 view.key.dst.to_string());
    const Ipv4 dst = view.key.dst;
    const AsPath& tau = view.processed.as_path;
    bgp::RouteRow row = world.table->row(dst);
    expect_row_is_lookups(*world.table, world.vps, dst, row);

    std::vector<PinnedHop> pins = pin_hops(tau, row);
    expect_same_pins(pins, lookup_pin_hops(*world.table, world.vps, dst, tau));
    std::vector<CommunitySet> baselines = hop_baselines(tau, row);
    EXPECT_EQ(baselines,
              lookup_baselines(*world.table, world.vps, dst, tau));
    std::vector<BurstHop> burst = burst_hops(tau, row);
    expect_same_burst(burst,
                      lookup_burst_hops(*world.table, world.vps, dst, tau));

    std::size_t with_paths = 0;
    for (const bgp::RowCell& cell : row) {
      with_paths += cell.route != nullptr && !cell.route->path.empty();
    }
    for (std::size_t j = 0; j < tau.size(); ++j) {
      reach.pinned_hops += !pins[j].v0.empty();
      reach.partial_ratios += pins[j].baseline_ratio < 1.0;
      reach.baselines += !baselines[j].empty();
      if (burst[j].v0.size() >= 2) {
        ++reach.burst_hops;
        reach.burst_misses += burst[j].v0.size() < with_paths;
      }
      reach.extras += burst[j].extras.size();
    }
  }
}

// Sixteen cuts per topology seed, each with updates in flight, and 60
// corpus views at each.
TEST(RouteRow, WatchKernelsMatchPerLookupWatchesOnWarmTables) {
  for (std::uint64_t seed : {84u, 91u}) {
    SCOPED_TRACE("topology seed " + std::to_string(seed));
    WarmWorld world(seed);
    Reach reach;
    std::size_t in_flight = 0;
    for (int cut = 0; cut < 16; ++cut) {
      SCOPED_TRACE("cut " + std::to_string(cut));
      ASSERT_TRUE(world.advance_to_busy_event());
      in_flight += world.in_flight();
      std::vector<CorpusView> views = world.issue_views(60);
      ASSERT_GT(views.size(), 30u);
      compare_all(world, views, reach);
    }
    EXPECT_GT(in_flight, 0u);
    EXPECT_GT(reach.pinned_hops, 0u);
    EXPECT_GT(reach.partial_ratios, 0u);
    EXPECT_GT(reach.baselines, 0u);
    EXPECT_GT(reach.burst_hops, 0u);
    EXPECT_GT(reach.burst_misses, 0u);
    EXPECT_GT(reach.extras, 0u);
  }
}

// The view whose destination has the most VPs without a route, and one of
// those VPs: announcing a covering prefix for it moves every kernel.
std::pair<const CorpusView*, std::size_t> routeless_vp(
    WarmWorld& world, const std::vector<CorpusView>& views) {
  const CorpusView* best = nullptr;
  std::size_t best_missing = 0;
  std::size_t vp_at = 0;
  for (const CorpusView& view : views) {
    bgp::RouteRow row = world.table->row(view.key.dst);
    std::size_t missing = 0;
    std::size_t first = 0;
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i].route != nullptr) continue;
      if (missing++ == 0) first = i;
    }
    // A routeless destination would leave every kernel empty either way.
    if (missing < row.size() && missing > best_missing) {
      best = &view;
      best_missing = missing;
      vp_at = first;
    }
  }
  return {best, vp_at};
}

// An announcement for the VP at `vp_at` of the view's destination /24,
// whose path is a private AS followed by τ: it pins the VP at τ's first
// hop, matching, and puts it in every suffix's V0.
bgp::BgpRecord announce_tau(const WarmWorld& world, const CorpusView& view,
                            std::size_t vp_at) {
  bgp::BgpRecord record;
  record.time = TimePoint(2 * kSecondsPerDay);
  record.type = bgp::RecordType::kAnnouncement;
  record.vp = world.vps[vp_at].id;
  record.prefix = Prefix(view.key.dst, 24);
  AsPath path = {Asn(64999)};
  for (Asn asn : view.processed.as_path) path.push_back(asn);
  record.as_path = path;
  record.communities =
      CommunitySet{Community(view.processed.as_path.front(), 4242)};
  return record;
}

// A row is memoized until the next write, and a record applied between two
// watches of one destination reaches the second.
TEST(RouteRow, ApplyBetweenWatchesReachesTheSecondWatch) {
  WarmWorld world(84);
  ASSERT_TRUE(world.advance_to_busy_event());
  const std::vector<CorpusView> views = world.issue_views(120);
  auto [view, vp_at] = routeless_vp(world, views);
  ASSERT_NE(view, nullptr) << "every VP routes every destination";
  const Ipv4 dst = view->key.dst;
  const AsPath& tau = view->processed.as_path;

  bgp::RouteRow first = world.table->row(dst);
  EXPECT_EQ(world.table->row(dst).data(), first.data()) << "not memoized";
  ASSERT_EQ(first[vp_at].route, nullptr);
  std::vector<PinnedHop> pins_before = pin_hops(tau, first);
  std::vector<BurstHop> burst_before = burst_hops(tau, first);

  ASSERT_TRUE(world.table->apply(announce_tau(world, *view, vp_at)));
  bgp::RouteRow second = world.table->row(dst);
  expect_row_is_lookups(*world.table, world.vps, dst, second);
  ASSERT_NE(second[vp_at].route, nullptr);

  std::vector<PinnedHop> pins = pin_hops(tau, second);
  expect_same_pins(pins, lookup_pin_hops(*world.table, world.vps, dst, tau));
  EXPECT_NE(pins.front().v0, pins_before.front().v0);
  EXPECT_EQ(hop_baselines(tau, second),
            lookup_baselines(*world.table, world.vps, dst, tau));
  std::vector<BurstHop> burst = burst_hops(tau, second);
  expect_same_burst(burst,
                    lookup_burst_hops(*world.table, world.vps, dst, tau));
  EXPECT_NE(burst.back().v0, burst_before.back().v0);
}

// load_state replaces every trie, so it drops the rows read before it.
TEST(RouteRow, LoadStateDropsTheMemo) {
  WarmWorld world(91);
  ASSERT_TRUE(world.advance_to_busy_event());
  const std::vector<CorpusView> views = world.issue_views(120);
  auto [view, vp_at] = routeless_vp(world, views);
  ASSERT_NE(view, nullptr) << "every VP routes every destination";
  const Ipv4 dst = view->key.dst;
  auto saved = [&world] {
    store::Encoder enc;
    world.table->save_state(enc);
    return enc.take();
  };
  const std::string before = saved();
  ASSERT_TRUE(world.table->apply(announce_tau(world, *view, vp_at)));
  const std::string after = saved();

  bgp::VpTableView restored(world.route_servers, world.ids);
  for (const std::string* bytes : {&before, &after}) {
    store::Decoder dec(*bytes);
    restored.load_state(dec);
    ASSERT_TRUE(dec.done());
    expect_row_is_lookups(restored, world.vps, dst, restored.row(dst));
  }
  EXPECT_NE(restored.row(dst)[vp_at].route, nullptr);
  EXPECT_EQ(hop_baselines(view->processed.as_path, restored.row(dst)),
            lookup_baselines(restored, world.vps, dst,
                             view->processed.as_path));
}

}  // namespace
}  // namespace rrr::signals
