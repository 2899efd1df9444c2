// The control plane: cached per-origin route tables, per-VP route
// attributes (AS path + communities + border crossings), and incremental
// event application.
//
// This is the simulator-side stand-in for "the Internet's routing system".
// Consumers never see it directly in the paper's pipeline: the BGP feed
// (src/bgp) renders its route-attribute diffs as collector updates, and the
// measurement platform (src/traceroute) samples its forwarding paths.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "netbase/community.h"
#include "netbase/rng.h"
#include "routing/events.h"
#include "routing/forwarding.h"
#include "routing/routes.h"
#include "routing/state.h"
#include "topology/builder.h"
#include "topology/topology.h"

namespace rrr::routing {

// What a BGP vantage point would see for one destination: the announced
// AS path, the communities surviving propagation, and (simulator-side
// ground truth, not visible to consumers) the interconnects the route
// crosses.
struct RouteAttributes {
  AsPath path;  // VP's AS first, origin last; empty = unreachable
  CommunitySet communities;
  std::vector<topo::InterconnectId> crossings;

  bool reachable() const { return !path.empty(); }
  friend bool operator==(const RouteAttributes&, const RouteAttributes&) =
      default;
};

class ControlPlane {
 public:
  // The control plane mutates the topology on IXP-join events, hence the
  // non-const reference; it must outlive the control plane.
  ControlPlane(topo::Topology& topology, std::uint64_t seed);

  const topo::Topology& topology() const { return topology_; }
  topo::Topology& topology_mut() { return topology_; }
  const RoutingState& state() const { return state_; }
  RoutingState& state_mut() { return state_; }
  const ForwardingResolver& resolver() const { return resolver_; }

  // Converged table for `origin`, computed lazily and cached until an event
  // invalidates it.
  const RouteTable& table_for(AsIndex origin);

  // Pre-computes and pins `origin` in the cache so that later events report
  // its changes in their impact.
  void warm_origin(AsIndex origin) { (void)table_for(origin); }

  // Control-plane view of VP `vp_as`'s route toward `origin`.
  RouteAttributes attributes(AsIndex vp_as, AsIndex origin);

  // What an event changed. All origin lists refer to *cached* origins only:
  // warm the origins you monitor before applying events.
  struct Impact {
    // Origins whose tables were recomputed (superset of those that changed).
    std::vector<AsIndex> recomputed_origins;
    // (viewer AS, origin) pairs whose best AS path changed.
    std::vector<std::pair<AsIndex, AsIndex>> as_route_changes;
    // Links whose interconnect usage (egress choice) may have shifted
    // without any AS-path change.
    std::vector<topo::LinkId> touched_links;
    // Links created by an IXP join.
    std::vector<topo::LinkId> new_links;
    // (AS, origin) whose TE community value changed (pure attribute churn).
    std::vector<std::pair<AsIndex, AsIndex>> te_changes;
  };
  Impact apply(const Event& event);

 private:
  struct CachedTable {
    RouteTable table;
    std::vector<topo::LinkId> used;
  };

  CachedTable& cached(AsIndex origin);
  // Recomputes `origin`'s table, appending any per-viewer path diffs to
  // `impact`.
  void recompute_origin(AsIndex origin, Impact& impact);
  // True when bringing `link` up could change some route in `table`.
  bool endpoint_improvement_possible(topo::LinkId link,
                                     const RouteTable& table) const;
  std::vector<AsIndex> origins_using_link(topo::LinkId link) const;
  std::vector<AsIndex> cached_origins() const;

  topo::Topology& topology_;
  RoutingState state_;
  ForwardingResolver resolver_;
  Rng rng_;
  // Indexed by origin; null while the origin is uncached. Ascending index
  // is the cached origins' order. Entries never move, so a table_for
  // reference stays valid as the cache grows.
  std::vector<std::unique_ptr<CachedTable>> tables_;
};

}  // namespace rrr::routing
