// The BGP feed simulator: renders control-plane changes as the update
// stream RouteViews/RIS collectors would expose.
//
// This is where the paper's key observation about BGP data is materialized:
// routers issue updates when they change *anything* about a route — not just
// the AS path. The feed emits:
//  * announcements with a new AS path (AS-level changes),
//  * announcements with the same path but different communities (§4.1.3),
//  * duplicate announcements — identical transitive attributes — when the
//    underlying egress/IGP situation changed (§4.1.4, Park et al.), with
//    probability decaying in the AS-hop distance between the VP and the
//    change site, and
//  * parrot duplicates unrelated to any change (noise).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "bgp/record.h"
#include "netbase/rng.h"
#include "routing/control_plane.h"

namespace rrr::bgp {

using routing::ControlPlane;
using topo::AsIndex;

struct FeedParams {
  // Fraction of candidate ASes hosting a collector peer.
  double vp_as_fraction = 0.2;
  double full_table_fraction = 0.84;
  // Probability that a VP adjacent to a border change (distance 0) emits a
  // duplicate update; decays by `duplicate_decay` per AS hop of distance.
  double duplicate_prob_adjacent = 0.9;
  double duplicate_decay = 0.45;
  // Probability of a duplicate when an event touched a link on the VP's
  // path but the canonical attributes did not change at all (MED-style
  // churn).
  double duplicate_prob_untouched = 0.06;
  // Update timestamp jitter: exponential mean in seconds, capped.
  double jitter_mean_seconds = 45.0;
  std::int64_t jitter_cap_seconds = 420;
  std::uint64_t seed = 7;
};

class FeedSimulator {
 public:
  // Chooses VPs among `candidate_ases` (typically tier-1/transit ASes) and
  // initializes attribute caches for `origins`.
  FeedSimulator(ControlPlane& control_plane, const FeedParams& params,
                const std::vector<AsIndex>& candidate_ases,
                const std::vector<AsIndex>& origins);

  const std::vector<VantagePoint>& vantage_points() const { return vps_; }

  // RIB snapshot of every (VP, origin prefix) at `t` (feed bootstrap).
  std::vector<BgpRecord> initial_rib(TimePoint t);

  // Applies one routing event's impact, returning the updates it provoked,
  // sorted by timestamp.
  std::vector<BgpRecord> on_event(const routing::Event& event,
                                  const ControlPlane::Impact& impact);

  // Ground-truth accessor for tests: the cached attributes for (vp, origin).
  const routing::RouteAttributes* cached_attributes(VpId vp,
                                                    AsIndex origin) const;

 private:
  struct Key {
    VpId vp;
    AsIndex origin;
    auto operator<=>(const Key&) const = default;
  };

  void emit_route(std::vector<BgpRecord>& out, const VantagePoint& vp,
                  AsIndex origin, const routing::RouteAttributes& attrs,
                  TimePoint t, RecordType type);
  TimePoint jittered(TimePoint t);
  void reindex(const Key& key, const routing::RouteAttributes& old_attrs,
               const routing::RouteAttributes& new_attrs);

  ControlPlane& cp_;
  FeedParams params_;
  Rng rng_;
  std::vector<VantagePoint> vps_;
  std::vector<AsIndex> origins_;
  std::map<AsIndex, std::vector<VpId>> vps_by_as_;
  std::map<Key, routing::RouteAttributes> cache_;
  // link -> keys whose cached crossings traverse it.
  std::map<topo::LinkId, std::set<Key>> by_link_;
};

}  // namespace rrr::bgp
