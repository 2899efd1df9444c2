// Consumer-side BGP table maintenance and feed preprocessing (§4.1.1).
//
// The paper initializes its BGP monitoring by maintaining per-vantage-point
// table views from BGPStream, excluding prefixes more specific than /24,
// stripping IXP route-server ASNs from paths, and looking up each VP's route
// for the most specific prefix covering every monitored destination.
#pragma once

#include <map>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "bgp/record.h"
#include "netbase/intern.h"
#include "netbase/radix_trie.h"
#include "store/codec.h"

namespace rrr::bgp {

// §4.1.1: prefixes more specific than /24 generally do not propagate and
// may indicate misconfiguration or blackholing; exclude them.
bool acceptable_prefix(const Prefix& prefix);

// §4.1.1: remove IXP route-server ASNs so paths link IXP members directly.
// `sorted_ixp_asns` must be sorted ascending — the per-hop membership test
// is a binary search over a flat array (the per-record hot path; the old
// std::set walked a node-based tree per hop).
AsPath strip_ixp_asns(const AsPath& path,
                      const std::vector<Asn>& sorted_ixp_asns);

// Collapse prepending (consecutive identical ASNs) into a single hop.
AsPath collapse_prepending(const AsPath& path);

// Memoized raw-path → table-canonical-path (IXP-strip + prepend-collapse)
// id mapping. Most updates repeat a path already seen, so canonicalization
// amortizes to one hash lookup instead of two vector rebuilds per record.
//
// Single-writer: the cache has no locking. Its one owner is a VpTableView,
// which serves both the table's own writes and the engine's dispatch step.
class PathCanonicalizer {
 public:
  explicit PathCanonicalizer(const std::set<Asn>& ixp_asns)
      : ixp_asns_(ixp_asns.begin(), ixp_asns.end()) {}

  PathId canonical(PathId raw);

 private:
  std::vector<Asn> ixp_asns_;  // sorted (std::set iteration order)
  std::unordered_map<PathId, PathId> cache_;
};

// The route a VP currently holds for a prefix. Interned: copying a route or
// comparing paths/community sets is integer work.
struct VpRoute {
  InternedPath path;  // already IXP-stripped and prepending-collapsed
  InternedCommunities communities;
  TimePoint updated;
};

// One VP's standing route toward a destination; null when it has none.
struct RowCell {
  VpId vp = kNoVp;
  const VpRoute* route = nullptr;
};

// Every row VP's cell for one destination, in row-VP order
// (VpTableView::row).
using RouteRow = std::span<const RowCell>;

// Maintains each vantage point's table from a stream of records.
//
// Concurrency: a VpTableView has no internal synchronization. The engine
// owns one and mutates it only in the serial section of a window close,
// between the shards' BGP-monitor closes (which read it from pool threads)
// and the trace-monitor closes; every reader therefore sees either the whole
// start-of-window table or the whole absorbed one, never a half-applied
// batch.
class VpTableView {
 public:
  // `row_vps` lists, in order, the VPs whose routes row() returns.
  explicit VpTableView(std::set<Asn> ixp_asns = {},
                       std::vector<VpId> row_vps = {})
      : canon_(ixp_asns), row_vps_(std::move(row_vps)) {}

  // Applies one record (RIB entries and updates are treated alike; the
  // latest information wins). Records with unacceptable prefixes are
  // dropped; returns whether the record was applied. The stored path is
  // canonicalized through the view's own single-writer memo.
  bool apply(const BgpRecord& record);

  // Absorbs the first `count` records of `records` in order; returns how
  // many were applied. This is the once-per-window batch absorption of the
  // staleness engine: the shards' BGP monitors dispatch against the
  // pre-batch table, and the engine absorbs the batch once they are joined.
  std::size_t apply_all(const std::vector<BgpRecord>& records,
                        std::size_t count);

  // The table-canonical form of a raw path: route-server ASNs stripped and
  // prepending collapsed, as apply() stores it. The engine's dispatch
  // compares each record against the standing route in this form. It
  // writes the memo, so call it only where apply() may run: in the serial
  // section of a window close, never beside the route() readers.
  PathId canonical(PathId raw) { return canon_.canonical(raw); }

  // The VP's route for the most specific prefix covering `ip`, if any.
  const VpRoute* route(VpId vp, Ipv4 ip) const;

  // route(vp, dst) for every row VP, in row-VP order. Memoized per
  // destination: the corpus watches many pairs per destination, and every
  // BGP monitor's watch reads the same row. The cells point into the
  // tries, so every write (apply, restore_route, load_state) drops every
  // row, and a row stays valid only until the next write. It writes the
  // memo, so, like canonical(), call it only in the engine's serial
  // section, never beside the route() readers.
  RouteRow row(Ipv4 dst);

  // All VPs with at least one route installed.
  std::vector<VpId> vps() const;

  std::size_t route_count(VpId vp) const;

  // Checkpoint support. save_state writes one local dictionary section —
  // every distinct path / community set once, in first-appearance order —
  // followed by the routes as dictionary indices (VP ascending, prefixes in
  // trie order), so snapshot bytes are a pure function of table *content*
  // (global intern ids never reach the disk) and repeated attributes cost
  // four bytes per route. restore_route reinstalls one route verbatim (no
  // preprocessing — stored routes were already stripped/collapsed when
  // first applied).
  void save_state(store::Encoder& enc) const;
  void load_state(store::Decoder& dec);
  void restore_route(VpId vp, const Prefix& prefix, VpRoute route);

 private:
  void drop_rows() {
    if (!rows_.empty()) rows_.clear();
  }

  PathCanonicalizer canon_;
  std::map<VpId, RadixTrie<VpRoute>> tables_;
  std::vector<VpId> row_vps_;
  // row()'s memo, keyed by destination address.
  std::unordered_map<std::uint32_t, std::vector<RowCell>> rows_;
};

}  // namespace rrr::bgp
