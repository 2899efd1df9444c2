// The fully-processed traceroute view: each hop annotated with its AS,
// router, and city; the merged AS-level path; and the border-router path —
// the granularity at which the paper tracks changes (§3).
#pragma once

#include <optional>
#include <vector>

#include "netbase/asn.h"
#include "netbase/flat_table.h"
#include "topology/topology.h"
#include "topology/types.h"
#include "tracemap/alias.h"
#include "tracemap/geolocate.h"
#include "tracemap/ip2as.h"
#include "tracemap/patch.h"
#include "traceroute/traceroute.h"

namespace rrr::tracemap {

struct ProcessedHop {
  std::optional<Ipv4> ip;  // after patching; nullopt = wildcard
  Asn asn;                 // invalid when unmapped
  bool is_ixp = false;
  topo::IxpId ixp = topo::kNoIxp;  // which LAN, when is_ixp
  RouterKey router;        // meaningful only when ip is set
  std::optional<topo::CityId> city;

  bool responded() const { return ip.has_value(); }
};

// One inter-AS boundary as inferred from the traceroute: the last hop mapped
// to the near AS and the first hop mapped to the far AS (Appendix A treats
// both IPs as part of the border when finer inference is unavailable).
struct BorderView {
  std::size_t near_index = 0;
  std::size_t far_index = 0;
  Asn near_as;
  Asn far_as;
  Ipv4 near_ip;
  Ipv4 far_ip;
  RouterKey border_router;  // the far-side (ingress) router
  bool via_ixp = false;
  std::optional<topo::CityId> near_city;
  std::optional<topo::CityId> far_city;

  friend bool operator==(const BorderView&, const BorderView&) = default;
};

struct ProcessedTrace {
  std::uint64_t trace_id = 0;
  tr::ProbeId probe = tr::kNoProbe;
  Ipv4 src_ip;
  Ipv4 dst_ip;
  TimePoint time;
  bool reached = false;

  std::vector<ProcessedHop> hops;
  // Merged AS-level path (consecutive duplicates collapsed, unmapped gaps
  // between identical ASes bridged). Empty when unusable.
  AsPath as_path;
  bool has_as_loop = false;
  std::vector<BorderView> borders;

  // The border-router path: the sequence of ingress border routers, the
  // paper's change granularity. Two traces with equal AS paths but different
  // border paths have experienced a border-level change.
  std::vector<RouterKey> border_router_path() const {
    std::vector<RouterKey> path;
    path.reserve(borders.size());
    for (const BorderView& b : borders) path.push_back(b.border_router);
    return path;
  }
};

// Classification of how two processed traces differ (§3's definitions: a
// border-level change requires the AS path to be unchanged).
enum class ChangeKind : std::uint8_t { kNone, kBorderLevel, kAsLevel };
ChangeKind classify_change(const ProcessedTrace& before,
                           const ProcessedTrace& after);

// Patches and annotates traceroutes in one pass: a star flanked by
// responding hops takes the patcher's unique middle for its flanks. Every
// router interface's ip2as, alias and geolocation answers are worked out
// once, at construction, into one flat table, so a responded hop costs one
// probe. The resolver and the geolocator are read only here. An address the
// table lacks (a destination host, an interface allocated later) is one
// neither of them knew: it is mapped by `ip2as` on the spot and gets what
// they answer for any unknown address, a singleton router and no city.
class TraceProcessor {
 public:
  TraceProcessor(const topo::Topology& topology, const Ip2As& ip2as,
                 const AliasResolver& aliases, const Geolocator& geo,
                 const HopPatcher& patcher);

  ProcessedTrace process(const tr::Traceroute& trace) const;
  // Processes into `out`, overwriting every field. Its vectors keep their
  // capacity, so a caller that reuses one `out` allocates nothing once it
  // has seen its longest trace.
  void process(const tr::Traceroute& trace, ProcessedTrace& out) const;

 private:
  // One interface's three answers, keyed by its address; never iterated.
  struct AnnotationSlot {
    std::uint64_t key = 0;
    MapResult mapped;
    RouterKey router;
    std::optional<topo::CityId> city;
    bool taken = false;

    bool used() const { return taken; }
  };

  const Ip2As& ip2as_;
  const HopPatcher& patcher_;
  FlatTable<AnnotationSlot> annotations_;
};

}  // namespace rrr::tracemap
