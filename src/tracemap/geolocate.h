// IP geolocation (Appendix A): IPMap-style registry lookups, a simulated
// shortest-ping campaign, and a CFS-style facility fallback.
//
// Coverage and accuracy are configurable so the evaluation can reproduce the
// paper's validation numbers: the ping technique located 82% of border IPs,
// IPMap-style data is highly accurate, and fallback methods occasionally
// return a nearby-but-wrong city.
#pragma once

#include <optional>
#include <unordered_map>

#include "netbase/ipv4.h"
#include "netbase/rng.h"
#include "topology/topology.h"

namespace rrr::tracemap {

enum class GeoMethod : std::uint8_t {
  kIpMap,
  kShortestPing,
  kCfs,
  kNone,
};

const char* to_string(GeoMethod method);

struct GeoParams {
  double ipmap_coverage = 0.55;
  // Of addresses IPMap misses: shortest-ping success rate (paper: 82% of
  // border IPs overall; ~10% never answer pings, ~8% lack a close VP).
  double shortest_ping_success = 0.72;
  // Of the remainder: CFS fallback success rate and its error probability
  // (a wrong facility yields a wrong city).
  double cfs_success = 0.45;
  double cfs_error_prob = 0.18;
  std::uint64_t seed = 23;
};

class Geolocator {
 public:
  Geolocator(const topo::Topology& topology, const GeoParams& params);

  // City of `ip`, when any technique located it.
  std::optional<topo::CityId> locate(Ipv4 ip) const;
  // Which technique produced the answer (kNone when unlocated/unknown ip).
  GeoMethod method(Ipv4 ip) const;

 private:
  struct Entry {
    topo::CityId city;
    GeoMethod method;
  };
  std::unordered_map<Ipv4, Entry> located_;
};

}  // namespace rrr::tracemap
