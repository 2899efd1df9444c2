// Identity and freshness of a corpus traceroute: the atlas of measurements
// a system maintains and wants to keep fresh (the paper's §3 "corpus of
// traceroutes"). The engine keeps the corpus itself.
#pragma once

#include <cstdint>

#include "traceroute/traceroute.h"

namespace rrr::tr {

// Identifies a monitored (source probe, destination) pair.
struct PairKey {
  ProbeId probe = kNoProbe;
  Ipv4 dst;
  auto operator<=>(const PairKey&) const = default;
};

enum class Freshness : std::uint8_t {
  kFresh,    // no staleness signal since measurement; fully monitored
  kStale,    // at least one staleness prediction signal fired
  kUnknown,  // monitoring cannot see every border of this traceroute
};

}  // namespace rrr::tr
