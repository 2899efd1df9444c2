// Unresponsive-hop patching (Appendix A): for a '*' flanked by responsive
// hops, if every observed traceroute with that (previous, next) pair shows a
// single responsive hop between them, fill the star with it. Remaining stars
// are wildcards that can never indicate a change.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "netbase/ipv4.h"
#include "netbase/rng.h"
#include "store/codec.h"
#include "traceroute/traceroute.h"

namespace rrr::tracemap {

class HopPatcher {
 public:
  // Learns (prev, middle, next) triples from a measurement.
  void observe(const tr::Traceroute& trace);

  // Returns a copy of `trace` with uniquely-determined stars filled in.
  tr::Traceroute patch(const tr::Traceroute& trace) const;

  // The unique middle hop for (prev, next), when exactly one was observed.
  std::optional<Ipv4> unique_middle(Ipv4 prev, Ipv4 next) const;

  // Checkpoint support: the learned triple store round-trips verbatim. The
  // section lists each (prev, next) pair once, in ascending order, with its
  // middles ascending; load_state rejects anything else as kCorrupt, so a
  // loaded store re-saves the bytes it read.
  void save_state(store::Encoder& enc) const;
  void load_state(store::Decoder& dec);

 private:
  static std::uint64_t ends_key(Ipv4 prev, Ipv4 next) {
    return std::uint64_t{prev.value()} << 32 | next.value();
  }

  // (prev, next) packed by ends_key -> the middles seen between them,
  // ascending; a known triple costs one probe and no allocation.
  std::unordered_map<std::uint64_t, std::vector<Ipv4>, Mix64Hash> middles_;
};

}  // namespace rrr::tracemap
