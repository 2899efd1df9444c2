// Unresponsive-hop patching (Appendix A): for a '*' flanked by responsive
// hops, if every observed traceroute with that (previous, next) pair shows a
// single responsive hop between them, fill the star with it. Remaining stars
// are wildcards that can never indicate a change. TraceProcessor fills the
// stars as it annotates a trace, from unique_middle.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netbase/ipv4.h"
#include "store/codec.h"
#include "traceroute/traceroute.h"

namespace rrr::tracemap {

class HopPatcher {
 public:
  // Learns (prev, middle, next) triples from a measurement.
  void observe(const tr::Traceroute& trace);

  // The unique middle hop for (prev, next), when exactly one was observed.
  std::optional<Ipv4> unique_middle(Ipv4 prev, Ipv4 next) const;

  // Checkpoint support: the learned triple store round-trips verbatim. The
  // section lists each (prev, next) pair once, in ascending order, with its
  // middles ascending; load_state rejects anything else as kCorrupt, so a
  // loaded store re-saves the bytes it read. A load that throws leaves the
  // store as it was.
  void save_state(store::Encoder& enc) const;
  void load_state(store::Decoder& dec);

 private:
  static constexpr std::uint32_t kFree = 0xFFFFFFFFu;
  static constexpr std::uint32_t kUnique = 0xFFFFFFFEu;

  // One (prev, next) pair. While `ambiguous` is kUnique, `middle` is the
  // only middle seen; once a second shows up, `ambiguous` indexes the
  // pair's ascending middle list in ambiguous_. kFree marks an unused slot.
  struct Slot {
    std::uint64_t ends = 0;
    Ipv4 middle;
    std::uint32_t ambiguous = kFree;
  };

  static std::uint64_t ends_key(Ipv4 prev, Ipv4 next) {
    return std::uint64_t{prev.value()} << 32 | next.value();
  }

  // The slot holding `ends`, or the free slot where it would go.
  std::size_t find(std::uint64_t ends) const;
  void learn(std::uint64_t ends, Ipv4 middle);
  // Moves every pair into a table of `size` slots, a power of two at least
  // 2 * pairs_.
  void rehash(std::size_t size);

  // Open addressing, keyed by ends_key and probed linearly from its mix64:
  // a power-of-two size, at most half full, so a known triple costs one or
  // two slot reads and no allocation. About one pair in ten is ambiguous;
  // only those own a list.
  std::vector<Slot> slots_ = std::vector<Slot>(16);
  std::size_t pairs_ = 0;
  std::vector<std::vector<Ipv4>> ambiguous_;
};

}  // namespace rrr::tracemap
