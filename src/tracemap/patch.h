// Unresponsive-hop patching (Appendix A): for a '*' flanked by responsive
// hops, if every observed traceroute with that (previous, next) pair shows a
// single responsive hop between them, fill the star with it. Remaining stars
// are wildcards that can never indicate a change. TraceProcessor fills the
// stars as it annotates a trace, from unique_middle.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netbase/flat_table.h"
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

  // One (prev, next) pair, keyed by ends_key. While `ambiguous` is
  // kUnique, `middle` is the only middle seen; once a second shows up,
  // `ambiguous` indexes the pair's ascending middle list in ambiguous_.
  // kFree marks an unused slot.
  struct Slot {
    std::uint64_t key = 0;
    Ipv4 middle;
    std::uint32_t ambiguous = kFree;

    bool used() const { return ambiguous != kFree; }
  };

  static std::uint64_t ends_key(Ipv4 prev, Ipv4 next) {
    return std::uint64_t{prev.value()} << 32 | next.value();
  }

  void learn(std::uint64_t ends, Ipv4 middle);

  // 16-byte slots in one flat table, so a known triple costs one or two
  // slot reads and no allocation. About one pair in ten is ambiguous; only
  // those own a list.
  FlatTable<Slot> pairs_;
  std::vector<std::vector<Ipv4>> ambiguous_;
};

}  // namespace rrr::tracemap
