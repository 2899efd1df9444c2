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
  void save_state(store::Encoder& enc) const { io(enc, *this); }
  void load_state(store::Decoder& dec) {
    HopPatcher loaded;
    io(dec, loaded);
    *this = std::move(loaded);
  }

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
  // The pairs in ascending ends order (the snapshot's order).
  std::vector<Slot> sorted_slots() const;

  // Each pair as its two ends and its middles (one list per pair, reused
  // across pairs); loading inserts the pairs as they are read.
  template <class Io, class Self>
  static void io(Io& io, Self& self) {
    std::vector<Slot> slots;
    if constexpr (!Io::kLoading) slots = self.sorted_slots();
    std::vector<Ipv4> middles;
    // A pair holds its two ends, a count and at least one middle.
    io.each(slots, 4 + 4 + 8 + 4, [&]<class I>(I& io, auto& slot) {
      Ipv4 prev(static_cast<std::uint32_t>(slot.key >> 32));
      Ipv4 next(static_cast<std::uint32_t>(slot.key));
      if constexpr (!I::kLoading) {
        if (slot.ambiguous == kUnique) {
          middles.assign(1, slot.middle);
        } else {
          middles = self.ambiguous_[slot.ambiguous];
        }
      }
      io(prev, next, middles);
      if constexpr (I::kLoading) self.insert_loaded(slots, prev, next, middles);
    });
  }
  // Adds a pair read from a snapshot as the last of `slots`; a pair out of
  // order, or middles empty or not ascending, is kCorrupt.
  void insert_loaded(std::vector<Slot>& slots, Ipv4 prev, Ipv4 next,
                     const std::vector<Ipv4>& middles);

  // 16-byte slots in one flat table, so a known triple costs one or two
  // slot reads and no allocation. About one pair in ten is ambiguous; only
  // those own a list.
  FlatTable<Slot> pairs_;
  std::vector<std::vector<Ipv4>> ambiguous_;
};

}  // namespace rrr::tracemap
