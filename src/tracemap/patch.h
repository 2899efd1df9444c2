// Unresponsive-hop patching (Appendix A): for a '*' flanked by responsive
// hops, if every observed traceroute with that (previous, next) pair shows a
// single responsive hop between them, fill the star with it. Remaining stars
// are wildcards that can never indicate a change.
#pragma once

#include <map>
#include <set>
#include <utility>

#include "netbase/ipv4.h"
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

  // Checkpoint support: the learned triple store round-trips verbatim.
  void save_state(store::Encoder& enc) const {
    enc.u64(middles_.size());
    for (const auto& [ends, mids] : middles_) {
      store::put(enc, ends.first);
      store::put(enc, ends.second);
      enc.u64(mids.size());
      for (Ipv4 mid : mids) store::put(enc, mid);
    }
  }
  void load_state(store::Decoder& dec) {
    middles_.clear();
    std::uint64_t n = dec.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      Ipv4 prev = store::get_ipv4(dec);
      Ipv4 next = store::get_ipv4(dec);
      std::set<Ipv4>& mids = middles_[{prev, next}];
      std::uint64_t m = dec.u64();
      for (std::uint64_t j = 0; j < m; ++j) {
        mids.insert(store::get_ipv4(dec));
      }
    }
  }

 private:
  std::map<std::pair<Ipv4, Ipv4>, std::set<Ipv4>> middles_;
};

}  // namespace rrr::tracemap
