// The final corpus of a finished World as bytes, for the byte-identity
// checks of the determinism and resume grids: one fresh traceroute per
// corpus pair at world.end(), every field encoded with the store codec.
#pragma once

#include <string>

#include "eval/world.h"
#include "store/codec.h"

namespace rrr::eval {

inline std::string final_corpus_bytes(World& world) {
  store::Encoder enc;
  for (const tr::PairKey& pair : world.ground_truth().pairs()) {
    const tr::Traceroute trace =
        world.issue_corpus_traceroute(pair, world.end());
    enc.u64(trace.id);
    enc.u32(trace.probe);
    store::put(enc, trace.src_ip);
    store::put(enc, trace.dst_ip);
    store::put(enc, trace.time);
    enc.u64(trace.flow_id);
    enc.boolean(trace.reached);
    enc.u64(trace.hops.size());
    for (const tr::Hop& hop : trace.hops) {
      store::put(enc, hop.ip);
      enc.f64(hop.rtt_ms);
    }
  }
  return enc.take();
}

}  // namespace rrr::eval
