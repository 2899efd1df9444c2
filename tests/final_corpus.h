// The final state of a finished World for the byte-identity checks of the
// determinism and resume grids: the corpus as bytes (one fresh traceroute
// per corpus pair at world.end(), every field encoded with the store
// codec) and the engine's per-pair verdict state.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

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

// The engine's verdict state of every corpus pair (pair_states()) as
// comparable rows: (probe, destination, freshness, watched window,
// active-signal count).
using PairStateRow = std::tuple<tr::ProbeId, std::uint32_t, int,
                                std::int64_t, std::uint32_t>;

inline std::vector<PairStateRow> pair_state_rows(World& world) {
  std::vector<PairStateRow> rows;
  for (const signals::PairStateView& view : world.engine().pair_states()) {
    rows.emplace_back(view.pair.probe, view.pair.dst.value(),
                      static_cast<int>(view.freshness), view.watched_window,
                      view.active_signals);
  }
  return rows;
}

}  // namespace rrr::eval
