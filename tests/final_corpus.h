// The final state of a finished World for the byte-identity checks of the
// determinism and resume grids: the corpus as bytes (one fresh traceroute
// per corpus pair at world.end(), every field encoded with the store
// codec), the engine's per-pair verdict state and each pair's subpath
// segments.
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

// Each corpus pair's subpath segments as SubpathMonitor::segments_for
// lists them, in the order of the pair's series list (which a load
// rebuilds): (probe, destination, border index, length, armed, dormant,
// multiplier).
using SegmentRow = std::tuple<tr::ProbeId, std::uint32_t, std::size_t,
                              std::size_t, bool, bool, std::int64_t>;

inline std::vector<SegmentRow> segment_rows(World& world) {
  const signals::Engine& engine = world.engine();
  std::vector<SegmentRow> rows;
  for (const signals::PairStateView& view : engine.pair_states()) {
    for (const signals::SubpathMonitor::SegmentInfo& info :
         engine.subpath_monitor().segments_for(view.pair)) {
      rows.emplace_back(view.pair.probe, view.pair.dst.value(),
                        info.border_index, info.length, info.armed,
                        info.dormant, info.multiplier);
    }
  }
  return rows;
}

}  // namespace rrr::eval
