// Binary checkpoint codec for processed traceroutes — the per-pair corpus
// view the staleness engine keeps (tracemap/processed.h). The raw
// traceroute is not stored: a watched pair's monitors consume only the
// processed form, and re-processing on load would double-count the hop
// patcher's triple observations.
#pragma once

#include "store/codec.h"
#include "tracemap/processed.h"

namespace rrr::tracemap {

template <class Io, store::Is<RouterKey> Self>
void io(Io& io, Self& router) {
  io(router.value);
}

template <class Io, store::Is<ProcessedHop> Self>
void io(Io& io, Self& hop) {
  io(hop.ip, hop.asn, hop.is_ixp, hop.ixp, hop.router, hop.city);
}

template <class Io, store::Is<BorderView> Self>
void io(Io& io, Self& border) {
  io(border.near_index, border.far_index, border.near_as, border.far_as,
     border.near_ip, border.far_ip, border.border_router, border.via_ixp,
     border.near_city, border.far_city);
}

template <class Io, store::Is<ProcessedTrace> Self>
void io(Io& io, Self& trace) {
  io(trace.trace_id, trace.probe, trace.src_ip, trace.dst_ip, trace.time,
     trace.reached, trace.hops, trace.as_path, trace.has_as_loop,
     trace.borders);
}

inline void put_processed(store::Encoder& enc, const ProcessedTrace& trace) {
  enc(trace);
}

}  // namespace rrr::tracemap
