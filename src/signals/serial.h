// Checkpoint field lists shared by the signals layer: pair keys, signal
// metadata, full signals, and active-signal records (see store/serial.h
// for the vocabulary). Field order is fixed.
#pragma once

#include "signals/calibration.h"
#include "signals/signal.h"
#include "store/codec.h"

namespace rrr::tr {

template <class Io, store::Is<PairKey> Self>
void io(Io& io, Self& pair) {
  io(pair.probe, pair.dst);
}

inline Freshness enum_last(Freshness) { return Freshness::kUnknown; }

}  // namespace rrr::tr

namespace rrr::signals {

inline Technique enum_last(Technique) { return Technique::kTraceBorder; }

template <class Io, store::Is<SignalMeta> Self>
void io(Io& io, Self& meta) {
  io(meta.ip_overlap, meta.as_overlap, meta.vps_same_as_city,
     meta.vps_same_as, meta.vps_same_city, meta.as_level, meta.vp_count,
     meta.deviation);
}

template <class Io, store::Is<StalenessSignal> Self>
void io(Io& io, Self& signal) {
  io(signal.technique, signal.potential, signal.time, signal.window,
     signal.span_seconds, signal.pair, signal.border_index, signal.meta,
     signal.community);
}

template <class Io, store::Is<ActiveSignal> Self>
void io(Io& io, Self& active) {
  io(active.potential, active.technique, active.meta, active.pair,
     active.community);
}

inline void put_pair(store::Encoder& enc, const tr::PairKey& pair) {
  enc(pair);
}
inline tr::PairKey get_pair(store::Decoder& dec) {
  tr::PairKey pair;
  dec(pair);
  return pair;
}
inline void put_signal(store::Encoder& enc, const StalenessSignal& signal) {
  enc(signal);
}
inline void put_active(store::Encoder& enc, const ActiveSignal& active) {
  enc(active);
}

}  // namespace rrr::signals
