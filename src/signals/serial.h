// Checkpoint codec helpers shared by the signals layer: pair keys, signal
// metadata, full signals, and active-signal records. Field order is fixed;
// see store/serial.h.
#pragma once

#include "signals/calibration.h"
#include "signals/signal.h"
#include "store/codec.h"

namespace rrr::signals {

inline void put_pair(store::Encoder& enc, const tr::PairKey& pair) {
  enc.u32(pair.probe);
  store::put(enc, pair.dst);
}

inline tr::PairKey get_pair(store::Decoder& dec) {
  tr::PairKey pair;
  pair.probe = dec.u32();
  pair.dst = store::get_ipv4(dec);
  return pair;
}

// A technique byte; one naming no technique is kCorrupt (the value later
// indexes per-technique arrays).
inline Technique get_technique(store::Decoder& dec) {
  std::uint8_t raw = dec.u8();
  if (raw >= kTechniqueCount) {
    throw store::StoreError(store::StoreError::Kind::kCorrupt,
                            "unknown technique " + std::to_string(raw));
  }
  return static_cast<Technique>(raw);
}

inline void put_meta(store::Encoder& enc, const SignalMeta& meta) {
  enc.i64(meta.ip_overlap);
  enc.i64(meta.as_overlap);
  enc.i64(meta.vps_same_as_city);
  enc.i64(meta.vps_same_as);
  enc.i64(meta.vps_same_city);
  enc.boolean(meta.as_level);
  enc.i64(meta.vp_count);
  enc.f64(meta.deviation);
}

inline SignalMeta get_meta(store::Decoder& dec) {
  SignalMeta meta;
  meta.ip_overlap = static_cast<int>(dec.i64());
  meta.as_overlap = static_cast<int>(dec.i64());
  meta.vps_same_as_city = static_cast<int>(dec.i64());
  meta.vps_same_as = static_cast<int>(dec.i64());
  meta.vps_same_city = static_cast<int>(dec.i64());
  meta.as_level = dec.boolean();
  meta.vp_count = static_cast<int>(dec.i64());
  meta.deviation = dec.f64();
  return meta;
}

inline void put_signal(store::Encoder& enc, const StalenessSignal& signal) {
  enc.u8(static_cast<std::uint8_t>(signal.technique));
  enc.u64(signal.potential);
  store::put(enc, signal.time);
  enc.i64(signal.window);
  enc.i64(signal.span_seconds);
  put_pair(enc, signal.pair);
  enc.u64(signal.border_index);
  put_meta(enc, signal.meta);
  store::put(enc, signal.community);
}

// put_signal's fixed width in bytes.
inline constexpr std::size_t kSignalBytes = 110;

inline StalenessSignal get_signal(store::Decoder& dec) {
  StalenessSignal signal;
  signal.technique = get_technique(dec);
  signal.potential = dec.u64();
  signal.time = store::get_time(dec);
  signal.window = dec.i64();
  signal.span_seconds = dec.i64();
  signal.pair = get_pair(dec);
  signal.border_index = dec.u64();
  signal.meta = get_meta(dec);
  signal.community = store::get_community(dec);
  return signal;
}

inline void put_active(store::Encoder& enc, const ActiveSignal& active) {
  enc.u64(active.potential);
  enc.u8(static_cast<std::uint8_t>(active.technique));
  put_meta(enc, active.meta);
  put_pair(enc, active.pair);
  store::put(enc, active.community);
}

inline ActiveSignal get_active(store::Decoder& dec) {
  ActiveSignal active;
  active.potential = dec.u64();
  active.technique = get_technique(dec);
  active.meta = get_meta(dec);
  active.pair = get_pair(dec);
  active.community = store::get_community(dec);
  return active;
}

}  // namespace rrr::signals
