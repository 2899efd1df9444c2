// Binary checkpoint codec for processed traceroutes — the per-pair corpus
// view the staleness engine keeps (tracemap/processed.h). The raw
// traceroute is not stored: a watched pair's monitors consume only the
// processed form, and re-processing on load would double-count the hop
// patcher's triple observations.
#pragma once

#include "store/codec.h"
#include "tracemap/processed.h"

namespace rrr::tracemap {

inline void put_opt_city(store::Encoder& enc,
                         const std::optional<topo::CityId>& city) {
  enc.boolean(city.has_value());
  if (city) enc.u16(*city);
}

inline std::optional<topo::CityId> get_opt_city(store::Decoder& dec) {
  if (!dec.boolean()) return std::nullopt;
  return dec.u16();
}

inline void put_processed(store::Encoder& enc, const ProcessedTrace& trace) {
  enc.u64(trace.trace_id);
  enc.u32(trace.probe);
  store::put(enc, trace.src_ip);
  store::put(enc, trace.dst_ip);
  store::put(enc, trace.time);
  enc.boolean(trace.reached);
  enc.u64(trace.hops.size());
  for (const ProcessedHop& hop : trace.hops) {
    store::put(enc, hop.ip);
    store::put(enc, hop.asn);
    enc.boolean(hop.is_ixp);
    enc.u16(hop.ixp);
    enc.u64(hop.router.value);
    put_opt_city(enc, hop.city);
  }
  store::put(enc, trace.as_path);
  enc.boolean(trace.has_as_loop);
  enc.u64(trace.borders.size());
  for (const BorderView& border : trace.borders) {
    enc.u64(border.near_index);
    enc.u64(border.far_index);
    store::put(enc, border.near_as);
    store::put(enc, border.far_as);
    store::put(enc, border.near_ip);
    store::put(enc, border.far_ip);
    enc.u64(border.border_router.value);
    enc.boolean(border.via_ixp);
    put_opt_city(enc, border.near_city);
    put_opt_city(enc, border.far_city);
  }
}

inline ProcessedTrace get_processed(store::Decoder& dec) {
  ProcessedTrace trace;
  trace.trace_id = dec.u64();
  trace.probe = dec.u32();
  trace.src_ip = store::get_ipv4(dec);
  trace.dst_ip = store::get_ipv4(dec);
  trace.time = store::get_time(dec);
  trace.reached = dec.boolean();
  // A hop takes at least 17 bytes, a border at least 43.
  std::uint64_t hop_count = dec.count(17);
  trace.hops.reserve(hop_count);
  for (std::uint64_t i = 0; i < hop_count; ++i) {
    ProcessedHop hop;
    hop.ip = store::get_opt_ipv4(dec);
    hop.asn = store::get_asn(dec);
    hop.is_ixp = dec.boolean();
    hop.ixp = dec.u16();
    hop.router.value = dec.u64();
    hop.city = get_opt_city(dec);
    trace.hops.push_back(hop);
  }
  trace.as_path = store::get_as_path(dec);
  trace.has_as_loop = dec.boolean();
  std::uint64_t border_count = dec.count(43);
  trace.borders.reserve(border_count);
  for (std::uint64_t i = 0; i < border_count; ++i) {
    BorderView border;
    border.near_index = dec.u64();
    border.far_index = dec.u64();
    border.near_as = store::get_asn(dec);
    border.far_as = store::get_asn(dec);
    border.near_ip = store::get_ipv4(dec);
    border.far_ip = store::get_ipv4(dec);
    border.border_router.value = dec.u64();
    border.via_ixp = dec.boolean();
    border.near_city = get_opt_city(dec);
    border.far_city = get_opt_city(dec);
    trace.borders.push_back(border);
  }
  return trace;
}

}  // namespace rrr::tracemap
