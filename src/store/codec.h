// Encoder/Decoder adapters for the netbase value types, shared by every
// checkpointable class above the store layer. Higher-level composites
// (records, traces, pair keys) encode their fields with these primitives
// at their own layer — the store knows nothing about them.
#pragma once

#include <optional>

#include "netbase/asn.h"
#include "netbase/community.h"
#include "netbase/ipv4.h"
#include "netbase/prefix.h"
#include "netbase/time.h"
#include "store/serial.h"

namespace rrr::store {

inline void put(Encoder& enc, Ipv4 ip) { enc.u32(ip.value()); }
inline Ipv4 get_ipv4(Decoder& dec) { return Ipv4(dec.u32()); }

inline void put(Encoder& enc, Prefix prefix) {
  enc.u32(prefix.network().value());
  enc.u8(prefix.length());
}
inline Prefix get_prefix(Decoder& dec) {
  Ipv4 network(dec.u32());
  const std::uint8_t length = dec.u8();
  if (length > 32) {
    throw StoreError(StoreError::Kind::kCorrupt, "prefix length over 32");
  }
  return Prefix(network, length);
}

inline void put(Encoder& enc, TimePoint t) { enc.i64(t.seconds()); }
inline TimePoint get_time(Decoder& dec) { return TimePoint(dec.i64()); }

inline void put(Encoder& enc, Asn asn) { enc.u32(asn.number()); }
inline Asn get_asn(Decoder& dec) { return Asn(dec.u32()); }

inline void put(Encoder& enc, const AsPath& path) {
  enc.u64(path.size());
  for (Asn asn : path) put(enc, asn);
}
inline AsPath get_as_path(Decoder& dec) {
  AsPath path;
  std::uint64_t n = dec.count(4);
  path.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) path.push_back(get_asn(dec));
  return path;
}

inline void put(Encoder& enc, Community community) {
  enc.u32(community.raw());
}
inline Community get_community(Decoder& dec) { return Community(dec.u32()); }

inline void put(Encoder& enc, const CommunitySet& communities) {
  enc.u64(communities.size());
  for (Community c : communities) put(enc, c);
}
inline CommunitySet get_community_set(Decoder& dec) {
  CommunitySet out;
  std::uint64_t n = dec.u64();
  for (std::uint64_t i = 0; i < n; ++i) out.insert(get_community(dec));
  return out;
}

inline void put(Encoder& enc, const std::optional<Ipv4>& ip) {
  enc.boolean(ip.has_value());
  if (ip) put(enc, *ip);
}
inline std::optional<Ipv4> get_opt_ipv4(Decoder& dec) {
  if (!dec.boolean()) return std::nullopt;
  return get_ipv4(dec);
}

}  // namespace rrr::store
