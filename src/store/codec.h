// The netbase value types in the store's field vocabulary (store/serial.h),
// shared by every checkpointable class above the store layer. Higher-level
// composites (records, traces, pair keys) list their fields with these at
// their own layer — the store knows nothing about them.
#pragma once

#include <optional>

#include "netbase/asn.h"
#include "netbase/community.h"
#include "netbase/intern.h"
#include "netbase/ipv4.h"
#include "netbase/prefix.h"
#include "netbase/time.h"
#include "store/serial.h"

namespace rrr::store {

inline void io(Encoder& enc, Ipv4 ip) { enc.u32(ip.value()); }
inline void io(Decoder& dec, Ipv4& ip) { ip = Ipv4(dec.u32()); }

inline void io(Encoder& enc, Prefix prefix) {
  enc(prefix.network(), prefix.length());
}
inline void io(Decoder& dec, Prefix& prefix) {
  Ipv4 network;
  std::uint8_t length = 0;
  dec(network, length);
  dec.check(length <= 32, "prefix length over 32");
  prefix = Prefix(network, length);
}

inline void io(Encoder& enc, TimePoint t) { enc.i64(t.seconds()); }
inline void io(Decoder& dec, TimePoint& t) { t = TimePoint(dec.i64()); }

inline void io(Encoder& enc, Asn asn) { enc.u32(asn.number()); }
inline void io(Decoder& dec, Asn& asn) { asn = Asn(dec.u32()); }

inline void io(Encoder& enc, Community community) { enc.u32(community.raw()); }
inline void io(Decoder& dec, Community& community) {
  community = Community(dec.u32());
}

// Interned handles travel as their content, never as intern ids.
inline void io(Encoder& enc, const InternedPath& path) { enc(path.view()); }
inline void io(Decoder& dec, InternedPath& path) {
  AsPath content;
  dec(content);
  path = content;
}

inline void io(Encoder& enc, const InternedCollector& collector) {
  enc.str(collector.str());
}
inline void io(Decoder& dec, InternedCollector& collector) {
  collector = dec.str();
}

// Writes any field (tests and the table view's dictionary use it).
template <class T>
void put(Encoder& enc, const T& value) {
  enc(value);
}

inline TimePoint get_time(Decoder& dec) {
  TimePoint t;
  dec(t);
  return t;
}
inline Prefix get_prefix(Decoder& dec) {
  Prefix prefix;
  dec(prefix);
  return prefix;
}
inline AsPath get_as_path(Decoder& dec) {
  AsPath path;
  dec(path);
  return path;
}

// A community set read leniently: an unbounded count, and repeated or
// unordered values merged. The BGP record codec reads its set so because
// the feed fault injector decodes deliberately damaged record bytes, and
// which of them survive is part of a faulted world's output; the table
// view's dictionary, whose codec stays its own, reads its sets so too.
// Every other set is a strict ordered field.
inline CommunitySet get_community_set(Decoder& dec) {
  CommunitySet out;
  std::uint64_t n = dec.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    Community community;
    dec(community);
    out.insert(community);
  }
  return out;
}

}  // namespace rrr::store
