// Binary codec for BGP records, the one record encoding in the program: the
// engine's pending-record backlog travels in snapshots this way, and the
// feed fault injector corrupts these bytes (fault/injector.h). Field order
// is fixed — see store/serial.h for the determinism rationale. The decoder
// throws StoreError(kCorrupt) on a field no writer produces: a negative
// time, an unknown record type, a prefix length over 32, or a count the
// remaining payload cannot hold.
#pragma once

#include "bgp/record.h"
#include "store/codec.h"

namespace rrr::bgp {

// Interned attributes are resolved to content on write and re-interned on
// read, so the byte format is identical to the pre-interning one and never
// leaks intern-id values (which are free to differ across runs).
inline void put_record(store::Encoder& enc, const BgpRecord& record) {
  store::put(enc, record.time);
  enc.u8(static_cast<std::uint8_t>(record.type));
  enc.u32(record.vp);
  store::put(enc, record.peer_asn);
  store::put(enc, record.peer_ip);
  enc.str(record.collector.str());
  store::put(enc, record.prefix);
  store::put(enc, record.as_path);
  store::put(enc, record.communities);
}

inline BgpRecord get_record(store::Decoder& dec) {
  BgpRecord record;
  record.time = store::get_time(dec);
  if (record.time.seconds() < 0) {
    throw store::StoreError(store::StoreError::Kind::kCorrupt,
                            "BGP record time is negative");
  }
  const std::uint8_t type = dec.u8();
  if (type > static_cast<std::uint8_t>(RecordType::kWithdrawal)) {
    throw store::StoreError(store::StoreError::Kind::kCorrupt,
                            "BGP record type is unknown");
  }
  record.type = static_cast<RecordType>(type);
  record.vp = dec.u32();
  record.peer_asn = store::get_asn(dec);
  record.peer_ip = store::get_ipv4(dec);
  record.collector = dec.str();
  record.prefix = store::get_prefix(dec);
  record.as_path = store::get_as_path(dec);
  record.communities = store::get_community_set(dec);
  return record;
}

}  // namespace rrr::bgp
