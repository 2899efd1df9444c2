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

inline RecordType enum_last(RecordType) { return RecordType::kWithdrawal; }

// Interned attributes are resolved to content on write and re-interned on
// read, so the byte format is identical to the pre-interning one and never
// leaks intern-id values (which are free to differ across runs). The
// community set keeps its lenient read (store::get_community_set): which
// damaged records the fault injector's decode accepts is part of a
// faulted world's output.
template <class Io, store::Is<BgpRecord> Self>
void io(Io& io, Self& record) {
  io(record.time);
  io.check(record.time.seconds() >= 0, "BGP record time is negative");
  io(record.type, record.vp, record.peer_asn, record.peer_ip,
     record.collector, record.prefix, record.as_path);
  if constexpr (Io::kLoading) {
    record.communities = store::get_community_set(io);
  } else {
    io(record.communities.view());
  }
}

inline void put_record(store::Encoder& enc, const BgpRecord& record) {
  enc(record);
}

inline BgpRecord get_record(store::Decoder& dec) {
  BgpRecord record;
  dec(record);
  return record;
}

}  // namespace rrr::bgp
