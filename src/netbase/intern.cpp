#include "netbase/intern.h"

#include <ostream>

#include "store/serial.h"

namespace rrr {

namespace {

Interner* default_instance() {
  static Interner instance;
  return &instance;
}

}  // namespace

// Constant-initialized to null so no cross-TU static-init order can observe
// an uninitialized pointer; global() falls back to the default singleton.
std::atomic<Interner*> Interner::current_{nullptr};

Interner& Interner::global() {
  Interner* p = current_.load(std::memory_order_acquire);
  return p != nullptr ? *p : *default_instance();
}

void Interner::save_state(store::Encoder& enc) const {
  const std::uint32_t paths = path_count();
  enc.u32(paths);
  for (std::uint32_t id = 0; id < paths; ++id) {
    const AsPath& p = path(id);
    enc.u32(static_cast<std::uint32_t>(p.size()));
    for (Asn asn : p) enc.u32(asn.number());
  }
  const std::uint32_t commsets = commset_count();
  enc.u32(commsets);
  for (std::uint32_t id = 0; id < commsets; ++id) {
    const CommunitySet& set = commset(id);
    enc.u32(static_cast<std::uint32_t>(set.size()));
    for (Community c : set) enc.u32(c.raw());
  }
  const std::uint32_t names = collector_count();
  enc.u32(names);
  for (std::uint32_t id = 0; id < names; ++id) enc.str(collector(id));
}

void Interner::load_state(store::Decoder& dec) {
  // Loading re-interns in id order, so the dump must target a fresh
  // instance: anything already interned would shift every subsequent id.
  if (path_count() != 1 || commset_count() != 1 || collector_count() != 1) {
    throw store::StoreError(store::StoreError::Kind::kCorrupt,
                            "interner dictionary loaded into a non-empty "
                            "instance");
  }
  auto expect_id = [](std::uint32_t want, std::uint32_t got) {
    if (want != got) {
      // A duplicate entry re-interns to an earlier id: the dump was not a
      // bijection, so the ids of everything after it would be shifted.
      throw store::StoreError(store::StoreError::Kind::kCorrupt,
                              "interner dictionary is not a bijection");
    }
  };
  const std::uint32_t paths = dec.u32();
  if (paths < 1) {
    throw store::StoreError(store::StoreError::Kind::kCorrupt,
                            "interner dictionary missing the empty path");
  }
  for (std::uint32_t id = 0; id < paths; ++id) {
    AsPath p;
    std::uint64_t hops = dec.bounded(dec.u32(), 4);
    p.reserve(hops);
    for (std::uint64_t i = 0; i < hops; ++i) p.push_back(Asn(dec.u32()));
    expect_id(id, path_id(p));
  }
  const std::uint32_t commsets = dec.u32();
  if (commsets < 1) {
    throw store::StoreError(store::StoreError::Kind::kCorrupt,
                            "interner dictionary missing the empty set");
  }
  for (std::uint32_t id = 0; id < commsets; ++id) {
    CommunitySet set;
    std::uint32_t count = dec.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      if (!set.insert(Community(dec.u32())).second) {
        throw store::StoreError(store::StoreError::Kind::kCorrupt,
                                "interner community set holds duplicates");
      }
    }
    expect_id(id, commset_id(set));
  }
  const std::uint32_t names = dec.u32();
  if (names < 1) {
    throw store::StoreError(store::StoreError::Kind::kCorrupt,
                            "interner dictionary missing the empty collector");
  }
  for (std::uint32_t id = 0; id < names; ++id) {
    expect_id(id, collector_id(dec.str()));
  }
}

std::ostream& operator<<(std::ostream& os, const InternedPath& path) {
  return os << to_string(path.view());
}

std::ostream& operator<<(std::ostream& os, const InternedCollector& name) {
  return os << name.str();
}

}  // namespace rrr
