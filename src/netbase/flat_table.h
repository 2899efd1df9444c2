// An insert-only hash table on 64-bit keys, laid out flat: a power-of-two
// vector of slots, never more than half full, probed linearly from
// mix64(key). A present key costs one or two slot reads in one contiguous
// array and an absent one stops at the first free slot, so a lookup
// chases no node and allocates nothing. Keys are never erased, and the
// slot order is a hash order: a caller iterates only to collect and sort,
// so no hash order reaches an output.
//
// `Slot` is the caller's record, so a payload sits inline next to its key.
// It carries the key in a public `std::uint64_t key`, a default-constructed
// Slot is free, and `bool used() const` tells a taken slot from a free one.
// The table reads nothing else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "netbase/rng.h"

namespace rrr {

template <class Slot>
class FlatTable {
 public:
  FlatTable() : slots_(kMinSlots) {}

  std::size_t size() const { return size_; }

  // Grows the table, if it must, so that `n` keys fit without a rehash.
  void reserve(std::size_t n) {
    std::size_t want = slots_.size();
    while (want < 2 * n) want *= 2;
    if (want != slots_.size()) rehash(want);
  }

  // The slot holding `key`, or null.
  const Slot* find(std::uint64_t key) const {
    const Slot& slot = slots_[locate(key)];
    return slot.used() ? &slot : nullptr;
  }

  // Adds `slot`, which must be used, unless its key is present. Returns the
  // slot holding the key and whether it was added. The caller may change
  // that slot's payload but not its key, and must keep it used; the pointer
  // is good until the next insert. Always inlined: the public-trace ingest
  // inserts once per hop triple (HopPatcher::learn), and GCC otherwise
  // inlines this body only while it has one call site in a file.
  [[gnu::always_inline]] std::pair<Slot*, bool> insert(const Slot& slot) {
    std::size_t at = locate(slot.key);
    if (slots_[at].used()) return {&slots_[at], false};
    if (2 * (size_ + 1) > slots_.size()) {
      rehash(2 * slots_.size());
      at = locate(slot.key);
    }
    slots_[at] = slot;
    ++size_;
    return {&slots_[at], true};
  }

  // Calls `f` on every used slot, in table (hash) order.
  template <class F>
  void for_each(F&& f) const {
    for (const Slot& slot : slots_) {
      if (slot.used()) f(slot);
    }
  }

 private:
  static constexpr std::size_t kMinSlots = 16;

  // The slot holding `key`, or the free slot where it would go.
  std::size_t locate(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t at = mix64(key) & mask;
    while (slots_[at].used() && slots_[at].key != key) at = (at + 1) & mask;
    return at;
  }

  // Out of line: a table grows a few times in its life, and insert(),
  // inlined into every caller, stays small.
  [[gnu::noinline]] void rehash(std::size_t size) {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(size));
    for (const Slot& slot : old) {
      if (slot.used()) slots_[locate(slot.key)] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

// A slot that maps its key to a 32-bit value: a dense id, or an index into
// the caller's side vector. kNone marks the slot free, so no key maps to
// kNone, and an absent key reads as kNone.
struct IndexSlot {
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  std::uint64_t key = 0;
  std::uint32_t value = kNone;

  bool used() const { return value != kNone; }
};

using FlatIndex = FlatTable<IndexSlot>;

// The value `index` holds under `key`, or IndexSlot::kNone.
inline std::uint32_t lookup(const FlatIndex& index, std::uint64_t key) {
  const IndexSlot* slot = index.find(key);
  return slot == nullptr ? IndexSlot::kNone : slot->value;
}

}  // namespace rrr
