// Global intern tables for the BGP ingest hot path.
//
// Real update feeds repeat a small dictionary: the same AS paths, community
// sets, and collector names arrive millions of times. Interning maps each
// distinct value to a dense 32-bit id so records, table routes, and monitor
// state carry one word instead of a heap-allocated vector/set/string, and
// equality in the monitors becomes an integer compare. The id space is
// append-only and ids are assigned in first-sight order, so as long as every
// *insert* happens on a serial path (the feed boundary, the absorb writer)
// the id→content dictionary is identical at every point of the
// (shards × threads × fault) determinism grid — asserted by
// tests/determinism_test.cpp.
//
// Invariants:
//  * id equality ⇔ content equality (within one Interner instance);
//  * id 0 of every domain is the empty value ("" / {} / empty path);
//  * resolved references are stable forever — storage is chunked and
//    append-only, entries never move or die before the Interner does.
//
// Concurrency: resolution (id → content) is lock-free — one acquire-load of
// a chunk pointer. Content → id lookup takes a shared lock; only the first
// sight of a *new* value takes the exclusive lock, which is rare by design
// and, in the engine, confined to serial code (see DESIGN.md §12). Id
// *values* never appear in signals, semantic telemetry, or snapshot bytes;
// everything durable resolves to content first.
//
// Handles (InternedPath / InternedCommunities / InternedCollector) wrap an
// id with value semantics: constructing or assigning from content interns,
// comparing two handles compares ids, and an implicit conversion back to
// `const AsPath&` / `const CommunitySet&` / `const std::string&` keeps
// element-wise call sites compiling unchanged.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netbase/asn.h"
#include "netbase/community.h"

namespace rrr::store {
class Encoder;
class Decoder;
}  // namespace rrr::store

namespace rrr {

using PathId = std::uint32_t;
using CommSetId = std::uint32_t;
using CollectorId = std::uint32_t;

// Id 0 of every domain is the empty value.
inline constexpr std::uint32_t kEmptyInternId = 0;

namespace detail {

struct PathHash {
  std::size_t operator()(const AsPath& path) const noexcept {
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (Asn asn : path) {
      h ^= asn.number();
      h *= 0x100000001B3ull;
    }
    return static_cast<std::size_t>(h);
  }
};

struct CommSetHash {
  std::size_t operator()(const CommunitySet& set) const noexcept {
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (Community c : set) {
      h ^= c.raw();
      h *= 0x100000001B3ull;
    }
    return static_cast<std::size_t>(h);
  }
};

struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};
struct StringEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return a == b;
  }
};

// One intern domain: content→id map under a shared_mutex, id→content via a
// fixed two-level chunk table whose slots are published with release stores
// so resolution never takes the lock. Chunks are allocated on demand and
// never freed or moved, which is what makes `resolve()`'s returned reference
// stable for the Interner's lifetime.
template <class T, class Hash, class Eq = std::equal_to<T>>
class Domain {
 public:
  static constexpr std::size_t kChunkBits = 10;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
  // 4096 chunks × 1024 entries = 4M distinct values per domain; far above
  // any real feed dictionary, and hitting it is a hard error (not UB).
  static constexpr std::size_t kMaxChunks = 4096;

  Domain() { (void)intern(T{}); }  // id 0 = empty value

  template <class U>
  std::uint32_t intern(const U& value) {
    {
      std::shared_lock lock(mutex_);
      auto it = ids_.find(value);
      if (it != ids_.end()) return it->second;
    }
    std::unique_lock lock(mutex_);
    auto it = ids_.find(value);
    if (it != ids_.end()) return it->second;  // lost the race
    std::uint32_t id = size_.load(std::memory_order_relaxed);
    std::size_t chunk_index = id >> kChunkBits;
    if (chunk_index >= kMaxChunks) {
      throw std::length_error("intern domain exhausted (4M distinct values)");
    }
    T* chunk = chunks_[chunk_index].load(std::memory_order_acquire);
    if (chunk == nullptr) {
      chunk = new T[kChunkSize];
      chunks_[chunk_index].store(chunk, std::memory_order_release);
    }
    chunk[id & (kChunkSize - 1)] = T(value);
    ids_.emplace(T(value), id);
    // Release so a reader that learns `id` through any synchronizing handoff
    // (or through this counter) also sees the entry bytes.
    size_.store(id + 1, std::memory_order_release);
    return id;
  }

  const T& resolve(std::uint32_t id) const {
    // Callers hold only valid ids (handles are constructed by interning);
    // the chunk pointer was published before the id escaped.
    return chunks_[id >> kChunkBits].load(std::memory_order_acquire)
        [id & (kChunkSize - 1)];
  }

  std::uint32_t size() const { return size_.load(std::memory_order_acquire); }

  ~Domain() {
    for (auto& slot : chunks_) {
      delete[] slot.load(std::memory_order_acquire);
    }
  }
  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

 private:
  mutable std::shared_mutex mutex_;
  std::unordered_map<T, std::uint32_t, Hash, Eq> ids_;
  std::atomic<T*> chunks_[kMaxChunks] = {};
  std::atomic<std::uint32_t> size_{0};
};

}  // namespace detail

class Interner {
 public:
  Interner() = default;

  // The process-wide instance every handle resolves against. Tests that
  // need a fresh id space swap it with ScopedInstance; production code and
  // the benches use the default singleton for the process lifetime.
  static Interner& global();

  // Swaps a fresh Interner in as the global instance for the scope's
  // lifetime (restores the previous one on destruction). Handles created
  // inside the scope must not outlive it. Not for concurrent use — intended
  // for test fixtures that assert id-assignment determinism.
  class ScopedInstance {
   public:
    ScopedInstance();
    ~ScopedInstance();
    ScopedInstance(const ScopedInstance&) = delete;
    ScopedInstance& operator=(const ScopedInstance&) = delete;
    Interner& get() { return *own_; }

   private:
    // Fully constructed before publication (see the constructor).
    std::unique_ptr<Interner> own_;
    Interner* prev_ = nullptr;
  };

  PathId path_id(const AsPath& path) { return paths_.intern(path); }
  CommSetId commset_id(const CommunitySet& set) { return commsets_.intern(set); }
  CollectorId collector_id(std::string_view name) {
    return collectors_.intern(name);
  }

  const AsPath& path(PathId id) const { return paths_.resolve(id); }
  const CommunitySet& commset(CommSetId id) const {
    return commsets_.resolve(id);
  }
  const std::string& collector(CollectorId id) const {
    return collectors_.resolve(id);
  }

  std::uint32_t path_count() const { return paths_.size(); }
  std::uint32_t commset_count() const { return commsets_.size(); }
  std::uint32_t collector_count() const { return collectors_.size(); }

  // Serializes the full dictionaries (content, in id order) as one section;
  // load re-interns into an empty instance and rejects a dump that is not a
  // bijection (duplicate content) or that targets a non-empty instance, so
  // ids always come back dense and first-sight ordered.
  void save_state(store::Encoder& enc) const;
  void load_state(store::Decoder& dec);

 private:
  static std::atomic<Interner*> current_;

  detail::Domain<AsPath, detail::PathHash> paths_;
  detail::Domain<CommunitySet, detail::CommSetHash> commsets_;
  detail::Domain<std::string, detail::StringHash, detail::StringEq>
      collectors_;
};

inline Interner::ScopedInstance::ScopedInstance()
    : own_(std::make_unique<Interner>()) {
  prev_ = current_.exchange(own_.get());
}

inline Interner::ScopedInstance::~ScopedInstance() { current_.store(prev_); }

// --- handles -------------------------------------------------------------

class InternedPath {
 public:
  InternedPath() = default;  // empty path (id 0)
  InternedPath(const AsPath& path)  // NOLINT(google-explicit-constructor)
      : id_(Interner::global().path_id(path)) {}
  static InternedPath from_id(PathId id) {
    InternedPath p;
    p.id_ = id;
    return p;
  }

  InternedPath& operator=(const AsPath& path) {
    id_ = Interner::global().path_id(path);
    return *this;
  }

  PathId id() const { return id_; }
  const AsPath& view() const { return Interner::global().path(id_); }
  operator const AsPath&() const {  // NOLINT(google-explicit-constructor)
    return view();
  }

  bool empty() const { return id_ == kEmptyInternId; }
  std::size_t size() const { return view().size(); }
  Asn operator[](std::size_t i) const { return view()[i]; }
  auto begin() const { return view().begin(); }
  auto end() const { return view().end(); }
  Asn front() const { return view().front(); }
  Asn back() const { return view().back(); }

  // Id compare: equal ids ⇔ equal contents (the interning invariant).
  friend bool operator==(const InternedPath& a, const InternedPath& b) {
    return a.id_ == b.id_;
  }
  friend bool operator==(const InternedPath& a, const AsPath& b) {
    return a.view() == b;
  }

 private:
  PathId id_ = kEmptyInternId;
};

std::ostream& operator<<(std::ostream& os, const InternedPath& path);

class InternedCommunities {
 public:
  InternedCommunities() = default;  // empty set (id 0)
  InternedCommunities(const CommunitySet& set)  // NOLINT
      : id_(Interner::global().commset_id(set)) {}
  static InternedCommunities from_id(CommSetId id) {
    InternedCommunities c;
    c.id_ = id;
    return c;
  }

  InternedCommunities& operator=(const CommunitySet& set) {
    id_ = Interner::global().commset_id(set);
    return *this;
  }

  CommSetId id() const { return id_; }
  const CommunitySet& view() const { return Interner::global().commset(id_); }
  operator const CommunitySet&() const { return view(); }  // NOLINT

  bool empty() const { return id_ == kEmptyInternId; }
  std::size_t size() const { return view().size(); }
  bool contains(Community c) const { return view().contains(c); }
  auto begin() const { return view().begin(); }
  auto end() const { return view().end(); }

  friend bool operator==(const InternedCommunities& a,
                         const InternedCommunities& b) {
    return a.id_ == b.id_;
  }
  friend bool operator==(const InternedCommunities& a, const CommunitySet& b) {
    return a.view() == b;
  }

 private:
  CommSetId id_ = kEmptyInternId;
};

class InternedCollector {
 public:
  InternedCollector() = default;  // "" (id 0)
  InternedCollector(std::string_view name)  // NOLINT
      : id_(Interner::global().collector_id(name)) {}

  InternedCollector& operator=(std::string_view name) {
    id_ = Interner::global().collector_id(name);
    return *this;
  }

  CollectorId id() const { return id_; }
  const std::string& str() const { return Interner::global().collector(id_); }
  operator const std::string&() const { return str(); }  // NOLINT
  std::string_view view() const { return str(); }

  bool empty() const { return id_ == kEmptyInternId; }

  friend bool operator==(const InternedCollector& a,
                         const InternedCollector& b) {
    return a.id_ == b.id_;
  }
  friend bool operator==(const InternedCollector& a, std::string_view b) {
    return a.view() == b;
  }

 private:
  CollectorId id_ = kEmptyInternId;
};

std::ostream& operator<<(std::ostream& os, const InternedCollector& name);

}  // namespace rrr
