// Intern-table tests: the id-space invariants the ingest hot path relies on
// (netbase/intern.h) and the dictionary checkpoint codec. Registered with
// the tsan label: the resolve-while-intern test exercises the
// lock-free chunk-table publication under ThreadSanitizer.
#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bgp/table_view.h"
#include "netbase/intern.h"
#include "store/serial.h"

namespace rrr {
namespace {

AsPath make_path(std::initializer_list<std::uint32_t> asns) {
  AsPath path;
  for (std::uint32_t a : asns) path.push_back(Asn(a));
  return path;
}

CommunitySet make_comms(std::initializer_list<std::uint32_t> raws) {
  CommunitySet set;
  for (std::uint32_t r : raws) set.insert(Community(r));
  return set;
}

TEST(Interner, EmptyValuesAreIdZero) {
  Interner::ScopedInstance scoped;
  EXPECT_EQ(scoped.get().path_id(AsPath{}), kEmptyInternId);
  EXPECT_EQ(scoped.get().commset_id(CommunitySet{}), kEmptyInternId);
  EXPECT_EQ(scoped.get().collector_id(""), kEmptyInternId);
  EXPECT_TRUE(InternedPath().empty());
  EXPECT_TRUE(InternedCommunities().empty());
  EXPECT_TRUE(InternedCollector().empty());
}

TEST(Interner, IdEqualityIsContentEquality) {
  Interner::ScopedInstance scoped;
  InternedPath a = make_path({64500, 64501, 64502});
  InternedPath b = make_path({64500, 64501, 64502});
  InternedPath c = make_path({64500, 64501});
  EXPECT_EQ(a.id(), b.id());
  EXPECT_TRUE(a == b);
  EXPECT_NE(a.id(), c.id());
  EXPECT_FALSE(a == c);
  // Content accessors resolve through the handle.
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0], Asn(64500));
  EXPECT_EQ(a.back(), Asn(64502));
  EXPECT_TRUE(a == make_path({64500, 64501, 64502}));

  InternedCommunities x = make_comms({1, 2, 3});
  InternedCommunities y = make_comms({3, 2, 1});  // set: same content
  EXPECT_TRUE(x == y);
  EXPECT_TRUE(x.contains(Community(2)));

  InternedCollector r1{std::string_view("rrc00")};
  InternedCollector r2{std::string_view("rrc00")};
  InternedCollector r3{std::string_view("route-views2")};
  EXPECT_TRUE(r1 == r2);
  EXPECT_FALSE(r1 == r3);
  EXPECT_EQ(r1.str(), "rrc00");
  EXPECT_TRUE(r1 == std::string_view("rrc00"));
}

TEST(Interner, IdsAssignFirstSightDense) {
  Interner::ScopedInstance scoped;
  Interner& in = scoped.get();
  PathId p1 = in.path_id(make_path({1}));
  PathId p2 = in.path_id(make_path({1, 2}));
  PathId p1_again = in.path_id(make_path({1}));
  EXPECT_EQ(p1, 1u);  // id 0 is the empty path
  EXPECT_EQ(p2, 2u);
  EXPECT_EQ(p1_again, p1);
  EXPECT_EQ(in.path_count(), 3u);
}

TEST(Interner, ScopedInstanceRestoresPrevious) {
  Interner* before = &Interner::global();
  {
    Interner::ScopedInstance scoped;
    EXPECT_EQ(&Interner::global(), &scoped.get());
    EXPECT_NE(&Interner::global(), before);
  }
  EXPECT_EQ(&Interner::global(), before);
}

TEST(Interner, ResolvedReferencesAreStableAcrossGrowth) {
  Interner::ScopedInstance scoped;
  Interner& in = scoped.get();
  PathId first = in.path_id(make_path({42, 43}));
  const AsPath* ref = &in.path(first);
  // Grow well past several chunks; the early entry must not move.
  for (std::uint32_t i = 0; i < 5000; ++i) {
    in.path_id(make_path({i, i + 1, i + 2}));
  }
  EXPECT_EQ(&in.path(first), ref);
  EXPECT_EQ(*ref, make_path({42, 43}));
}

// The hot-path concurrency shape: one serial writer interning new values
// while readers resolve already-published ids lock-free. TSAN checks the
// release/acquire pairing on the chunk table.
TEST(Interner, ConcurrentResolveWhileInterning) {
  Interner::ScopedInstance scoped;
  Interner& in = scoped.get();
  constexpr std::uint32_t kValues = 4000;
  std::atomic<std::uint32_t> published{0};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    for (std::uint32_t i = 0; i < kValues; ++i) {
      PathId id = in.path_id(make_path({i, i ^ 0x5555u}));
      published.store(id, std::memory_order_release);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      for (int spin = 0; spin < 20000; ++spin) {
        std::uint32_t id = published.load(std::memory_order_acquire);
        const AsPath& path = in.path(id);
        if (id != kEmptyInternId &&
            (path.size() != 2 || path[1] != Asn(path[0].number() ^ 0x5555u))) {
          failed.store(true);
          return;
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(in.path_count(), kValues + 1);
}

TEST(InternerState, RoundTripPreservesIdAssignment) {
  store::Encoder enc;
  std::uint32_t want_path, want_comm, want_coll;
  {
    Interner::ScopedInstance scoped;
    Interner& in = scoped.get();
    want_path = in.path_id(make_path({64500, 64501}));
    in.path_id(make_path({64502}));
    want_comm = in.commset_id(make_comms({0x00010002, 0x00010003}));
    want_coll = in.collector_id("rrc21");
    in.collector_id("route-views.sg");
    in.save_state(enc);
  }
  Interner::ScopedInstance scoped;
  Interner& restored = scoped.get();
  store::Decoder dec(enc.buffer());
  restored.load_state(dec);
  EXPECT_EQ(restored.path_count(), 3u);
  EXPECT_EQ(restored.commset_count(), 2u);
  EXPECT_EQ(restored.collector_count(), 3u);
  // Re-interning the same content yields the same ids as before the trip.
  EXPECT_EQ(restored.path_id(make_path({64500, 64501})), want_path);
  EXPECT_EQ(restored.commset_id(make_comms({0x00010002, 0x00010003})),
            want_comm);
  EXPECT_EQ(restored.collector_id("rrc21"), want_coll);
}

TEST(InternerState, LoadIntoNonEmptyInstanceIsRejected) {
  store::Encoder enc;
  {
    Interner::ScopedInstance scoped;
    scoped.get().save_state(enc);
  }
  Interner::ScopedInstance scoped;
  scoped.get().path_id(make_path({1}));  // no longer fresh
  store::Decoder dec(enc.buffer());
  try {
    scoped.get().load_state(dec);
    FAIL() << "expected StoreError";
  } catch (const store::StoreError& e) {
    EXPECT_EQ(e.kind(), store::StoreError::Kind::kCorrupt);
  }
}

TEST(InternerState, NonBijectiveDumpIsRejected) {
  // Hand-craft a dump whose path section repeats one content: the second
  // occurrence would re-intern to the first id, shifting everything after.
  store::Encoder enc;
  enc.u32(3);  // paths: empty, {7}, {7} again
  enc.u32(0);
  enc.u32(1);
  enc.u32(7);
  enc.u32(1);
  enc.u32(7);
  enc.u32(1);  // commsets: just the empty set
  enc.u32(0);
  enc.u32(1);  // collectors: just ""
  enc.str("");
  Interner::ScopedInstance scoped;
  store::Decoder dec(enc.buffer());
  try {
    scoped.get().load_state(dec);
    FAIL() << "expected StoreError";
  } catch (const store::StoreError& e) {
    EXPECT_EQ(e.kind(), store::StoreError::Kind::kCorrupt);
  }
}

TEST(InternerState, MissingEmptyValueIsRejected) {
  store::Encoder enc;
  enc.u32(0);  // zero paths: even the empty path is gone
  Interner::ScopedInstance scoped;
  store::Decoder dec(enc.buffer());
  try {
    scoped.get().load_state(dec);
    FAIL() << "expected StoreError";
  } catch (const store::StoreError& e) {
    EXPECT_EQ(e.kind(), store::StoreError::Kind::kCorrupt);
  }
}

TEST(PathCanonicalizer, StripsAndCollapsesThroughMemo) {
  Interner::ScopedInstance scoped;
  bgp::PathCanonicalizer canon(std::set<Asn>{Asn(6695)});  // an IXP ASN
  PathId raw =
      Interner::global().path_id(make_path({64500, 6695, 64501, 64501}));
  PathId first = canon.canonical(raw);
  PathId second = canon.canonical(raw);  // memo hit
  EXPECT_EQ(first, second);
  EXPECT_EQ(Interner::global().path(first), make_path({64500, 64501}));
}

TEST(PathCanonicalizer, EmptyIxpListIsPlainCollapse) {
  Interner::ScopedInstance scoped;
  bgp::PathCanonicalizer canon(std::set<Asn>{});
  PathId raw =
      Interner::global().path_id(make_path({64500, 64500, 64501, 64500}));
  EXPECT_EQ(Interner::global().path(canon.canonical(raw)),
            make_path({64500, 64501, 64500}));
}

}  // namespace
}  // namespace rrr
