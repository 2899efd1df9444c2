// Unit tests for the foundational value types (src/netbase).
#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "netbase/asn.h"
#include "netbase/community.h"
#include "netbase/flat_table.h"
#include "netbase/geo.h"
#include "netbase/ipv4.h"
#include "netbase/parse.h"
#include "netbase/prefix.h"
#include "netbase/radix_trie.h"
#include "netbase/rng.h"
#include "netbase/time.h"

namespace rrr {
namespace {

TEST(Ipv4, RoundTripsDottedQuad) {
  auto ip = Ipv4::parse("192.168.3.45");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->to_string(), "192.168.3.45");
  EXPECT_EQ(ip->value(), 0xC0A8032Du);
}

TEST(Ipv4, RejectsMalformedInput) {
  EXPECT_FALSE(Ipv4::parse("192.168.3").has_value());
  EXPECT_FALSE(Ipv4::parse("192.168.3.256").has_value());
  EXPECT_FALSE(Ipv4::parse("192.168.3.45.6").has_value());
  EXPECT_FALSE(Ipv4::parse("a.b.c.d").has_value());
  EXPECT_FALSE(Ipv4::parse("").has_value());
  EXPECT_FALSE(Ipv4::parse("1..2.3").has_value());
}

TEST(Ipv4, OrdersNumerically) {
  EXPECT_LT(*Ipv4::parse("1.2.3.4"), *Ipv4::parse("1.2.3.5"));
  EXPECT_LT(*Ipv4::parse("9.255.255.255"), *Ipv4::parse("10.0.0.0"));
}

TEST(Prefix, MasksHostBits) {
  Prefix p(*Ipv4::parse("10.1.2.3"), 24);
  EXPECT_EQ(p.network().to_string(), "10.1.2.0");
  EXPECT_EQ(p.to_string(), "10.1.2.0/24");
}

TEST(Prefix, ContainsAndCovers) {
  Prefix p16 = *Prefix::parse("10.1.0.0/16");
  EXPECT_TRUE(p16.contains(*Ipv4::parse("10.1.200.7")));
  EXPECT_FALSE(p16.contains(*Ipv4::parse("10.2.0.1")));
}

TEST(Prefix, ZeroLengthCoversEverything) {
  Prefix def(Ipv4(0), 0);
  EXPECT_TRUE(def.contains(*Ipv4::parse("255.255.255.255")));
  EXPECT_EQ(def.size(), 1ull << 32);
}

TEST(Prefix, ParseValidation) {
  EXPECT_TRUE(Prefix::parse("10.0.0.0/8").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0").has_value());
  EXPECT_FALSE(Prefix::parse("banana/8").has_value());
}

TEST(ParseNumber, AcceptsOnlyWholeFiniteValuesInRange) {
  EXPECT_EQ(parse_number<double>("0.25"), 0.25);
  EXPECT_EQ(parse_number<std::int64_t>("-3"), -3);
  EXPECT_EQ(parse_number<std::uint32_t>("4294967295"), 4294967295u);
  for (const char* text :
       {"", "nan", "inf", "-inf", " 0.5", "0.5 ", "+0.5", "0.5x", "1e400"}) {
    EXPECT_FALSE(parse_number<double>(text).has_value()) << '"' << text << '"';
  }
  EXPECT_FALSE(parse_number<std::int64_t>("0x10").has_value());
  EXPECT_FALSE(parse_number<std::uint64_t>("-1").has_value());
  EXPECT_FALSE(parse_number<std::uint32_t>("4294967296").has_value());
  EXPECT_FALSE(parse_number<double>("1.5", 0.0, 1.0).has_value());
  EXPECT_FALSE(parse_number<int>("0", 1).has_value());

  int field = 7;
  EXPECT_FALSE(parse_into("x", field));
  EXPECT_EQ(field, 7);
  EXPECT_TRUE(parse_into("9", field, 1, 10));
  EXPECT_EQ(field, 9);
}

TEST(Spec, SplitAndWriteRoundTrip) {
  SpecWriter writer;
  writer.add("rate", 0.05);
  writer.add("count", std::int64_t{-4});
  writer.add("seed", std::uint64_t{18446744073709551615u});
  writer.add("third", 1.0 / 3.0);
  const std::string spec = writer.str();
  EXPECT_EQ(spec.substr(0, spec.find(",third")),
            "rate=0.05,count=-4,seed=18446744073709551615");

  std::optional<std::vector<SpecClause>> clauses = split_spec(spec);
  ASSERT_TRUE(clauses.has_value());
  ASSERT_EQ(clauses->size(), 4u);
  EXPECT_EQ((*clauses)[1].key, "count");
  EXPECT_EQ((*clauses)[1].value, "-4");
  // The shortest rendering still parses back to the exact value.
  EXPECT_EQ(parse_number<double>((*clauses)[3].value), 1.0 / 3.0);

  EXPECT_EQ(split_spec(",,a=1,")->size(), 1u);
  EXPECT_TRUE(split_spec("")->empty());
  EXPECT_FALSE(split_spec("a=1,b").has_value());
}

TEST(AsPath, SuffixMatching) {
  AsPath reference = {Asn(10), Asn(20), Asn(30), Asn(40)};
  AsPath same_tail = {Asn(99), Asn(20), Asn(30), Asn(40)};
  EXPECT_TRUE(suffix_matches(same_tail, 1, reference));
  AsPath divergent = {Asn(99), Asn(20), Asn(31), Asn(40)};
  EXPECT_FALSE(suffix_matches(divergent, 1, reference));
  AsPath longer_tail = {Asn(99), Asn(20), Asn(25), Asn(30), Asn(40)};
  EXPECT_FALSE(suffix_matches(longer_tail, 1, reference));
}

TEST(AsPath, Rendering) {
  EXPECT_EQ(to_string(AsPath{Asn(13030), Asn(1299), Asn(2914)}),
            "13030 1299 2914");
  EXPECT_EQ(index_of({Asn(1), Asn(2)}, Asn(2)), 1);
  EXPECT_EQ(index_of({Asn(1), Asn(2)}, Asn(3)), -1);
}

TEST(Community, ParsesAndDecomposes) {
  auto c = Community::parse("13030:51701");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->definer(), Asn(13030));
  EXPECT_EQ(c->value(), 51701);
  EXPECT_EQ(c->to_string(), "13030:51701");
  EXPECT_FALSE(Community::parse("13030").has_value());
  EXPECT_FALSE(Community::parse("70000:1").has_value());
}

TEST(Community, DiffRespectsDefinerFilter) {
  CommunitySet before = {Community(Asn(10), 1), Community(Asn(20), 2)};
  CommunitySet after = {Community(Asn(10), 3), Community(Asn(20), 2)};
  CommunityDiff all = diff_communities(before, after);
  EXPECT_EQ(all.added.size(), 1u);
  EXPECT_EQ(all.removed.size(), 1u);
  CommunityDiff only20 = diff_communities(before, after, Asn(20));
  EXPECT_TRUE(only20.empty());
}

TEST(WindowClock, FloorsNegativeTimes) {
  WindowClock clock(TimePoint(0), 900);
  EXPECT_EQ(clock.index_of(TimePoint(0)), 0);
  EXPECT_EQ(clock.index_of(TimePoint(899)), 0);
  EXPECT_EQ(clock.index_of(TimePoint(900)), 1);
  EXPECT_EQ(clock.index_of(TimePoint(-1)), -1);
  EXPECT_EQ(clock.index_of(TimePoint(-900)), -1);
  EXPECT_EQ(clock.index_of(TimePoint(-901)), -2);
}

TEST(WindowClock, BoundariesRoundTrip) {
  WindowClock clock(TimePoint(1000), 900);
  for (std::int64_t w : {-3, 0, 1, 17}) {
    EXPECT_EQ(clock.index_of(clock.window_start(w)), w);
    EXPECT_EQ(clock.index_of(clock.window_end(w) - 1), w);
  }
}

TEST(RadixTrie, LongestPrefixMatchPrefersSpecific) {
  RadixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 8);
  trie.insert(*Prefix::parse("10.1.0.0/16"), 16);
  trie.insert(*Prefix::parse("10.1.2.0/24"), 24);
  EXPECT_EQ(*trie.lookup(*Ipv4::parse("10.1.2.3")), 24);
  EXPECT_EQ(*trie.lookup(*Ipv4::parse("10.1.9.1")), 16);
  EXPECT_EQ(*trie.lookup(*Ipv4::parse("10.200.0.1")), 8);
  EXPECT_EQ(trie.lookup(*Ipv4::parse("11.0.0.1")), nullptr);
}

TEST(RadixTrie, EraseRestoresShorterMatch) {
  RadixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 8);
  trie.insert(*Prefix::parse("10.1.0.0/16"), 16);
  EXPECT_TRUE(trie.erase(*Prefix::parse("10.1.0.0/16")));
  EXPECT_EQ(*trie.lookup(*Ipv4::parse("10.1.2.3")), 8);
  EXPECT_FALSE(trie.erase(*Prefix::parse("10.1.0.0/16")));
  EXPECT_EQ(trie.size(), 1u);
}

// Property sweep: trie LPM agrees with a brute-force scan.
class TrieProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrieProperty, AgreesWithLinearScan) {
  Rng rng(GetParam());
  RadixTrie<int> trie;
  std::vector<std::pair<Prefix, int>> entries;
  for (int i = 0; i < 300; ++i) {
    auto ip = Ipv4(static_cast<std::uint32_t>(rng.uniform_int(0, 1LL << 32)));
    auto len = static_cast<std::uint8_t>(rng.uniform_int(0, 32));
    Prefix prefix(ip, len);
    trie.insert(prefix, i);
    // Later duplicate prefixes overwrite earlier entries.
    std::erase_if(entries, [&](const auto& e) { return e.first == prefix; });
    entries.emplace_back(prefix, i);
  }
  for (int probe = 0; probe < 500; ++probe) {
    auto ip = Ipv4(static_cast<std::uint32_t>(rng.uniform_int(0, 1LL << 32)));
    const int* got = trie.lookup(ip);
    // Brute force: longest matching prefix, ties impossible (unique keys).
    const std::pair<Prefix, int>* best = nullptr;
    for (const auto& entry : entries) {
      if (entry.first.contains(ip) &&
          (best == nullptr || entry.first.length() > best->first.length())) {
        best = &entry;
      }
    }
    if (best == nullptr) {
      EXPECT_EQ(got, nullptr);
    } else {
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(*got, best->second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// FlatTable against std::unordered_map fed the same inserts: clustered
// packed keys (the shape of an (AS, city) or (prev, next) key), the same
// key inserted again with another value, and lookups of keys never
// inserted. The table doubles nine times on the way; every answer is
// compared after each doubling.
TEST(FlatTable, MatchesUnorderedMapThroughGrowth) {
  Rng rng(41);
  FlatIndex table;
  std::unordered_map<std::uint64_t, std::uint32_t> reference;
  std::vector<std::uint64_t> inserted;
  auto key_at = [](std::uint64_t i) {
    return (i % 97) << 32 | (i / 97) << 16 | (i * 7 % 13);
  };
  int doublings = 0;
  std::size_t capacity = 8;  // half of the initial 16 slots
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const std::uint64_t key =
        rng.bernoulli(0.2) && !inserted.empty()
            ? inserted[rng.index(inserted.size())]
            : key_at(i);
    const auto value = static_cast<std::uint32_t>(rng.index(1u << 30));
    const auto [slot, added] = table.insert(IndexSlot{key, value});
    const auto [it, ref_added] = reference.emplace(key, value);
    ASSERT_EQ(added, ref_added) << i;
    ASSERT_EQ(slot->key, key);
    ASSERT_EQ(slot->value, it->second);
    if (added) inserted.push_back(key);
    ASSERT_EQ(table.size(), reference.size());
    if (table.size() <= capacity) continue;
    ++doublings;
    capacity *= 2;
    for (const auto& [k, v] : reference) ASSERT_EQ(lookup(table, k), v);
    for (std::uint64_t j = 0; j < 300; ++j) {
      const std::uint64_t absent = key_at(100000 + j) ^ (1ull << 63);
      ASSERT_EQ(reference.count(absent), 0u);
      ASSERT_EQ(table.find(absent), nullptr);
      ASSERT_EQ(lookup(table, absent), IndexSlot::kNone);
    }
  }
  EXPECT_EQ(doublings, 9);
  std::size_t visited = 0;
  table.for_each([&](const IndexSlot& slot) {
    ++visited;
    EXPECT_EQ(reference.at(slot.key), slot.value);
  });
  EXPECT_EQ(visited, reference.size());

  // A reserved table holds its keys without growing and answers the same.
  FlatIndex reserved;
  reserved.reserve(reference.size());
  for (const auto& [k, v] : reference) reserved.insert(IndexSlot{k, v});
  for (const auto& [k, v] : reference) ASSERT_EQ(lookup(reserved, k), v);
  // Zero is a key like any other; only the value marks a free slot.
  FlatIndex zero;
  EXPECT_EQ(zero.find(0), nullptr);
  zero.insert(IndexSlot{0, 5});
  EXPECT_EQ(lookup(zero, 0), 5u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000000), b.uniform_int(0, 1000000));
  }
}

TEST(Rng, ForkIsIndependentOfParentDraws) {
  Rng a(7);
  Rng fork_before = a.fork(1);
  a.uniform();  // perturb the parent
  Rng fork_after = Rng(7).fork(1);
  EXPECT_EQ(fork_before.uniform_int(0, 1 << 30),
            fork_after.uniform_int(0, 1 << 30));
}

TEST(Rng, SplitIsDeterministic) {
  for (std::uint64_t shard = 0; shard < 16; ++shard) {
    Rng a = Rng(99).split(shard);
    Rng b = Rng(99).split(shard);
    EXPECT_EQ(a.seed(), b.seed());
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(a.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30));
    }
  }
}

TEST(Rng, SplitStreamsAreIndependent) {
  // Distinct shards of the same parent, and the same shard of distinct
  // parents, must all land on distinct streams; split must also not collide
  // with fork on the same salt.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t shard = 0; shard < 64; ++shard) {
    seeds.insert(Rng(5).split(shard).seed());
    seeds.insert(Rng(6).split(shard).seed());
    seeds.insert(Rng(5).fork(shard).seed());
  }
  EXPECT_EQ(seeds.size(), 3u * 64u);
}

TEST(Rng, SplitDoesNotPerturbParent) {
  Rng a(31), b(31);
  a.split(3);
  a.split(4);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30));
  }
}

// The seeds the lazy-engine oracle runs: the edges, std::mt19937_64's
// default seed and 60 seeded draws.
std::vector<std::uint64_t> oracle_seeds() {
  std::vector<std::uint64_t> seeds = {0, 1, 5489, ~std::uint64_t{0}};
  std::mt19937_64 pick(20261018);
  for (int i = 0; i < 60; ++i) seeds.push_back(pick());
  return seeds;
}

// Rng::save_state's format over the standard engine: "<seed> <engine>".
std::string std_state(std::uint64_t seed, const std::mt19937_64& engine) {
  std::ostringstream out;
  out << seed << ' ' << engine;
  return out.str();
}

// Rng seeds lazily and serves its first 156 draws from a partial state, so
// every draw, distribution, saved state and copy is checked against
// std::mt19937_64 itself, across the head -> full-engine switch.
TEST(Rng, DrawsMatchStdMt19937_64) {
  const std::vector<double> weights = {0.5, 2.0, 0.0, 1.25, 3.0};
  for (std::uint64_t seed : oracle_seeds()) {
    SCOPED_TRACE(seed);
    {
      Rng rng(seed);
      std::mt19937_64 ref(seed);
      for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng.engine()(), ref()) << i;
    }
    {
      // Each round draws a different number of words, so the switch lands
      // inside a different distribution for different seeds.
      Rng rng(seed);
      std::mt19937_64 ref(seed);
      for (int round = 0; round < 60; ++round) {
        SCOPED_TRACE(round);
        ASSERT_EQ(rng.uniform(),
                  std::uniform_real_distribution<double>(0.0, 1.0)(ref));
        ASSERT_EQ(rng.bernoulli(0.02), std::bernoulli_distribution(0.02)(ref));
        ASSERT_EQ(rng.uniform_int(-5, 1000003),
                  std::uniform_int_distribution<std::int64_t>(-5, 1000003)(
                      ref));
        ASSERT_EQ(rng.exponential(0.7),
                  std::exponential_distribution<double>(0.7)(ref));
        ASSERT_EQ(rng.weighted_index(weights),
                  std::discrete_distribution<std::size_t>(weights.begin(),
                                                          weights.end())(ref));
        std::vector<int> mine(9 + round % 5);
        std::iota(mine.begin(), mine.end(), 0);
        std::vector<int> theirs = mine;
        rng.shuffle(mine);
        std::shuffle(theirs.begin(), theirs.end(), ref);
        ASSERT_EQ(mine, theirs);
      }
    }
    for (int draws : {0, 1, 155, 156, 157, 311, 312, 1000}) {
      SCOPED_TRACE(draws);
      Rng rng(seed);
      std::mt19937_64 ref(seed);
      for (int i = 0; i < draws; ++i) {
        rng.engine()();
        ref();
      }
      const std::string state = rng.save_state();
      ASSERT_EQ(state, std_state(seed, ref));
      Rng loaded(seed ^ 0x5A5A);
      ASSERT_TRUE(loaded.load_state(state));
      EXPECT_EQ(loaded.seed(), seed);
      EXPECT_EQ(loaded.save_state(), state);
      for (int i = 0; i < 400; ++i) {
        const std::uint64_t want = ref();
        ASSERT_EQ(loaded.engine()(), want) << i;
        ASSERT_EQ(rng.engine()(), want) << i;
      }
    }
    for (int draws : {0, 77, 155}) {
      SCOPED_TRACE(draws);
      Rng rng(seed);
      for (int i = 0; i < draws; ++i) rng.engine()();
      Rng copy = rng;
      Rng assigned(seed + 1);
      assigned.engine()();
      assigned = rng;
      for (int i = 0; i < 400; ++i) {
        const std::uint64_t want = rng.engine()();
        ASSERT_EQ(copy.engine()(), want) << i;
        ASSERT_EQ(assigned.engine()(), want) << i;
      }
    }
  }
}

TEST(Geo, HaversineKnownDistances) {
  GeoPoint london{51.51, -0.13};
  GeoPoint frankfurt{50.11, 8.68};
  double d = distance_km(london, frankfurt);
  EXPECT_GT(d, 580.0);
  EXPECT_LT(d, 680.0);
  EXPECT_NEAR(distance_km(london, london), 0.0, 1e-9);
}

}  // namespace
}  // namespace rrr
