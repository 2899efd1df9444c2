// Tests for the BGP layer: table views, preprocessing (§4.1.1), the record
// codec, and the feed simulator's update semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "bgp/feed.h"
#include "bgp/serial.h"
#include "bgp/table_view.h"
#include "netbase/rng.h"
#include "topology/builder.h"

namespace rrr::bgp {
namespace {

BgpRecord make_record(VpId vp, const char* prefix, AsPath path,
                      CommunitySet communities = {},
                      RecordType type = RecordType::kAnnouncement,
                      std::int64_t t = 0) {
  BgpRecord record;
  record.time = TimePoint(t);
  record.type = type;
  record.vp = vp;
  record.prefix = *Prefix::parse(prefix);
  record.as_path = std::move(path);
  record.communities = std::move(communities);
  return record;
}

TEST(Preprocess, RejectsMoreSpecificThanSlash24) {
  EXPECT_TRUE(acceptable_prefix(*Prefix::parse("10.0.0.0/24")));
  EXPECT_FALSE(acceptable_prefix(*Prefix::parse("10.0.0.0/25")));
  EXPECT_FALSE(acceptable_prefix(*Prefix::parse("10.0.0.1/32")));
}

TEST(Preprocess, StripsIxpAsnsAndPrepending) {
  AsPath path = {Asn(100), Asn(100), Asn(59001), Asn(200), Asn(200),
                 Asn(200), Asn(300)};
  AsPath stripped = strip_ixp_asns(path, {Asn(59001)});
  EXPECT_EQ(to_string(stripped), "100 100 200 200 200 300");
  EXPECT_EQ(to_string(collapse_prepending(stripped)), "100 200 300");
}

TEST(VpTableView, MostSpecificPrefixWins) {
  VpTableView view;
  view.apply(make_record(1, "10.0.0.0/8", {Asn(1), Asn(2)}));
  view.apply(make_record(1, "10.1.0.0/16", {Asn(1), Asn(3)}));
  const VpRoute* route = view.route(1, *Ipv4::parse("10.1.5.5"));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(to_string(route->path), "1 3");
  EXPECT_EQ(view.most_specific_prefix(1, *Ipv4::parse("10.1.5.5"))
                ->to_string(),
            "10.1.0.0/16");
  EXPECT_EQ(view.most_specific_prefix(1, *Ipv4::parse("10.9.5.5"))
                ->to_string(),
            "10.0.0.0/8");
}

TEST(VpTableView, WithdrawalRemovesRoute) {
  VpTableView view;
  view.apply(make_record(1, "10.1.0.0/16", {Asn(1)}));
  view.apply(make_record(1, "10.1.0.0/16", {}, {},
                         RecordType::kWithdrawal, 10));
  EXPECT_EQ(view.route(1, *Ipv4::parse("10.1.0.1")), nullptr);
}

TEST(VpTableView, TablesAreIsolatedPerVp) {
  VpTableView view;
  view.apply(make_record(1, "10.1.0.0/16", {Asn(1)}));
  EXPECT_NE(view.route(1, *Ipv4::parse("10.1.0.1")), nullptr);
  EXPECT_EQ(view.route(2, *Ipv4::parse("10.1.0.1")), nullptr);
  EXPECT_EQ(view.vps().size(), 1u);
}

TEST(VpTableView, DropsUnacceptablePrefixes) {
  VpTableView view;
  EXPECT_FALSE(view.apply(make_record(1, "10.1.0.0/28", {Asn(1)})));
  EXPECT_EQ(view.route_count(1), 0u);
}

BgpRecord withdrawal(VpId vp, const char* prefix) {
  return make_record(vp, prefix, {}, {}, RecordType::kWithdrawal);
}

// Every lookup the two views can answer over `vps` x `ips` agrees.
void expect_same_routes(const VpTableView& want, const VpTableView& got,
                        std::initializer_list<VpId> vps,
                        std::initializer_list<const char*> ips,
                        const std::string& label) {
  for (VpId vp : vps) {
    EXPECT_EQ(want.route_count(vp), got.route_count(vp)) << label;
    for (const char* ip : ips) {
      const VpRoute* a = want.route(vp, *Ipv4::parse(ip));
      const VpRoute* b = got.route(vp, *Ipv4::parse(ip));
      ASSERT_EQ(a == nullptr, b == nullptr)
          << label << " vp " << vp << " ip " << ip;
      if (a != nullptr) {
        EXPECT_EQ(a->path, b->path) << label;
        EXPECT_EQ(a->communities, b->communities) << label;
      }
    }
  }
}

// The engine absorbs each closed window with apply_all over the cut prefix
// of its backlog: window by window — announcements, replacements,
// withdrawals, a more-specific prefix, an empty window — the table must
// equal one that applied the same records one at a time, and records
// behind the cut must stay out.
TEST(VpTableView, ApplyAllAbsorbsWindowsInOrder) {
  VpTableView batched;
  VpTableView serial;
  std::vector<std::vector<BgpRecord>> windows = {
      {make_record(1, "10.0.0.0/16", {Asn(1), Asn(2)}),
       make_record(2, "10.0.0.0/16", {Asn(3), Asn(2)})},
      {make_record(1, "10.0.0.0/16", {Asn(1), Asn(4)}),  // replacement
       make_record(2, "20.0.0.0/16", {Asn(3), Asn(5)})},
      {withdrawal(2, "10.0.0.0/16"),
       make_record(3, "10.0.0.0/24", {Asn(6)})},  // more-specific prefix
      {},
      {make_record(1, "30.0.0.0/16", {Asn(7)})},
  };
  for (std::size_t w = 0; w < windows.size(); ++w) {
    // A record of the next window sits behind the cut.
    std::vector<BgpRecord> backlog = windows[w];
    backlog.push_back(make_record(1, "40.0.0.0/16", {Asn(8)}));
    EXPECT_EQ(batched.apply_all(backlog, windows[w].size()),
              windows[w].size());
    for (const BgpRecord& record : windows[w]) serial.apply(record);
    expect_same_routes(serial, batched, {1, 2, 3},
                       {"10.0.0.1", "10.0.1.1", "20.0.0.1", "30.0.0.1",
                        "40.0.0.1"},
                       "after window " + std::to_string(w));
  }
  EXPECT_EQ(batched.route(1, *Ipv4::parse("40.0.0.1")), nullptr);
}

// The engine snapshot stores the table through save_state/load_state. A
// table restored mid-run must answer every lookup like the original as both
// absorb the following windows, and re-save to the same bytes.
TEST(VpTableView, CheckpointRoundTripResumesLikeFreshRun) {
  VpTableView table;
  table.apply(make_record(1, "10.0.0.0/16", {Asn(1)}));
  table.apply(make_record(2, "40.0.0.0/16", {Asn(9)}));
  table.apply(make_record(1, "20.0.0.0/16", {Asn(2)}));
  table.apply(withdrawal(2, "40.0.0.0/16"));

  store::Encoder enc;
  table.save_state(enc);
  VpTableView restored;
  store::Decoder dec(enc.buffer());
  restored.load_state(dec);
  dec.expect_done();

  std::vector<std::vector<BgpRecord>> rounds = {
      {make_record(1, "30.0.0.0/16", {Asn(3)}),
       make_record(2, "40.0.0.0/16", {Asn(10)})},  // re-announce
      {withdrawal(1, "20.0.0.0/16")},
  };
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    table.apply_all(rounds[r], rounds[r].size());
    restored.apply_all(rounds[r], rounds[r].size());
    expect_same_routes(table, restored, {1, 2},
                       {"10.0.0.1", "20.0.0.1", "30.0.0.1", "40.0.0.1"},
                       "after round " + std::to_string(r));
  }
  store::Encoder ea, eb;
  table.save_state(ea);
  restored.save_state(eb);
  EXPECT_EQ(ea.buffer(), eb.buffer());
}

// The fields of one encoded record that the rejection rows below override;
// encode() writes them in put_record's layout around fixed other fields.
struct RawRecord {
  std::int64_t time = 100;
  std::uint8_t type = 1;  // RecordType::kAnnouncement
  std::uint8_t prefix_length = 16;
  std::uint64_t path_count = 2;  // two hops follow either way
};

std::string encode(const RawRecord& raw) {
  store::Encoder enc;
  enc.i64(raw.time);
  enc.u8(raw.type);
  enc.u32(7);  // vp
  enc.u32(65007);  // peer ASN
  enc.u32(Ipv4::parse("192.0.2.1")->value());
  enc.str("rrc00");
  enc.u32(Ipv4::parse("10.1.0.0")->value());
  enc.u8(raw.prefix_length);
  enc.u64(raw.path_count);
  enc.u32(65007);
  enc.u32(3356);
  enc.u64(0);  // no communities
  return enc.take();
}

TEST(RecordCodec, HandBuiltLayoutIsPutRecords) {
  BgpRecord record = make_record(7, "10.1.0.0/16", {Asn(65007), Asn(3356)},
                                 {}, RecordType::kAnnouncement, 100);
  record.peer_asn = Asn(65007);
  record.peer_ip = *Ipv4::parse("192.0.2.1");
  record.collector = "rrc00";
  store::Encoder enc;
  put_record(enc, record);
  ASSERT_EQ(enc.buffer(), encode(RawRecord{}));

  store::Decoder dec(enc.buffer());
  const BgpRecord decoded = get_record(dec);
  dec.expect_done();
  EXPECT_EQ(decoded.to_string(), record.to_string());
}

// Bytes no writer produces are a classified kCorrupt, never a record with an
// impossible field or an allocation sized by a damaged count. The fault
// injector's corruption pass and snapshot loads both rely on this.
TEST(RecordCodec, RejectsFieldsNoWriterProduces) {
  const struct {
    const char* label;
    RawRecord raw;
  } rows[] = {
      {"negative time", {.time = -1}},
      {"type byte 3", {.type = 3}},
      {"prefix length 33", {.prefix_length = 33}},
      {"path count past the payload",
       {.path_count = std::numeric_limits<std::uint64_t>::max()}},
  };
  for (const auto& row : rows) {
    const std::string bytes = encode(row.raw);
    store::Decoder dec(bytes);
    try {
      get_record(dec);
      ADD_FAILURE() << row.label << ": decoded";
    } catch (const store::StoreError& error) {
      EXPECT_EQ(error.kind(), store::StoreError::Kind::kCorrupt) << row.label;
    }
  }
}

// Seeded fuzz: random payloads, and truncated, bit-flipped or overwritten
// copies of a valid record, decode or throw StoreError — never a crash, a
// hang or another exception (the ASan job's full suite runs this loop).
TEST(RecordCodec, RandomPayloadsDecodeOrThrowStoreError) {
  Interner::ScopedInstance interner;  // decoded names and paths stay local
  const std::string valid = encode(RawRecord{});
  Rng rng(20201029);
  for (int i = 0; i < 20000; ++i) {
    std::string bytes;
    if (i % 2 == 0) {
      for (std::int64_t n = rng.uniform_int(0, 96); n > 0; --n) {
        bytes += static_cast<char>(rng.uniform_int(0, 255));
      }
    } else {
      bytes = valid;
      if (rng.bernoulli(0.3)) bytes.resize(rng.index(bytes.size() + 1));
      for (std::int64_t f = rng.uniform_int(1, 3); f > 0 && !bytes.empty();
           --f) {
        char& byte = bytes[rng.index(bytes.size())];
        byte = rng.bernoulli(0.5)
                   ? static_cast<char>(byte ^ (1 << rng.uniform_int(0, 7)))
                   : static_cast<char>(rng.uniform_int(0, 255));
      }
    }
    store::Decoder dec(bytes);
    try {
      (void)get_record(dec);
    } catch (const store::StoreError&) {
    } catch (const std::exception& error) {
      ADD_FAILURE() << "payload " << i << ": threw " << error.what();
    }
  }
}

class FeedFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    topo::TopologyParams params;
    params.num_tier1 = 4;
    params.num_transit = 16;
    params.num_stub = 40;
    params.seed = 31;
    topology_ = topo::build_topology(params);
    cp_ = std::make_unique<routing::ControlPlane>(topology_, 31);
    std::vector<topo::AsIndex> candidates;
    for (topo::AsIndex as = 0; as < topology_.as_count(); ++as) {
      candidates.push_back(as);
    }
    origins_ = {1, 2, 3, 4, 5};
    FeedParams fp;
    fp.vp_as_fraction = 0.3;
    fp.seed = 31;
    feed_ = std::make_unique<FeedSimulator>(*cp_, fp, candidates, origins_);
  }
  topo::Topology topology_;
  std::unique_ptr<routing::ControlPlane> cp_;
  std::unique_ptr<FeedSimulator> feed_;
  std::vector<topo::AsIndex> origins_;
};

TEST_F(FeedFixture, InitialRibCoversCachedRoutes) {
  auto rib = feed_->initial_rib(TimePoint(0));
  EXPECT_GT(rib.size(), feed_->vantage_points().size());
  for (const BgpRecord& record : rib) {
    EXPECT_EQ(record.type, RecordType::kRibEntry);
    EXPECT_FALSE(record.as_path.empty());
    // The announcing VP's own AS leads the path.
    EXPECT_EQ(record.as_path.front(), record.peer_asn);
  }
}

TEST_F(FeedFixture, AdjacencyFailureEmitsNewPathsOrWithdrawals) {
  // Fail an adjacency that some VP uses for origin 1.
  cp_->warm_origin(1);
  const routing::RouteTable& table = cp_->table_for(1);
  topo::LinkId victim = topo::kNoLink;
  for (const VantagePoint& vp : feed_->vantage_points()) {
    const routing::Route& route = table.at(vp.as_index);
    if (route.reachable() && route.via_link != topo::kNoLink) {
      victim = route.via_link;
      break;
    }
  }
  ASSERT_NE(victim, topo::kNoLink);

  routing::Event down;
  down.kind = routing::EventKind::kAdjacencyDown;
  down.link = victim;
  down.time = TimePoint(1000);
  auto impact = cp_->apply(down);
  auto records = feed_->on_event(down, impact);
  ASSERT_FALSE(records.empty());
  bool path_change_seen = false;
  for (const BgpRecord& record : records) {
    EXPECT_GE(record.time, down.time);  // jitter is forward-only
    if (record.type == RecordType::kAnnouncement &&
        !record.as_path.empty()) {
      path_change_seen = true;
    }
  }
  EXPECT_TRUE(path_change_seen);
}

TEST_F(FeedFixture, ParrotEmitsIdenticalAnnouncement) {
  ASSERT_FALSE(feed_->vantage_points().empty());
  const VantagePoint& vp = feed_->vantage_points().front();
  const routing::RouteAttributes* cached =
      feed_->cached_attributes(vp.id, origins_[0]);
  if (cached == nullptr || !cached->reachable()) GTEST_SKIP();

  routing::Event parrot;
  parrot.kind = routing::EventKind::kParrotUpdate;
  parrot.as = vp.as_index;
  parrot.origin = origins_[0];
  parrot.time = TimePoint(5000);
  routing::ControlPlane::Impact no_impact;
  auto records = feed_->on_event(parrot, no_impact);
  ASSERT_FALSE(records.empty());
  for (const BgpRecord& record : records) {
    EXPECT_EQ(record.as_path, cached->path);
    EXPECT_EQ(record.communities, cached->communities);
  }
}

}  // namespace
}  // namespace rrr::bgp
