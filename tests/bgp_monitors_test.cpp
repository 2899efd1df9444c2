// Focused unit tests for the BGP-based monitors (§4.1.2-§4.1.4) against a
// hand-built table view: the signal logic is exercised without the
// simulator, so every suppression rule has a deterministic witness.
#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "netbase/rng.h"
#include "signals/aspath_monitor.h"
#include "signals/burst_monitor.h"
#include "signals/community_monitor.h"

namespace rrr::signals {
namespace {

constexpr std::int64_t kWatchWindow = 100;

class BgpMonitorFixture : public ::testing::Test {
 protected:
  BgpMonitorFixture() {
    // Four VPs, all with routes to the destination 10.1.0.1 through the
    // suffix {20, 30, 40}; VPs 0-2 enter at AS 20 (matching the corpus
    // traceroute), VP 3 first intersects deeper at AS 30.
    for (bgp::VpId vp = 0; vp < 4; ++vp) {
      bgp::VantagePoint vantage;
      vantage.id = vp;
      vantage.asn = Asn(900 + vp);
      vps_.push_back(vantage);
    }
    context_.table = &table_;
    context_.vps = &vps_;

    install(0, {Asn(900), Asn(20), Asn(30), Asn(40)},
            {Community(Asn(20), 51007)});
    install(1, {Asn(901), Asn(20), Asn(30), Asn(40)},
            {Community(Asn(20), 51007)});
    install(2, {Asn(902), Asn(20), Asn(30), Asn(40)},
            {Community(Asn(20), 51007)});
    install(3, {Asn(903), Asn(30), Asn(40)}, {});

    // The corpus traceroute's processed view: AS path {10, 20, 30, 40}.
    view_.key = tr::PairKey{7, *Ipv4::parse("10.1.0.1")};
    view_.window = kWatchWindow;
    view_.processed.as_path = {Asn(10), Asn(20), Asn(30), Asn(40)};
  }

  void install(bgp::VpId vp, AsPath path, CommunitySet communities,
               std::int64_t t = 0) {
    bgp::BgpRecord record;
    record.time = TimePoint(t);
    record.type = bgp::RecordType::kAnnouncement;
    record.vp = vp;
    record.prefix = *Prefix::parse("10.1.0.0/16");
    record.as_path = std::move(path);
    record.communities = std::move(communities);
    table_.apply(record);
  }

  // Builds a dispatched update record (not yet applied to the table).
  bgp::BgpRecord update(bgp::VpId vp, AsPath path, CommunitySet communities = {},
                        std::int64_t t = 0) {
    bgp::BgpRecord record;
    record.time = TimePoint(t);
    record.type = bgp::RecordType::kAnnouncement;
    record.vp = vp;
    record.prefix = *Prefix::parse("10.1.0.0/16");
    record.as_path = std::move(path);
    record.communities = std::move(communities);
    return record;
  }

  DispatchedRecord dispatch(const bgp::BgpRecord& record) {
    DispatchedRecord dispatched;
    dispatched.record = &record;
    dispatched.path = record.as_path;
    const bgp::VpRoute* standing =
        table_.route(record.vp, record.prefix.network());
    dispatched.duplicate = standing != nullptr &&
                           standing->path == record.as_path &&
                           standing->communities == record.communities;
    return dispatched;
  }

  // The monitors read the table through BgpContext; apply() makes an
  // install visible immediately.
  bgp::VpTableView table_;
  std::vector<bgp::VantagePoint> vps_;
  BgpContext context_;
  CorpusView view_;
  PotentialIndex index_;
};

TEST_F(BgpMonitorFixture, AsPathMonitorPinsV0AndDetectsSuffixShift) {
  AsPathMonitor monitor(context_);
  monitor.watch(view_, index_);
  ASSERT_GT(index_.relations_of(view_.key).size(), 0u);

  // Keep the ratio steady for enough windows, then shift every VP away
  // from the suffix at AS 20.
  std::int64_t w = kWatchWindow + 1;
  for (; w < kWatchWindow + 10; ++w) {
    auto none = monitor.close_window(w, TimePoint(w * 900));
    EXPECT_TRUE(none.empty());
  }
  bool flagged = false;
  for (int burst = 0; burst < 6 && !flagged; ++burst, ++w) {
    for (bgp::VpId vp : {0u, 1u, 2u}) {
      bgp::BgpRecord changed =
          update(vp, {Asn(900 + vp), Asn(20), Asn(35), Asn(40)});
      DispatchedRecord d = dispatch(changed);
      monitor.on_record(d, w);
      table_.apply(changed);
    }
    for (const auto& signal : monitor.close_window(w, TimePoint(w * 900))) {
      EXPECT_EQ(signal.technique, Technique::kBgpAsPath);
      EXPECT_EQ(signal.pair, view_.key);
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
}

std::string describe(const StalenessSignal& signal) {
  return signal.to_string() + " potential=" +
         std::to_string(signal.potential) + " deviation=" +
         std::to_string(std::bit_cast<std::uint64_t>(signal.meta.deviation));
}

std::string saved(const AsPathMonitor& monitor) {
  store::Encoder enc;
  monitor.save_state(enc);
  return enc.take();
}

// The AS-path monitor reuses each entry's standing-route counts until a
// window's records dirty the entry. Driven in the engine's order (dispatch
// to on_record, close, then absorb into the table), a monitor keeping its
// cache must match one rebuilt from its snapshot before every close, whose
// counts therefore always come from the table.
TEST_F(BgpMonitorFixture, AsPathStandingCountsFollowTheTableInEngineOrder) {
  std::vector<CorpusView> views = {view_};
  for (const char* dst : {"10.1.5.9", "10.1.200.3"}) {
    CorpusView view = view_;
    view.key.dst = *Ipv4::parse(dst);
    views.push_back(view);
  }
  AsPathMonitor cached(context_);
  AsPathMonitor rebuilt(context_);
  PotentialIndex cached_index;
  PotentialIndex rebuilt_index;
  for (const CorpusView& view : views) {
    cached.watch(view, cached_index);
    rebuilt.watch(view, rebuilt_index);
  }
  ASSERT_EQ(saved(cached), saved(rebuilt));

  // Announcements and withdrawals for the covering /16, a /17 and /24
  // more-specifics splitting the watched destinations, and a /25 the
  // table refuses. Paths keep the suffix, shift it, or enter deeper.
  const char* prefixes[] = {"10.1.0.0/16", "10.1.0.0/17", "10.1.0.0/24",
                            "10.1.5.0/24", "10.1.200.0/24", "10.1.0.0/25"};
  auto path_for = [](bgp::VpId vp, std::int64_t shape) -> AsPath {
    Asn self(900 + vp);
    switch (shape) {
      case 0: return {self, Asn(20), Asn(30), Asn(40)};
      case 1: return {self, Asn(20), Asn(35), Asn(40)};
      case 2: return {self, Asn(30), Asn(40)};
      case 3: return {self, Asn(55), Asn(20), Asn(30), Asn(40)};
      default: return {self, Asn(77)};
    }
  };
  Rng rng(0xA5F1);
  std::size_t signal_count = 0;
  std::size_t quiet_windows = 0;
  for (std::int64_t w = kWatchWindow + 1; w <= kWatchWindow + 200; ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    // About one window in three is quiet, so hot entries re-score from
    // their cached counts alone.
    std::vector<bgp::BgpRecord> records;
    if (rng.bernoulli(0.65)) {
      std::int64_t n = rng.uniform_int(1, 4);
      for (std::int64_t i = 0; i < n; ++i) {
        auto vp = static_cast<bgp::VpId>(rng.uniform_int(0, 3));
        bgp::BgpRecord record =
            update(vp, path_for(vp, rng.uniform_int(0, 4)), {}, w * 900);
        record.prefix = *Prefix::parse(
            prefixes[rng.uniform_int(0, std::size(prefixes) - 1)]);
        if (rng.bernoulli(0.3)) {
          record.type = bgp::RecordType::kWithdrawal;
          record.as_path = AsPath{};
        }
        records.push_back(std::move(record));
      }
    } else {
      ++quiet_windows;
    }

    for (const bgp::BgpRecord& record : records) {
      DispatchedRecord d = dispatch(record);
      cached.on_record(d, w);
      rebuilt.on_record(d, w);
    }
    {
      std::string bytes = saved(rebuilt);
      store::Decoder dec(bytes);
      rebuilt.load_state(dec);
      ASSERT_TRUE(dec.done());
    }
    std::vector<StalenessSignal> got =
        cached.close_window(w, TimePoint(w * 900));
    std::vector<StalenessSignal> want =
        rebuilt.close_window(w, TimePoint(w * 900));
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(describe(got[i]), describe(want[i]));
    }
    ASSERT_EQ(saved(cached), saved(rebuilt));
    signal_count += got.size();
    for (const bgp::BgpRecord& record : records) table_.apply(record);
  }
  // The schedule must exercise both the signal path and cache-only windows.
  EXPECT_GT(signal_count, 0u);
  EXPECT_GT(quiet_windows, 40u);
}

TEST_F(BgpMonitorFixture, CommunityChangeSamePathSignals) {
  CommunityReputation reputation;
  CommunityMonitor monitor(context_, reputation);
  monitor.watch(view_, index_);

  std::int64_t w = kWatchWindow + 1;
  bgp::BgpRecord changed = update(0, {Asn(900), Asn(20), Asn(30), Asn(40)},
                                  {Community(Asn(20), 51013)});
  DispatchedRecord d = dispatch(changed);
  EXPECT_FALSE(d.duplicate);
  monitor.on_record(d, w);
  auto signals = monitor.close_window(w, TimePoint(w * 900));
  ASSERT_EQ(signals.size(), 1u);
  EXPECT_EQ(signals[0].technique, Technique::kBgpCommunity);
  EXPECT_EQ(signals[0].community.definer(), Asn(20));
}

TEST_F(BgpMonitorFixture, CommunityVanishingWithPathChangeIsSuppressed) {
  CommunityReputation reputation;
  CommunityMonitor monitor(context_, reputation);
  monitor.watch(view_, index_);

  // VP 0 reroutes upstream: AS 20's community disappears because the new
  // chain strips it — not evidence of a border change at AS 20. The new
  // path still overlaps the suffix at 20.
  std::int64_t w = kWatchWindow + 1;
  bgp::BgpRecord rerouted =
      update(0, {Asn(900), Asn(55), Asn(20), Asn(30), Asn(40)}, {});
  DispatchedRecord d = dispatch(rerouted);
  monitor.on_record(d, w);
  EXPECT_TRUE(monitor.close_window(w, TimePoint(w * 900)).empty());
}

TEST_F(BgpMonitorFixture, CommunityKnownElsewhereIsNotNews) {
  CommunityReputation reputation;
  CommunityMonitor monitor(context_, reputation);
  // VP 1 already carries the "new" community before the watch.
  install(1, {Asn(901), Asn(20), Asn(30), Asn(40)},
          {Community(Asn(20), 51013)});
  monitor.watch(view_, index_);

  std::int64_t w = kWatchWindow + 1;
  bgp::BgpRecord changed =
      update(0, {Asn(900), Asn(20), Asn(30), Asn(40)},
             {Community(Asn(20), 51007), Community(Asn(20), 51013)});
  DispatchedRecord d = dispatch(changed);
  monitor.on_record(d, w);
  // The addition of 20:51013 is suppressed (another VP already shows it)
  // and nothing was removed, so no signal fires.
  EXPECT_TRUE(monitor.close_window(w, TimePoint(w * 900)).empty());
}

TEST_F(BgpMonitorFixture, BurstQuorumGatesSignals) {
  BurstMonitor monitor(context_);
  monitor.watch(view_, index_);
  ASSERT_GT(monitor.entry_count(), 0u);

  // One duplicate from a single VP: never a burst.
  std::int64_t w = kWatchWindow + 30;
  bgp::BgpRecord dup0 = update(0, {Asn(900), Asn(20), Asn(30), Asn(40)},
                               {Community(Asn(20), 51007)});
  DispatchedRecord d0 = dispatch(dup0);
  ASSERT_TRUE(d0.duplicate);
  monitor.on_record(d0, w);
  EXPECT_TRUE(monitor.close_window(w, TimePoint(w * 900)).empty());

  // Contemporaneous duplicates from the whole pinned set: a burst.
  ++w;
  std::vector<bgp::BgpRecord> dups;
  for (bgp::VpId vp : {0u, 1u, 2u}) {
    dups.push_back(update(vp, {Asn(900 + vp), Asn(20), Asn(30), Asn(40)},
                          {Community(Asn(20), 51007)}));
  }
  for (const auto& record : dups) {
    DispatchedRecord d = dispatch(record);
    ASSERT_TRUE(d.duplicate);
    monitor.on_record(d, w);
  }
  auto signals = monitor.close_window(w, TimePoint(w * 900));
  ASSERT_FALSE(signals.empty());
  for (const auto& signal : signals) {
    EXPECT_EQ(signal.technique, Technique::kBgpBurst);
    EXPECT_EQ(signal.pair, view_.key);
  }
}

TEST_F(BgpMonitorFixture, UnwatchStopsSignals) {
  CommunityReputation reputation;
  CommunityMonitor monitor(context_, reputation);
  monitor.watch(view_, index_);
  monitor.unwatch(view_.key);
  index_.unrelate_pair(view_.key);

  std::int64_t w = kWatchWindow + 1;
  bgp::BgpRecord changed = update(0, {Asn(900), Asn(20), Asn(30), Asn(40)},
                                  {Community(Asn(20), 51013)});
  DispatchedRecord d = dispatch(changed);
  monitor.on_record(d, w);
  EXPECT_TRUE(monitor.close_window(w, TimePoint(w * 900)).empty());
  EXPECT_TRUE(index_.relations_of(view_.key).empty());
}

}  // namespace
}  // namespace rrr::signals
