// Focused unit tests for the BGP-based monitors (§4.1.2-§4.1.4) against a
// hand-built table view: the signal logic is exercised without the
// simulator, so every suppression rule has a deterministic witness.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "netbase/rng.h"
#include "runtime/thread_pool.h"
#include "signals/aspath_monitor.h"
#include "signals/burst_monitor.h"
#include "signals/community_monitor.h"
#include "signals/engine.h"
#include "signals/serial.h"

namespace rrr::signals {
namespace {

constexpr std::int64_t kWatchWindow = 100;
// An IXP route server the fixture's table strips from paths.
constexpr Asn kRouteServer(59001);

std::vector<bgp::VantagePoint> four_vps() {
  std::vector<bgp::VantagePoint> vps;
  for (bgp::VpId vp = 0; vp < 4; ++vp) {
    bgp::VantagePoint vantage;
    vantage.id = vp;
    vantage.asn = Asn(900 + vp);
    vps.push_back(vantage);
  }
  return vps;
}

class BgpMonitorFixture : public ::testing::Test {
 protected:
  // Four VPs, all with routes to the destination 10.1.0.1 through the
  // suffix {20, 30, 40}; VPs 0-2 enter at AS 20 (matching the corpus
  // traceroute), VP 3 first intersects deeper at AS 30.
  BgpMonitorFixture()
      : vps_(four_vps()), table_(std::set<Asn>{kRouteServer}, {0, 1, 2, 3}) {
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
               std::int64_t t = 0, const char* prefix = "10.1.0.0/16") {
    bgp::BgpRecord record;
    record.time = TimePoint(t);
    record.type = bgp::RecordType::kAnnouncement;
    record.vp = vp;
    record.prefix = *Prefix::parse(prefix);
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

  // The engine's view of `record` against the standing table: its path in
  // table-canonical form and its duplicate status. The view points at
  // `record`, which outlives it; the one-record batch does not.
  DispatchedRecord dispatch(const bgp::BgpRecord& record) {
    std::vector<bgp::BgpRecord> batch = {record};
    std::vector<DispatchedRecord> out;
    dispatch_against_table(batch, batch.size(), table_, out);
    out.front().record = &record;
    return out.front();
  }

  // The standing routes a watch of `view` reads.
  bgp::RouteRow row_of(const CorpusView& view) {
    return table_.row(view.key.dst);
  }

  // The monitors read the table through BgpContext; apply() makes an
  // install visible immediately.
  std::vector<bgp::VantagePoint> vps_;
  bgp::VpTableView table_;
  BgpContext context_;
  CorpusView view_;
  PotentialIndex index_;
};

TEST_F(BgpMonitorFixture, AsPathMonitorPinsV0AndDetectsSuffixShift) {
  AsPathMonitor monitor(context_);
  monitor.watch(view_, index_, row_of(view_));
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
    cached.watch(view, cached_index, row_of(view));
    rebuilt.watch(view, rebuilt_index, row_of(view));
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
  std::size_t reverted_verdicts = 0;
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
    // The revocation judge runs after the absorb: the cached monitor's
    // verdicts equal those of one rebuilt from its snapshot, which has no
    // cache and reads every count from the table.
    {
      std::string bytes = saved(rebuilt);
      store::Decoder dec(bytes);
      rebuilt.load_state(dec);
    }
    for (PotentialId id = 1; id <= cached.entry_count(); ++id) {
      ASSERT_EQ(cached.reverted(id), rebuilt.reverted(id))
          << "potential " << id;
      if (cached.reverted(id)) ++reverted_verdicts;
    }
  }
  // The schedule must exercise both the signal path and cache-only windows.
  EXPECT_GT(signal_count, 0u);
  EXPECT_GT(quiet_windows, 40u);
  EXPECT_GT(reverted_verdicts, 0u);
}

TEST_F(BgpMonitorFixture, CommunityChangeSamePathSignals) {
  CommunityReputation reputation;
  CommunityMonitor monitor(context_, reputation);
  monitor.watch(view_, index_, row_of(view_));

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
  monitor.watch(view_, index_, row_of(view_));

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
  monitor.watch(view_, index_, row_of(view_));

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
  monitor.watch(view_, index_, row_of(view_));
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
  monitor.watch(view_, index_, row_of(view_));
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

// --- The three BGP-entry monitors under one suite ---------------------------
//
// AS path, community and burst share how an update finds the corpus entries
// under its prefix and how those entries are worked and persisted, so every
// case below runs against each of them.

template <typename M>
M make_monitor(const BgpContext& context, CommunityReputation& reputation) {
  if constexpr (std::is_same_v<M, CommunityMonitor>) {
    return M(context, reputation);
  } else {
    (void)reputation;
    return M(context);
  }
}

// One monitor and the potential index its watches register with. Pinned in
// place: the community monitor keeps a reference to `reputation`.
template <typename M>
struct BgpRig {
  explicit BgpRig(const BgpContext& context)
      : monitor(make_monitor<M>(context, reputation)) {}
  BgpRig(const BgpRig&) = delete;
  BgpRig& operator=(const BgpRig&) = delete;

  void watch(const CorpusView& view, bgp::RouteRow row) {
    monitor.watch(view, index, row);
  }
  void unwatch(const tr::PairKey& pair) {
    monitor.unwatch(pair);
    index.unrelate_pair(pair);
  }
  std::vector<StalenessSignal> close(std::int64_t w) {
    return monitor.close_window(w, TimePoint(w * 900));
  }

  CommunityReputation reputation;
  M monitor;
  PotentialIndex index;
};

template <typename M>
std::string state_of(const M& monitor) {
  store::Encoder enc;
  monitor.save_state(enc);
  return enc.take();
}

std::string bytes_of(const std::vector<StalenessSignal>& signals) {
  store::Encoder enc;
  for (const StalenessSignal& signal : signals) put_signal(enc, signal);
  return enc.take();
}

template <typename M>
class BgpMonitorTest : public BgpMonitorFixture {
 protected:
  using Rig = BgpRig<M>;

  // `count` destinations under the fixture's 10.1.0.0/16 routes, each
  // watched from two probes.
  std::vector<CorpusView> spread_views(std::uint32_t count) const {
    std::vector<CorpusView> views;
    for (std::uint32_t i = 0; i < count; ++i) {
      for (std::uint32_t probe : {2 * i, 2 * i + 1}) {
        CorpusView view = view_;
        view.key = tr::PairKey{
            probe, Ipv4((10u << 24) | (1u << 16) | ((i * 37u % 256u) << 8) |
                        (i + 1u))};
        views.push_back(view);
      }
    }
    return views;
  }

  // One window of the scripted stream, built against the standing table.
  // Four windows in five carry up to four random updates: announcements
  // and withdrawals of the covering /16 and of more-specifics, keeping,
  // shifting or entering the suffix deeper, with AS 20's community kept,
  // replaced, added or dropped. The fifth re-announces every VP's standing
  // route of one prefix: a duplicate burst.
  std::vector<bgp::BgpRecord> scripted_records(Rng& rng, std::int64_t w) {
    static const char* const kPrefixes[] = {"10.1.0.0/16", "10.1.0.0/17",
                                            "10.1.128.0/17", "10.1.0.0/24",
                                            "10.1.37.0/24"};
    auto any_prefix = [&rng] {
      return *Prefix::parse(kPrefixes[rng.index(std::size(kPrefixes))]);
    };
    std::vector<bgp::BgpRecord> records;
    if (rng.bernoulli(0.2)) {
      Prefix prefix = any_prefix();
      for (bgp::VpId vp = 0; vp < 4; ++vp) {
        const bgp::VpRoute* standing = table_.route(vp, prefix.network());
        if (standing == nullptr || standing->path.empty()) continue;
        bgp::BgpRecord record = update(vp, {}, {}, w * 900);
        record.prefix = prefix;
        record.as_path = standing->path;
        record.communities = standing->communities;
        records.push_back(std::move(record));
      }
      return records;
    }
    for (std::int64_t n = rng.uniform_int(0, 4); n > 0; --n) {
      auto vp = static_cast<bgp::VpId>(rng.uniform_int(0, 3));
      Asn self(900 + vp);
      AsPath path;
      switch (rng.uniform_int(0, 3)) {
        case 0: path = {self, Asn(20), Asn(30), Asn(40)}; break;
        case 1: path = {self, Asn(20), Asn(35), Asn(40)}; break;
        case 2: path = {self, Asn(30), Asn(40)}; break;
        default: path = {self, Asn(55), Asn(20), Asn(30), Asn(40)}; break;
      }
      CommunitySet communities;
      switch (rng.uniform_int(0, 3)) {
        case 0: communities = {Community(Asn(20), 51007)}; break;
        case 1: communities = {Community(Asn(20), 51013)}; break;
        case 2:
          communities = {Community(Asn(20), 51007),
                         Community(Asn(20), 51013)};
          break;
        default: break;
      }
      bgp::BgpRecord record = update(vp, path, communities, w * 900);
      record.prefix = any_prefix();
      if (rng.bernoulli(0.15)) {
        record.type = bgp::RecordType::kWithdrawal;
        record.as_path = AsPath{};
        record.communities = CommunitySet{};
      }
      records.push_back(std::move(record));
    }
    return records;
  }

  // Watch churn of the scripted stream: the third destination's first
  // probe is refreshed at window 40 and again at 90, as the engine does it
  // (unwatch, unrelate, watch against the then-standing table).
  void churn(std::int64_t w, const std::vector<CorpusView>& views,
             const std::vector<Rig*>& rigs) {
    std::int64_t offset = w - kWatchWindow;
    for (Rig* rig : rigs) {
      if (offset == 0) {
        for (const CorpusView& view : views) {
          rig->watch(view, this->row_of(view));
        }
      } else if (offset == 40 || offset == 90) {
        CorpusView view = views[4];
        view.window = w;
        rig->unwatch(view.key);
        rig->watch(view, this->row_of(view));
      }
    }
  }

  // Engine order for one window: every record reaches on_record against
  // the start-of-window table, the monitors close, then the table absorbs
  // the records.
  void dispatch_all(const std::vector<bgp::BgpRecord>& records,
                    const std::vector<Rig*>& rigs, std::int64_t w) {
    for (const bgp::BgpRecord& record : records) {
      DispatchedRecord d = dispatch(record);
      for (Rig* rig : rigs) rig->monitor.on_record(d, w);
    }
  }
  void absorb(const std::vector<bgp::BgpRecord>& records) {
    for (const bgp::BgpRecord& record : records) table_.apply(record);
  }

  // A fresh monitor loaded from `from`'s snapshot, with copies of the
  // state its engine would restore alongside (potential index, reputation).
  std::unique_ptr<Rig> restored(const Rig& from) {
    auto rig = std::make_unique<Rig>(context_);
    std::string bytes = state_of(from.monitor);
    store::Decoder dec(bytes);
    rig->monitor.load_state(dec);
    EXPECT_TRUE(dec.done());
    EXPECT_EQ(state_of(rig->monitor), bytes);
    rig->index = from.index;
    rig->reputation = from.reputation;
    return rig;
  }
};

struct BgpMonitorNames {
  template <typename M>
  static std::string GetName(int) {
    if (std::is_same_v<M, AsPathMonitor>) return "AsPath";
    if (std::is_same_v<M, CommunityMonitor>) return "Community";
    return "Burst";
  }
};

using BgpMonitors =
    ::testing::Types<AsPathMonitor, CommunityMonitor, BurstMonitor>;
TYPED_TEST_SUITE(BgpMonitorTest, BgpMonitors, BgpMonitorNames);

// Snapshots taken mid-window (after dispatch, before the close, so the
// touched list is populated) and at window boundaries restore into a fresh
// monitor that then emits and saves exactly what the uninterrupted one
// does, across watch churn.
TYPED_TEST(BgpMonitorTest, SnapshotMidStreamResumesIdentically) {
  using Rig = BgpRig<TypeParam>;
  struct Cut {
    std::int64_t offset;
    bool mid_window;
  };
  const Cut cuts[] = {{3, true}, {41, false}, {77, true}, {120, true}};
  const std::vector<CorpusView> views = this->spread_views(6);
  Rig live(this->context_);
  std::vector<std::unique_ptr<Rig>> resumed;
  Rng rng(0xB6E1);
  std::size_t fired = 0;
  for (std::int64_t w = kWatchWindow; w < kWatchWindow + 160; ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    std::vector<Rig*> rigs = {&live};
    for (auto& rig : resumed) rigs.push_back(rig.get());
    this->churn(w, views, rigs);
    std::vector<bgp::BgpRecord> records = this->scripted_records(rng, w);
    this->dispatch_all(records, rigs, w);
    auto cut_here = [&](bool mid_window) {
      for (const Cut& cut : cuts) {
        if (cut.offset == w - kWatchWindow && cut.mid_window == mid_window) {
          return true;
        }
      }
      return false;
    };
    if (cut_here(true)) resumed.push_back(this->restored(live));
    std::string want = bytes_of(live.close(w));
    for (auto& rig : resumed) ASSERT_EQ(bytes_of(rig->close(w)), want);
    fired += want.empty() ? 0 : 1;
    this->absorb(records);
    if (cut_here(false)) resumed.push_back(this->restored(live));
  }
  ASSERT_EQ(resumed.size(), std::size(cuts));
  for (auto& rig : resumed) {
    EXPECT_EQ(state_of(rig->monitor), state_of(live.monitor));
  }
  EXPECT_GT(fired, 0u) << "stream too quiet to exercise the close";
}

TYPED_TEST(BgpMonitorTest, PooledCloseEqualsSerialClose) {
  using Rig = BgpRig<TypeParam>;
  runtime::ThreadPool pool(4);
  Rig serial(this->context_);
  Rig pooled(this->context_);
  pooled.monitor.set_pool(&pool);
  const std::vector<CorpusView> views = this->spread_views(24);
  Rng rng(0x5EED);
  std::size_t fired = 0;
  for (std::int64_t w = kWatchWindow; w < kWatchWindow + 120; ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    this->churn(w, views, {&serial, &pooled});
    std::vector<bgp::BgpRecord> records = this->scripted_records(rng, w);
    this->dispatch_all(records, {&serial, &pooled}, w);
    std::string want = bytes_of(serial.close(w));
    ASSERT_EQ(bytes_of(pooled.close(w)), want);
    fired += want.empty() ? 0 : 1;
    this->absorb(records);
  }
  EXPECT_EQ(state_of(pooled.monitor), state_of(serial.monitor));
  EXPECT_GT(fired, 0u) << "stream too quiet to exercise the close";
}

// Unwatching a pair removes every trace of it: watching A, then B at the
// same destination, then unwatching B leaves the bytes of watching A alone,
// and a record dispatched afterwards touches the same entries.
TYPED_TEST(BgpMonitorTest,
           UnwatchingTheSecondPairOfADestinationLeavesTheFirst) {
  using Rig = BgpRig<TypeParam>;
  CorpusView a = this->view_;
  CorpusView b = this->view_;
  b.key.probe = a.key.probe + 1;
  Rig both(this->context_);
  both.watch(a, this->row_of(a));
  both.watch(b, this->row_of(b));
  ASSERT_NE(state_of(both.monitor), state_of(Rig(this->context_).monitor));
  both.unwatch(b.key);
  Rig alone(this->context_);
  alone.watch(a, this->row_of(a));
  EXPECT_EQ(state_of(both.monitor), state_of(alone.monitor));

  const std::int64_t w = kWatchWindow + 30;
  std::vector<bgp::BgpRecord> records;
  for (bgp::VpId vp : {0u, 1u, 2u}) {
    records.push_back(
        this->update(vp, {Asn(900 + vp), Asn(20), Asn(30), Asn(40)},
                     {Community(Asn(20), 51013)}, w * 900));
  }
  this->dispatch_all(records, {&both, &alone}, w);
  EXPECT_EQ(state_of(both.monitor), state_of(alone.monitor));
  EXPECT_EQ(bytes_of(both.close(w)), bytes_of(alone.close(w)));
  EXPECT_EQ(state_of(both.monitor), state_of(alone.monitor));
}

// A prefix shorter than /16 reaches the entries of every destination it
// covers, in address order, and none outside it.
TYPED_TEST(BgpMonitorTest, ShortPrefixReachesEveryCoveredDestinationInOrder) {
  using Rig = BgpRig<TypeParam>;
  for (const char* prefix : {"10.0.0.0/8", "11.0.0.0/8"}) {
    this->install(0, {Asn(900), Asn(20), Asn(30), Asn(40)},
                  {Community(Asn(20), 51007)}, 0, prefix);
    this->install(1, {Asn(901), Asn(20), Asn(30), Asn(40)},
                  {Community(Asn(20), 51007)}, 0, prefix);
    this->install(2, {Asn(902), Asn(20), Asn(30), Asn(40)},
                  {Community(Asn(20), 51007)}, 0, prefix);
    this->install(3, {Asn(903), Asn(30), Asn(40)}, {}, 0, prefix);
  }
  // Watched out of address order, one destination outside the /8.
  const std::vector<Ipv4> covered = {*Ipv4::parse("10.2.0.9"),
                                     *Ipv4::parse("10.77.1.1"),
                                     *Ipv4::parse("10.200.3.4")};
  Rig rig(this->context_);
  for (const char* dst : {"10.77.1.1", "11.0.0.1", "10.200.3.4", "10.2.0.9"}) {
    CorpusView view = this->view_;
    view.key.dst = *Ipv4::parse(dst);
    rig.watch(view, this->row_of(view));
  }

  // What moves each technique, announced for the whole /8 by VPs 0-2:
  // AS-path shifts the suffix after AS 20, community replaces AS 20's
  // value on the unchanged path, burst re-announces the standing route.
  auto announce = [&](bgp::VpId vp, std::int64_t w) {
    AsPath path = {Asn(900 + vp), Asn(20), Asn(30), Asn(40)};
    CommunitySet communities = {Community(Asn(20), 51007)};
    if constexpr (std::is_same_v<TypeParam, AsPathMonitor>) {
      path = {Asn(900 + vp), Asn(20), Asn(35), Asn(40)};
    } else if constexpr (std::is_same_v<TypeParam, CommunityMonitor>) {
      communities = {Community(Asn(20), 51013)};
    }
    bgp::BgpRecord record = this->update(vp, path, communities, w * 900);
    record.prefix = *Prefix::parse("10.0.0.0/8");
    return record;
  };
  std::vector<StalenessSignal> fired;
  for (std::int64_t w = kWatchWindow + 30;
       w < kWatchWindow + 40 && fired.empty(); ++w) {
    std::vector<bgp::BgpRecord> records;
    for (bgp::VpId vp : {0u, 1u, 2u}) records.push_back(announce(vp, w));
    this->dispatch_all(records, {&rig}, w);
    fired = rig.close(w);
    this->absorb(records);
  }
  ASSERT_FALSE(fired.empty());
  std::vector<Ipv4> order;
  for (const StalenessSignal& signal : fired) {
    if (order.empty() || order.back() != signal.pair.dst) {
      order.push_back(signal.pair.dst);
    }
  }
  EXPECT_EQ(order, covered);
}

// A repeat of a VP's standing route that passes through an IXP route server
// and prepends the VP's own AS is, in the table's canonical form, the
// standing route: each monitor takes it as the duplicate the verbatim
// repeat is, and ends the window as if it had seen that one.
TYPED_TEST(BgpMonitorTest, RouteServerRepeatDispatchesAsDuplicate) {
  using Rig = BgpRig<TypeParam>;
  Rig verbatim(this->context_);
  Rig detoured(this->context_);
  for (Rig* rig : {&verbatim, &detoured}) {
    rig->watch(this->view_, this->row_of(this->view_));
  }
  const std::int64_t w = kWatchWindow + 30;
  std::vector<bgp::BgpRecord> repeats;
  std::vector<bgp::BgpRecord> detours;
  for (bgp::VpId vp : {0u, 1u, 2u}) {
    const bgp::VpRoute* standing =
        this->table_.route(vp, this->view_.key.dst);
    ASSERT_NE(standing, nullptr);
    repeats.push_back(this->update(vp, standing->path.view(),
                                   standing->communities.view(), w * 900));
    AsPath path = standing->path.view();
    path.insert(path.begin() + 1, kRouteServer);
    path.insert(path.begin(), path.front());
    bgp::BgpRecord detour = repeats.back();
    detour.as_path = path;
    detours.push_back(std::move(detour));
  }
  for (std::size_t i = 0; i < repeats.size(); ++i) {
    DispatchedRecord plain = this->dispatch(repeats[i]);
    DispatchedRecord stripped = this->dispatch(detours[i]);
    ASSERT_TRUE(plain.duplicate);
    ASSERT_TRUE(stripped.duplicate);
    EXPECT_EQ(stripped.record, &detours[i]);
    EXPECT_TRUE(stripped.path == plain.path);
    verbatim.monitor.on_record(plain, w);
    detoured.monitor.on_record(stripped, w);
  }
  EXPECT_EQ(state_of(detoured.monitor), state_of(verbatim.monitor));
  std::string want = bytes_of(verbatim.close(w));
  EXPECT_EQ(bytes_of(detoured.close(w)), want);
  EXPECT_EQ(state_of(detoured.monitor), state_of(verbatim.monitor));
  if constexpr (std::is_same_v<TypeParam, BurstMonitor>) {
    EXPECT_FALSE(want.empty()) << "three VPs repeating are a burst";
  }
}

// Whether loading `bytes` into `monitor` throws StoreError kCorrupt.
template <typename M>
bool load_is_corrupt(M& monitor, const std::string& bytes) {
  store::Decoder dec(bytes);
  try {
    monitor.load_state(dec);
  } catch (const store::StoreError& error) {
    return error.kind() == store::StoreError::Kind::kCorrupt;
  }
  return false;
}

std::string pair_bytes(const tr::PairKey& pair) {
  store::Encoder enc;
  put_pair(enc, pair);
  return enc.take();
}

// The entry store lists each id once, ascending: two swapped ids of one
// pair's entries used to load, each payload under the other's id.
TEST_F(BgpMonitorFixture, EntryIndexRejectsEntryIdsOutOfOrder) {
  AsPathMonitor monitor(context_);
  monitor.watch(view_, index_, row_of(view_));
  ASSERT_EQ(monitor.entry_count(), 2u);
  const std::string valid = saved(monitor);
  // The entry count, then each entry's id and pair.
  store::Encoder first, second;
  first.u64(1);
  second.u64(2);
  ASSERT_EQ(valid.substr(8, 8), first.buffer());
  const std::size_t at = valid.find(second.buffer() + pair_bytes(view_.key),
                                    16);
  ASSERT_NE(at, std::string::npos);
  std::string swapped = valid;
  swapped.replace(8, 8, second.buffer());
  swapped.replace(at, 8, first.buffer());
  AsPathMonitor loaded(context_);
  EXPECT_FALSE(load_is_corrupt(loaded, valid));
  EXPECT_TRUE(load_is_corrupt(loaded, swapped));
}

// The touched list sets each entry's work-list flag on load, so it names an
// entry at most once: a repeat would close the entry twice in one window.
TEST_F(BgpMonitorFixture, EntryIndexRejectsAnEntryTouchedTwice) {
  BurstMonitor monitor(context_);
  monitor.watch(view_, index_, row_of(view_));
  ASSERT_GE(monitor.entry_count(), 1u);
  std::string bytes = state_of(monitor);
  // The snapshot ends with the touched list, empty between windows.
  ASSERT_EQ(bytes.substr(bytes.size() - 8), std::string(8, '\0'));
  bytes.resize(bytes.size() - 8);
  store::Encoder once, twice;
  for (store::Encoder* list : {&once, &twice}) {
    const std::uint64_t n = list == &once ? 1 : 2;
    list->u64(n);
    for (std::uint64_t i = 0; i < n; ++i) list->u64(1);
  }
  BurstMonitor loaded(context_);
  EXPECT_FALSE(load_is_corrupt(loaded, bytes + once.buffer()));
  EXPECT_EQ(state_of(loaded), bytes + once.buffer());
  BurstMonitor again(context_);
  EXPECT_TRUE(load_is_corrupt(again, bytes + twice.buffer()));
}

// An entry's VP-to-extras map lists each VP once, ascending: a repeated VP
// used to load, its index lists appended into one.
TEST_F(BgpMonitorFixture, BurstRejectsARepeatedExtraVp) {
  // VPs 0 and 1 share the suffix {30, 40} through AS 55, which VP 2
  // traverses without the suffix: 55 is an extra AS of that suffix, and
  // VPs 0 and 1 each map to it.
  install(0, {Asn(900), Asn(55), Asn(30), Asn(40)}, {});
  install(1, {Asn(901), Asn(55), Asn(30), Asn(40)}, {});
  install(2, {Asn(902), Asn(55), Asn(66), Asn(40)}, {});
  BurstMonitor monitor(context_);
  monitor.watch(view_, index_, row_of(view_));
  store::Encoder enc;
  monitor.save_state(enc);
  const std::string valid = enc.take();
  // Two VPs, 0 and 1, each naming extra 0.
  store::Encoder map;
  map.u64(2);
  for (std::uint32_t vp : {0u, 1u}) {
    map.u32(vp);
    map.u64(1);
    map.u64(0);
  }
  const std::size_t at = valid.find(map.buffer());
  ASSERT_NE(at, std::string::npos);
  std::string repeated = valid;
  repeated.replace(at + 8 + 20, 4, valid.substr(at + 8, 4));
  BurstMonitor loaded(context_);
  EXPECT_FALSE(load_is_corrupt(loaded, valid));
  EXPECT_TRUE(load_is_corrupt(loaded, repeated));
}

// An index list naming a potential the snapshot holds no entry for is a
// classified kCorrupt, like every other impossible field.
TYPED_TEST(BgpMonitorTest, IndexNamingAnUnknownPotentialIsCorrupt) {
  using Rig = BgpRig<TypeParam>;
  Rig rig(this->context_);
  rig.watch(this->view_, this->row_of(this->view_));
  std::string bytes = state_of(rig.monitor);
  // The snapshot ends with an id list that is empty between windows; make
  // it name one potential no entry has.
  ASSERT_GE(bytes.size(), 8u);
  ASSERT_EQ(bytes.substr(bytes.size() - 8), std::string(8, '\0'));
  bytes.resize(bytes.size() - 8);
  store::Encoder tail;
  tail.u64(1);
  tail.u64(987654321);
  bytes += tail.take();
  Rig fresh(this->context_);
  store::Decoder dec(bytes);
  try {
    fresh.monitor.load_state(dec);
    ADD_FAILURE() << "expected StoreError";
  } catch (const store::StoreError& error) {
    EXPECT_EQ(error.kind(), store::StoreError::Kind::kCorrupt);
  } catch (const std::exception& error) {
    ADD_FAILURE() << "threw " << error.what() << ", not StoreError";
  }
}

}  // namespace
}  // namespace rrr::signals
