// Unit tests for the signals layer: potential index, calibration tallies,
// Table 1 bootstrap ordering, the refresh scheduler, community reputation,
// the IXP monitor's decision rules, and the engine's per-close backlog cut.
#include <gtest/gtest.h>

#include <algorithm>

#include "signals/asreldb.h"
#include "signals/calibration.h"
#include "signals/community_monitor.h"
#include "signals/engine.h"
#include "signals/ixp_monitor.h"
#include "signals/monitor.h"

namespace rrr::signals {
namespace {

tr::PairKey pair_of(tr::ProbeId probe, const char* dst) {
  return tr::PairKey{probe, *Ipv4::parse(dst)};
}

// Whether loading `bytes` into `target` throws StoreError kCorrupt.
template <class T>
bool load_is_corrupt(T& target, const std::string& bytes) {
  store::Decoder dec(bytes);
  try {
    target.load_state(dec);
  } catch (const store::StoreError& error) {
    return error.kind() == store::StoreError::Kind::kCorrupt;
  }
  return false;
}

// Overwrites bytes.substr(at, 4) with bytes.substr(from, 4).
void copy_word(std::string& bytes, std::size_t from, std::size_t at) {
  bytes.replace(at, 4, bytes.substr(from, 4));
}

TEST(PotentialIndex, RelatesAndUnrelates) {
  PotentialIndex index;
  PotentialId a = index.create(Technique::kBgpAsPath);
  PotentialId b = index.create(Technique::kTraceSubpath);
  EXPECT_NE(a, b);

  tr::PairKey key = pair_of(1, "10.0.0.1");
  index.relate(a, key, 0);
  index.relate(b, key, 2);
  index.relate(a, key, 0);  // duplicate: ignored
  EXPECT_EQ(index.relations_of(key).size(), 2u);
  index.unrelate_pair(key);
  EXPECT_TRUE(index.relations_of(key).empty());
}

TEST(Calibration, TprAndTnrFromTallies) {
  Calibration calibration;
  tr::ProbeId vp = 4;
  PotentialId signal = 11;
  // 3 TP, 1 FN -> TPR 0.75; 2 TN, 2 FP -> TNR 0.5.
  calibration.record(vp, signal, 0, Outcome::kTruePositive);
  calibration.record(vp, signal, 5, Outcome::kTruePositive);
  calibration.record(vp, signal, 10, Outcome::kTruePositive);
  calibration.record(vp, signal, 15, Outcome::kFalseNegative);
  calibration.record(vp, signal, 20, Outcome::kTrueNegative);
  calibration.record(vp, signal, 25, Outcome::kTrueNegative);
  calibration.record(vp, signal, 30, Outcome::kFalsePositive);
  calibration.record(vp, signal, 35, Outcome::kFalsePositive);
  ASSERT_TRUE(calibration.tpr(vp, signal).has_value());
  // The sliding window dropped the oldest events (window span 30): events
  // at windows <= 5 are gone by window 35.
  EXPECT_TRUE(calibration.tnr(vp, signal).has_value());
  EXPECT_NEAR(*calibration.tnr(vp, signal), 0.5, 1e-9);
}

TEST(Calibration, UninitializedUntilHistoryAccumulates) {
  Calibration calibration;
  calibration.record(1, 2, 0, Outcome::kTruePositive);
  EXPECT_FALSE(calibration.tpr(1, 2).has_value());
  EXPECT_FALSE(calibration.tpr(9, 9).has_value());  // never recorded
}

// One tally of a calibration section: a key, one event, window bounds.
void put_tally(store::Encoder& enc, tr::ProbeId vp, PotentialId potential,
               std::uint8_t outcome) {
  enc.u32(vp);
  enc.u64(potential);
  enc.u64(1);
  enc.i64(4);
  enc.u8(outcome);
  enc.i64(4);
  enc.i64(4);
}

TEST(Calibration, LoadRejectsWhatSaveNeverWrites) {
  Calibration calibration;
  calibration.record(2, 3, 0, Outcome::kTruePositive);
  calibration.record(2, 3, 4, Outcome::kFalseNegative);
  calibration.record(7, 1, 4, Outcome::kTrueNegative);
  store::Encoder enc;
  calibration.save_state(enc);
  const std::string bytes = enc.take();

  // Key (5, 9) twice, the second with outcome byte 7: 98 bytes that used
  // to load, merged into one tally.
  store::Encoder merged;
  merged.u64(2);
  put_tally(merged, 5, 9, 0);
  put_tally(merged, 5, 9, 7);
  ASSERT_EQ(merged.buffer().size(), 98u);
  store::Encoder repeated;
  repeated.u64(2);
  put_tally(repeated, 5, 9, 0);
  put_tally(repeated, 5, 9, 1);
  store::Encoder descending;
  descending.u64(2);
  put_tally(descending, 5, 9, 0);
  put_tally(descending, 4, 9, 0);
  store::Encoder outcome;
  outcome.u64(1);
  put_tally(outcome, 5, 9, 4);
  store::Encoder oversized;  // more tallies than the payload can hold
  oversized.u64(2);
  put_tally(oversized, 5, 9, 0);
  for (const std::string& damaged :
       {merged.take(), repeated.take(), descending.take(), outcome.take(),
        oversized.take()}) {
    store::Decoder dec(damaged);
    try {
      calibration.load_state(dec);
      ADD_FAILURE() << "a " << damaged.size() << "-byte section loaded";
    } catch (const store::StoreError& error) {
      EXPECT_EQ(error.kind(), store::StoreError::Kind::kCorrupt);
    }
    store::Encoder again;
    calibration.save_state(again);
    ASSERT_EQ(again.buffer(), bytes) << "a failed load changed the tallies";
  }

  // Ascending keys with outcomes 0-3 load and re-save verbatim.
  store::Encoder valid;
  valid.u64(4);
  for (std::uint8_t b = 0; b < 4; ++b) put_tally(valid, 5, 9 + b, b);
  const std::string section = valid.take();
  store::Decoder dec(section);
  calibration.load_state(dec);
  dec.expect_done();
  store::Encoder again;
  calibration.save_state(again);
  EXPECT_EQ(again.buffer(), section);
}

ActiveSignal make_signal(Technique technique, SignalMeta meta,
                         tr::PairKey pair) {
  ActiveSignal s;
  s.technique = technique;
  s.meta = meta;
  s.pair = pair;
  return s;
}

TEST(Table1Ordering, IpOverlapDominates) {
  SignalMeta strong;
  strong.ip_overlap = 6;
  SignalMeta weak;
  weak.ip_overlap = 2;
  weak.as_overlap = 99;  // lower-priority attribute cannot compensate
  auto a = make_signal(Technique::kTraceSubpath, strong, pair_of(1, "1.1.1.1"));
  auto b = make_signal(Technique::kTraceSubpath, weak, pair_of(2, "1.1.1.1"));
  EXPECT_TRUE(bootstrap_priority_less(a, b));
  EXPECT_FALSE(bootstrap_priority_less(b, a));
}

TEST(Table1Ordering, TieBreaksWithinCategory) {
  SignalMeta base;
  base.ip_overlap = 4;
  SignalMeta more_vps = base;
  more_vps.vp_count = 9;
  SignalMeta fewer_vps = base;
  fewer_vps.vp_count = 2;
  auto a = make_signal(Technique::kBgpAsPath, more_vps, pair_of(1, "1.1.1.1"));
  auto b = make_signal(Technique::kBgpAsPath, fewer_vps, pair_of(2, "1.1.1.1"));
  EXPECT_TRUE(bootstrap_priority_less(a, b));

  SignalMeta sharp = base;
  sharp.deviation = 8.0;
  SignalMeta dull = base;
  dull.deviation = 1.0;
  auto c = make_signal(Technique::kTraceSubpath, sharp, pair_of(3, "1.1.1.1"));
  auto d = make_signal(Technique::kTraceSubpath, dull, pair_of(4, "1.1.1.1"));
  EXPECT_TRUE(bootstrap_priority_less(c, d));
}

TEST(Table1Ordering, AsLevelOutranksBorderLevel) {
  SignalMeta as_level;
  as_level.as_level = true;
  SignalMeta border;
  border.as_level = false;
  auto a = make_signal(Technique::kBgpAsPath, as_level, pair_of(1, "1.1.1.1"));
  auto b = make_signal(Technique::kBgpCommunity, border, pair_of(2, "1.1.1.1"));
  EXPECT_TRUE(bootstrap_priority_less(a, b));
}

TEST(Scheduler, BootstrapSpendsWholeBudgetByPriority) {
  Calibration calibration;  // empty: everything bootstraps
  std::map<tr::PairKey, RefreshScheduler::PairState> pairs;
  for (int i = 0; i < 10; ++i) {
    SignalMeta meta;
    meta.ip_overlap = i;  // pair 9 has the best signal
    tr::PairKey key = pair_of(static_cast<tr::ProbeId>(i), "10.0.0.1");
    RefreshScheduler::PairState state;
    state.firing.push_back(make_signal(Technique::kTraceSubpath, meta, key));
    pairs.emplace(key, std::move(state));
  }
  Rng rng(1);
  auto chosen = RefreshScheduler::plan(pairs, calibration, 3, rng);
  ASSERT_EQ(chosen.size(), 3u);
  EXPECT_EQ(chosen[0].probe, 9u);
  EXPECT_EQ(chosen[1].probe, 8u);
  EXPECT_EQ(chosen[2].probe, 7u);
}

TEST(Scheduler, CalibratedVpWithHighTprGoesFirst) {
  Calibration calibration;
  tr::PairKey good = pair_of(1, "10.0.0.1");
  tr::PairKey bad = pair_of(2, "10.0.0.1");
  // VP 1's signal has a strong track record; VP 2's does not.
  for (int w = 0; w < 40; w += 2) {
    calibration.record(1, 100, w, Outcome::kTruePositive);
    calibration.record(2, 200, w,
                       w % 4 ? Outcome::kFalseNegative
                             : Outcome::kTruePositive);
  }
  std::map<tr::PairKey, RefreshScheduler::PairState> pairs;
  {
    RefreshScheduler::PairState state;
    ActiveSignal s = make_signal(Technique::kBgpAsPath, {}, good);
    s.potential = 100;
    state.firing.push_back(s);
    pairs.emplace(good, std::move(state));
  }
  {
    RefreshScheduler::PairState state;
    ActiveSignal s = make_signal(Technique::kBgpAsPath, {}, bad);
    s.potential = 200;
    state.firing.push_back(s);
    pairs.emplace(bad, std::move(state));
  }
  Rng rng(2);
  auto chosen = RefreshScheduler::plan(pairs, calibration, 1, rng);
  ASSERT_EQ(chosen.size(), 1u);
  EXPECT_EQ(chosen[0].probe, 1u);
}

TEST(Scheduler, RespectsBudgetAndAvoidsDuplicates) {
  Calibration calibration;
  std::map<tr::PairKey, RefreshScheduler::PairState> pairs;
  tr::PairKey key = pair_of(5, "10.0.0.1");
  RefreshScheduler::PairState state;
  // Two signals for the same pair must yield at most one refresh.
  state.firing.push_back(make_signal(Technique::kBgpAsPath, {}, key));
  state.firing.push_back(make_signal(Technique::kTraceSubpath, {}, key));
  pairs.emplace(key, std::move(state));
  Rng rng(3);
  auto chosen = RefreshScheduler::plan(pairs, calibration, 10, rng);
  EXPECT_EQ(chosen.size(), 1u);
  auto none = RefreshScheduler::plan(pairs, calibration, 0, rng);
  EXPECT_TRUE(none.empty());
}

TEST(CommunityReputation, GlobalPruneNeedsFpsAndLowPrecision) {
  CommunityReputation reputation;
  Community noisy(Asn(100), 7001);
  tr::PairKey key = pair_of(1, "10.0.0.1");
  reputation.record_outcome(noisy, key, false);
  reputation.record_outcome(noisy, key, false);
  EXPECT_FALSE(reputation.pruned(noisy));  // below threshold
  reputation.record_outcome(noisy, pair_of(2, "10.0.0.1"), false);
  EXPECT_TRUE(reputation.pruned(noisy));

  Community useful(Asn(100), 51002);
  for (int i = 0; i < 4; ++i) {
    reputation.record_outcome(useful, key, true);
    reputation.record_outcome(useful, key, false);
  }
  EXPECT_FALSE(reputation.pruned(useful));  // precision 0.5 > floor
}

TEST(CommunityReputation, PairLevelPruneIsLocal) {
  CommunityReputation reputation;
  Community c(Asn(100), 51002);
  tr::PairKey unlucky = pair_of(1, "10.0.0.1");
  tr::PairKey lucky = pair_of(2, "10.0.0.1");
  for (int i = 0; i < 4; ++i) reputation.record_outcome(c, unlucky, false);
  // Enough successes elsewhere to keep the community alive globally.
  for (int i = 0; i < 4; ++i) reputation.record_outcome(c, lucky, true);
  EXPECT_TRUE(reputation.pruned_for(c, unlucky));
  EXPECT_FALSE(reputation.pruned_for(c, lucky));
  EXPECT_FALSE(reputation.pruned(c));
}

// Each tally map lists its keys once, ascending: a repeated key used to
// load, merged into one tally.
TEST(CommunityReputation, LoadRejectsARepeatedKey) {
  CommunityReputation reputation;
  const Community low(Asn(20), 100);
  const Community high(Asn(20), 200);
  reputation.record_outcome(low, pair_of(1, "10.0.0.1"), true);
  reputation.record_outcome(high, pair_of(1, "10.0.0.1"), false);
  store::Encoder enc;
  reputation.save_state(enc);
  const std::string valid = enc.take();
  CommunityReputation loaded;
  ASSERT_FALSE(load_is_corrupt(loaded, valid));
  // The global map opens the section: a count, then per community its
  // four bytes and two i64 tallies.
  ASSERT_EQ(store::Decoder(valid).u64(), 2u);
  std::string repeated = valid;
  copy_word(repeated, 8, 8 + 4 + 16);
  EXPECT_TRUE(load_is_corrupt(loaded, repeated));
}

TEST(AsRelDb, InvertsRelationships) {
  AsRelDb db;
  db.add(Asn(1), Asn(2), AsRel::kCustomer, false);
  EXPECT_EQ(db.relation(Asn(1), Asn(2)).rel, AsRel::kCustomer);
  EXPECT_EQ(db.relation(Asn(2), Asn(1)).rel, AsRel::kProvider);
  EXPECT_EQ(db.relation(Asn(1), Asn(9)).rel, AsRel::kUnknown);
  db.add(Asn(3), Asn(4), AsRel::kPeer, true);
  EXPECT_TRUE(db.relation(Asn(4), Asn(3)).via_ixp);
}

// IXP monitor decision rules (§4.2.3), driven with hand-built traces.
class IxpMonitorTest : public ::testing::Test {
 protected:
  IxpMonitorTest() {
    rels_.add(Asn(10), Asn(20), AsRel::kCustomer, false);  // 20 = provider
    rels_.add(Asn(11), Asn(21), AsRel::kPeer, true);       // public peer
    rels_.add(Asn(12), Asn(22), AsRel::kPeer, false);      // private peer
    members_[0] = {Asn(30)};  // established IXP 0 member
  }

  // A corpus view whose AS path is `path`.
  CorpusView corpus_view(tr::ProbeId probe, AsPath path) {
    CorpusView view;
    view.key = tr::PairKey{probe, Ipv4(0x0A000001u + probe)};
    view.processed.as_path = std::move(path);
    return view;
  }

  // A public trace showing `member` as near-end neighbor of IXP 0.
  tracemap::ProcessedTrace ixp_sighting(Asn member) {
    tracemap::ProcessedTrace trace;
    tracemap::ProcessedHop near;
    near.ip = Ipv4(1);
    near.asn = member;
    tracemap::ProcessedHop lan;
    lan.ip = Ipv4(2);
    lan.is_ixp = true;
    lan.ixp = 0;
    trace.hops = {near, lan};
    return trace;
  }

  AsRelDb rels_;
  std::map<topo::IxpId, std::set<Asn>> members_;
};

// A member set lists its ASes once, ascending: two swapped members used to
// load, sorted back into the set.
TEST_F(IxpMonitorTest, LoadRejectsMembersOutOfOrder) {
  members_[0] = {Asn(30), Asn(31)};
  IxpMonitor monitor(rels_, members_);
  store::Encoder enc;
  monitor.save_state(enc);
  const std::string valid = enc.take();
  IxpMonitor loaded(rels_, {});
  ASSERT_FALSE(load_is_corrupt(loaded, valid));
  // One IXP: the map count, its id, the member count, then the members.
  const std::size_t first = 8 + 2 + 8;
  ASSERT_EQ(store::Decoder(valid.substr(first)).u32(), 30u);
  std::string swapped = valid;
  swapped.replace(first, 8,
                  valid.substr(first + 4, 4) + valid.substr(first, 4));
  EXPECT_TRUE(load_is_corrupt(loaded, swapped));
}

// The snapshot holds the watched pairs but not the per-AS index a join
// walks: the load rebuilds it, so a loaded monitor signals the same join.
TEST_F(IxpMonitorTest, LoadRebuildsTheAsIndex) {
  IxpMonitor monitor(rels_, members_);
  PotentialIndex index;
  monitor.watch(corpus_view(1, {Asn(10), Asn(20), Asn(30)}), index);
  store::Encoder enc;
  monitor.save_state(enc);
  IxpMonitor loaded(rels_, {});
  store::Decoder dec(enc.buffer());
  loaded.load_state(dec);
  loaded.on_public_trace(ixp_sighting(Asn(10)), 5, index);
  auto signals = loaded.close_window(5, TimePoint(5 * 900));
  ASSERT_EQ(signals.size(), 1u);
  EXPECT_EQ(signals[0].pair.probe, 1u);
}

TEST_F(IxpMonitorTest, ProviderNextHopTriggersSignal) {
  IxpMonitor monitor(rels_, members_);
  PotentialIndex index;
  // Corpus path: 10 -> 20 (provider) -> 30 (established member).
  monitor.watch(corpus_view(1, {Asn(10), Asn(20), Asn(30)}), index);
  monitor.on_public_trace(ixp_sighting(Asn(10)), 5, index);
  auto signals = monitor.close_window(5, TimePoint(5 * 900));
  ASSERT_EQ(signals.size(), 1u);
  EXPECT_EQ(signals[0].technique, Technique::kColocation);
  EXPECT_EQ(signals[0].pair.probe, 1u);
}

TEST_F(IxpMonitorTest, PublicPeerNextHopTriggersSignal) {
  IxpMonitor monitor(rels_, members_);
  PotentialIndex index;
  // Corpus path: 11 -> 21 (public peer over an IXP) -> 30 (member).
  monitor.watch(corpus_view(5, {Asn(11), Asn(21), Asn(30)}), index);
  monitor.on_public_trace(ixp_sighting(Asn(11)), 5, index);
  auto signals = monitor.close_window(5, TimePoint(5 * 900));
  ASSERT_EQ(signals.size(), 1u);
  EXPECT_EQ(signals[0].technique, Technique::kColocation);
  EXPECT_EQ(signals[0].pair.probe, 5u);
}

TEST_F(IxpMonitorTest, PrivatePeerNeverSignals) {
  IxpMonitor monitor(rels_, members_);
  PotentialIndex index;
  // Corpus path: 12 -> 22 (private peer) -> 30 (member). The join is
  // learned, but a private peer keeps its higher local preference.
  monitor.watch(corpus_view(2, {Asn(12), Asn(22), Asn(30)}), index);
  monitor.on_public_trace(ixp_sighting(Asn(12)), 5, index);
  EXPECT_EQ(monitor.detected_joins(), 1u);
  EXPECT_TRUE(monitor.close_window(5, TimePoint(5 * 900)).empty());
}

TEST_F(IxpMonitorTest, NoSignalWithoutDownstreamMember) {
  IxpMonitor monitor(rels_, members_);
  PotentialIndex index;
  // No established member after the joiner on the path.
  monitor.watch(corpus_view(3, {Asn(10), Asn(20), Asn(40)}), index);
  monitor.on_public_trace(ixp_sighting(Asn(10)), 5, index);
  EXPECT_TRUE(monitor.close_window(5, TimePoint(5 * 900)).empty());
}

TEST_F(IxpMonitorTest, ExistingMembersDoNotRetrigger) {
  IxpMonitor monitor(rels_, members_);
  PotentialIndex index;
  monitor.watch(corpus_view(4, {Asn(10), Asn(20), Asn(30)}), index);
  // AS 30 is already a member: its sightings are not joins.
  monitor.on_public_trace(ixp_sighting(Asn(30)), 5, index);
  EXPECT_TRUE(monitor.close_window(5, TimePoint(5 * 900)).empty());
  EXPECT_EQ(monitor.detected_joins(), 0u);
}

bgp::BgpRecord timed_record(std::int64_t t, Asn origin) {
  bgp::BgpRecord record;
  record.time = TimePoint(t);
  record.type = bgp::RecordType::kAnnouncement;
  record.vp = 1;
  record.prefix = *Prefix::parse("10.0.0.0/16");
  record.as_path = {Asn(1), origin};
  return record;
}

std::vector<Asn> origins(const std::vector<bgp::BgpRecord>& records,
                         std::size_t count) {
  std::vector<Asn> out;
  for (std::size_t i = 0; i < count; ++i) out.push_back(records[i].as_path[1]);
  return out;
}

// Regression for the per-close backlog sort: out-of-order input spanning
// several future windows must yield, window by window, exactly the prefix
// order the old whole-buffer stable sort produced — in-window records by
// (time, arrival order) — while later-window records stay buffered in
// arrival order until their own close.
TEST(CutWindowPrefix, OutOfOrderMultiWindowInput) {
  WindowClock clock(TimePoint(0), 100);
  // Arrival order deliberately scrambled across three windows, with
  // equal-time records (t=40) to pin the stable tie-break.
  std::vector<bgp::BgpRecord> pending = {
      timed_record(250, Asn(900)),  // window 2
      timed_record(40, Asn(901)),   // window 0, tie A (arrives first)
      timed_record(130, Asn(902)),  // window 1
      timed_record(40, Asn(903)),   // window 0, tie B
      timed_record(10, Asn(904)),   // window 0
      timed_record(260, Asn(905)),  // window 2
      timed_record(110, Asn(906)),  // window 1
  };

  // Reference: what the old implementation dispatched for each close.
  auto reference = pending;
  std::stable_sort(reference.begin(), reference.end(),
                   [](const bgp::BgpRecord& a, const bgp::BgpRecord& b) {
                     return a.time < b.time;
                   });

  std::size_t cut0 = cut_window_prefix(pending, clock, 0);
  ASSERT_EQ(cut0, 3u);
  EXPECT_EQ(origins(pending, cut0), origins(reference, 3));
  EXPECT_EQ(origins(pending, cut0),
            (std::vector<Asn>{Asn(904), Asn(901), Asn(903)}));
  pending.erase(pending.begin(),
                pending.begin() + static_cast<std::ptrdiff_t>(cut0));

  std::size_t cut1 = cut_window_prefix(pending, clock, 1);
  ASSERT_EQ(cut1, 2u);
  EXPECT_EQ(origins(pending, cut1), (std::vector<Asn>{Asn(906), Asn(902)}));
  pending.erase(pending.begin(),
                pending.begin() + static_cast<std::ptrdiff_t>(cut1));

  std::size_t cut2 = cut_window_prefix(pending, clock, 2);
  ASSERT_EQ(cut2, 2u);
  EXPECT_EQ(origins(pending, cut2), (std::vector<Asn>{Asn(900), Asn(905)}));
}

// An empty close (no in-window records) must not disturb the backlog.
TEST(CutWindowPrefix, EmptyWindowLeavesBacklogUntouched) {
  WindowClock clock(TimePoint(0), 100);
  std::vector<bgp::BgpRecord> pending = {
      timed_record(250, Asn(900)),
      timed_record(130, Asn(901)),
  };
  EXPECT_EQ(cut_window_prefix(pending, clock, 0), 0u);
  EXPECT_EQ(origins(pending, pending.size()),
            (std::vector<Asn>{Asn(900), Asn(901)}));
}

// The dispatch normalizes a record the way the table stores it. An
// announcement that repeats the standing route through a route server is a
// duplicate, not a path change for the community monitor.
TEST(DispatchAgainstTable, RouteServerHopRepeatsStandingRoute) {
  bgp::VpTableView table(std::set<Asn>{Asn(59001)});
  bgp::BgpRecord standing = timed_record(0, Asn(200));
  standing.as_path = {Asn(100), Asn(200)};
  standing.communities = CommunitySet{Community(Asn(100), 7)};
  ASSERT_TRUE(table.apply(standing));

  bgp::BgpRecord repeat = standing;
  repeat.time = TimePoint(10);
  repeat.as_path = {Asn(100), Asn(59001), Asn(200)};
  std::vector<bgp::BgpRecord> records = {repeat};
  std::vector<DispatchedRecord> out;
  dispatch_against_table(records, records.size(), table, out);

  ASSERT_EQ(out.size(), 1u);
  const bgp::VpRoute* route = table.route(1, standing.prefix.network());
  ASSERT_NE(route, nullptr);
  EXPECT_TRUE(out[0].path == route->path);
  EXPECT_TRUE(out[0].duplicate);
}

}  // namespace
}  // namespace rrr::signals
