// Behaviour of the two traceroute-series monitors, subpath (§4.2.1) and
// border (§4.2.2), driven with hand-built processed traces. Both judge a
// per-series match ratio over public traceroutes in adaptive windows with
// the modified z-score, so every case runs against each monitor.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "detect/series.h"
#include "netbase/rng.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "signals/border_monitor.h"
#include "signals/feed_health.h"
#include "signals/serial.h"
#include "signals/subpath_monitor.h"

namespace rrr::signals {
namespace {

constexpr std::int64_t kWindow = kBaseWindowSeconds;

struct Hop {
  std::uint32_t ip;
  std::uint32_t asn;
  topo::CityId city;
};

// Each hop is its own router (an unresolved alias set keyed by its IP), and
// every AS change is a border whose ingress router is the far hop.
tracemap::ProcessedTrace make_trace(const std::vector<Hop>& hops) {
  tracemap::ProcessedTrace pt;
  for (const Hop& hop : hops) {
    tracemap::ProcessedHop processed;
    processed.ip = Ipv4(hop.ip);
    processed.asn = Asn(hop.asn);
    processed.router = tracemap::RouterKey{hop.ip};
    processed.city = hop.city;
    pt.hops.push_back(processed);
  }
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    if (hops[i].asn == hops[i + 1].asn) continue;
    tracemap::BorderView border;
    border.near_index = i;
    border.far_index = i + 1;
    border.near_as = Asn(hops[i].asn);
    border.far_as = Asn(hops[i + 1].asn);
    border.near_ip = Ipv4(hops[i].ip);
    border.far_ip = Ipv4(hops[i + 1].ip);
    border.border_router = pt.hops[i + 1].router;
    border.near_city = hops[i].city;
    border.far_city = hops[i + 1].city;
    pt.borders.push_back(border);
  }
  return pt;
}

// Route r crosses one border from AS 1000+2r in city 2r+1 into AS 1001+2r
// in city 2r+2. Its usual path enters through router 10.r.1.1; the moved
// path enters through 10.r.2.1 and rejoins at 10.r.1.2. A moved public
// trace still spans the watched subpath (it intersects) without following
// it, and still joins the same city pair through a different router, so it
// lowers the match ratio of both monitors' series.
tracemap::ProcessedTrace route_trace(std::uint32_t r, bool moved) {
  const std::uint32_t base = (10u << 24) | (r << 16);
  const std::uint32_t as_m = 1000 + 2 * r;
  const auto c_m = static_cast<topo::CityId>(2 * r + 1);
  const auto c_n = static_cast<topo::CityId>(2 * r + 2);
  return make_trace({{base | 0x0001, as_m, c_m},
                     {base | 0x0002, as_m, c_m},
                     {base | (moved ? 0x0201u : 0x0101u), as_m + 1, c_n},
                     {base | 0x0102, as_m + 1, c_n}});
}

tr::PairKey pair_of(std::uint32_t probe) {
  return tr::PairKey{probe, Ipv4((192u << 24) | probe)};
}

std::string bytes_of(const std::vector<StalenessSignal>& signals) {
  store::Encoder enc;
  for (const StalenessSignal& signal : signals) put_signal(enc, signal);
  return enc.take();
}

template <typename M>
std::string state_of(const M& monitor) {
  store::Encoder enc;
  monitor.save_state(enc);
  return enc.take();
}

template <typename M>
struct Rig {
  M monitor;
  PotentialIndex index;

  PotentialId watch(std::uint32_t probe, std::uint32_t route) {
    CorpusView view;
    view.key = pair_of(probe);
    view.processed = route_trace(route, false);
    monitor.watch(view, index);
    const auto& relations = index.relations_of(view.key);
    return relations.empty() ? kNoPotential : relations.back().id;
  }
  // Feeds `usual` unchanged and `moved` changed public traces of `route`.
  void observe(std::int64_t window, std::uint32_t route, int usual,
               int moved) {
    for (int i = 0; i < usual; ++i) {
      monitor.on_public_trace(route_trace(route, false), window);
    }
    for (int i = 0; i < moved; ++i) {
      monitor.on_public_trace(route_trace(route, true), window);
    }
  }
  std::vector<StalenessSignal> close(std::int64_t window) {
    return monitor.close_window(window, TimePoint((window + 1) * kWindow));
  }
  // One window of route 0 carrying `usual` and `moved` traces.
  std::vector<StalenessSignal> step(std::int64_t window, int usual,
                                    int moved) {
    observe(window, 0, usual, moved);
    return close(window);
  }
  // Windows [0, 20) at a steady ratio, which arms route 0's series.
  void arm(int usual, int moved) {
    for (std::int64_t w = 0; w < 20; ++w) {
      EXPECT_TRUE(step(w, usual, moved).empty()) << "window " << w;
    }
  }
};

template <typename M>
class TraceMonitorTest : public ::testing::Test {
 protected:
  static constexpr bool kSubpath = std::is_same_v<M, SubpathMonitor>;
  static constexpr Technique kTechnique =
      kSubpath ? Technique::kTraceSubpath : Technique::kTraceBorder;
};

struct MonitorNames {
  template <typename M>
  static std::string GetName(int) {
    return std::is_same_v<M, SubpathMonitor> ? "Subpath" : "Border";
  }
};

using Monitors = ::testing::Types<SubpathMonitor, BorderMonitor>;
TYPED_TEST_SUITE(TraceMonitorTest, Monitors, MonitorNames);

TYPED_TEST(TraceMonitorTest, ArmsAfterTwentyPopulatedWindows) {
  Rig<TypeParam> rig;
  PotentialId id = rig.watch(1, 0);
  ASSERT_NE(id, kNoPotential);
  // The first armed window sets the baseline, which is what makes a
  // steady series read as reverted.
  for (std::int64_t w = 0; w < 19; ++w) {
    EXPECT_TRUE(rig.step(w, 5, 0).empty());
    EXPECT_FALSE(rig.monitor.reverted(id)) << "window " << w;
  }
  EXPECT_TRUE(rig.step(19, 5, 0).empty());
  EXPECT_TRUE(rig.monitor.reverted(id));
  EXPECT_FALSE(rig.monitor.reverted(id + 1));
}

TYPED_TEST(TraceMonitorTest, ThickDropFiresOnItsOwn) {
  Rig<TypeParam> rig;
  PotentialId id = rig.watch(1, 0);
  rig.arm(5, 0);
  std::vector<StalenessSignal> fired = rig.step(20, 0, 5);
  ASSERT_EQ(fired.size(), 1u);
  const StalenessSignal& signal = fired.front();
  EXPECT_EQ(signal.technique, TestFixture::kTechnique);
  EXPECT_EQ(signal.potential, id);
  EXPECT_EQ(signal.pair, pair_of(1));
  EXPECT_EQ(signal.border_index, 0u);
  EXPECT_EQ(signal.window, 20);
  EXPECT_EQ(signal.time, TimePoint(21 * kWindow));
  EXPECT_EQ(signal.span_seconds, kWindow);
  // A constant history has no spread, so any deviation scores 2x the 3.5
  // threshold.
  EXPECT_DOUBLE_EQ(signal.meta.deviation, 7.0);
  EXPECT_EQ(signal.meta.ip_overlap, TestFixture::kSubpath ? 4 : 0);
  EXPECT_TRUE(rig.step(21, 5, 0).empty());
}

TYPED_TEST(TraceMonitorTest, ThinDropNeedsASecondDrop) {
  Rig<TypeParam> rig;
  rig.watch(1, 0);
  rig.arm(5, 0);
  // Three traces: thick enough to judge, too thin to fire alone.
  EXPECT_TRUE(rig.step(20, 0, 3).empty());
  std::vector<StalenessSignal> fired = rig.step(21, 0, 3);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired.front().window, 21);
  // A steady window in between clears the pending drop.
  EXPECT_TRUE(rig.step(22, 5, 0).empty());
  EXPECT_TRUE(rig.step(23, 0, 3).empty());
  EXPECT_TRUE(rig.step(24, 5, 0).empty());
  EXPECT_TRUE(rig.step(25, 0, 3).empty());
  EXPECT_TRUE(rig.step(26, 5, 0).empty());
  // One trace is below the two-trace floor: never a drop, so two in a row
  // stay silent.
  EXPECT_TRUE(rig.step(27, 0, 1).empty());
  EXPECT_TRUE(rig.step(28, 0, 1).empty());
  EXPECT_EQ(rig.step(29, 0, 5).size(), 1u);
}

TYPED_TEST(TraceMonitorTest, UpwardOutlierNeverFires) {
  Rig<TypeParam> rig;
  rig.watch(1, 0);
  rig.arm(3, 3);  // ratio 0.5
  for (std::int64_t w = 20; w < 24; ++w) {
    EXPECT_TRUE(rig.step(w, 6, 0).empty()) << "window " << w;
  }
  EXPECT_EQ(rig.step(24, 0, 6).size(), 1u);
}

TYPED_TEST(TraceMonitorTest, ZombieSubscriptionSignalsUntilTheDailySweep) {
  Rig<TypeParam> rig;
  PotentialId id = rig.watch(1, 0);
  ASSERT_EQ(rig.watch(2, 0), id);  // one series, two subscribers
  rig.arm(5, 0);
  rig.monitor.unwatch(pair_of(1));  // the pair was refreshed
  for (std::int64_t w = 20; w < 100; ++w) {
    std::vector<StalenessSignal> fired =
        w == 30 || w == 94 || w == 96 ? rig.step(w, 0, 5) : rig.step(w, 5, 0);
    if (w == 30 || w == 94) {
      ASSERT_EQ(fired.size(), 2u) << "window " << w;
      EXPECT_EQ(fired[0].pair, pair_of(1));
      EXPECT_EQ(fired[1].pair, pair_of(2));
    } else if (w == 96) {
      // Window 95 closed the day and flushed the zombie.
      ASSERT_EQ(fired.size(), 1u);
      EXPECT_EQ(fired[0].pair, pair_of(2));
    } else {
      EXPECT_TRUE(fired.empty()) << "window " << w;
    }
  }
}

TYPED_TEST(TraceMonitorTest, RevertedWhenRatioIsBackWithinATenth) {
  Rig<TypeParam> rig;
  PotentialId id = rig.watch(1, 0);
  rig.arm(10, 0);
  EXPECT_TRUE(rig.monitor.reverted(id));
  EXPECT_EQ(rig.step(20, 0, 10).size(), 1u);
  EXPECT_FALSE(rig.monitor.reverted(id));
  EXPECT_TRUE(rig.step(21, 16, 4).empty());  // 0.8: 0.2 off baseline
  EXPECT_FALSE(rig.monitor.reverted(id));
  EXPECT_TRUE(rig.step(22, 19, 1).empty());  // 0.95
  EXPECT_TRUE(rig.monitor.reverted(id));
}

TYPED_TEST(TraceMonitorTest, DegradedTraceFeedSuppressesAndCountsSignals) {
  FeedHealthParams params;
  params.enabled = true;
  params.baseline_alpha = 0.5;
  params.gap_fraction = 0.5;
  params.min_baseline = 0.5;
  params.judge_mass = 1.0;
  params.max_horizon_windows = 4;
  params.warmup_windows = 2;
  params.suspect_windows = 2;
  params.recover_windows = 2;
  FeedHealthTracker healthy(params);
  FeedHealthTracker degraded(params);
  // Probe 2 goes dark while probe 1 keeps delivering.
  for (std::int64_t w = 0; w < 8; ++w) {
    for (int i = 0; i < 4; ++i) {
      healthy.count_trace(1, w);
      healthy.count_trace(2, w);
      degraded.count_trace(1, w);
      if (w < 5) degraded.count_trace(2, w);
    }
    healthy.close_window(w);
    degraded.close_window(w);
  }
  ASSERT_FALSE(healthy.trace_degraded());
  ASSERT_TRUE(degraded.trace_degraded());

  for (const FeedHealthTracker* tracker : {&healthy, &degraded}) {
    Rig<TypeParam> rig;
    obs::Counter dropped;
    rig.monitor.set_feed_health(tracker, &dropped);
    rig.watch(1, 0);
    rig.watch(2, 0);
    rig.arm(5, 0);
    std::vector<StalenessSignal> fired = rig.step(20, 0, 5);
    if (tracker == &healthy) {
      EXPECT_EQ(fired.size(), 2u);
      EXPECT_EQ(dropped.value(), 0);
    } else {
      EXPECT_TRUE(fired.empty());
      EXPECT_EQ(dropped.value(), 2);  // one per subscriber
    }
  }
}

// A stream with every kind of state a snapshot must carry: two subscribers
// and a zombie, a thin drop pending across a window boundary, the daily
// sweep, and a sparse route whose windows escalate.
template <typename M>
std::vector<StalenessSignal> scripted_window(Rig<M>& rig, std::int64_t w) {
  if (w == 0) {
    rig.watch(1, 0);
    rig.watch(2, 0);
    rig.watch(3, 1);
  }
  if (w == 40) rig.monitor.unwatch(pair_of(1));
  bool thin = w == 24 || w == 25 || w == 70 || w == 103 || w == 104;
  bool thick = w == 50 || w == 97;
  rig.observe(w, 0, thin || thick ? 0 : 5, thin ? 3 : thick ? 5 : 0);
  if (w % 3 == 0) {
    bool sparse_moved = w >= 200;
    rig.observe(w, 1, sparse_moved ? 0 : 2, sparse_moved ? 2 : 0);
  }
  return rig.close(w);
}

TYPED_TEST(TraceMonitorTest, SnapshotMidStreamResumesIdentically) {
  constexpr std::int64_t kEnd = 300;
  for (std::int64_t cut : {24, 70, 95, 150, 201}) {
    SCOPED_TRACE("snapshot after window " + std::to_string(cut));
    Rig<TypeParam> live;
    for (std::int64_t w = 0; w <= cut; ++w) scripted_window(live, w);
    Rig<TypeParam> resumed;
    std::string saved = state_of(live.monitor);
    store::Decoder dec(saved);
    resumed.monitor.load_state(dec);
    EXPECT_TRUE(dec.done());
    EXPECT_EQ(state_of(resumed.monitor), saved);
    resumed.index = live.index;
    for (std::int64_t w = cut + 1; w < kEnd; ++w) {
      ASSERT_EQ(bytes_of(scripted_window(resumed, w)),
                bytes_of(scripted_window(live, w)))
          << "window " << w;
    }
    EXPECT_EQ(state_of(resumed.monitor), state_of(live.monitor));
  }
}

TYPED_TEST(TraceMonitorTest, ScriptedStreamFiresOnBothRoutes) {
  Rig<TypeParam> rig;
  std::vector<StalenessSignal> all;
  for (std::int64_t w = 0; w < 300; ++w) {
    for (StalenessSignal& signal : scripted_window(rig, w)) {
      all.push_back(signal);
    }
  }
  std::vector<std::int64_t> dense_windows;
  bool sparse_fired = false;
  for (const StalenessSignal& signal : all) {
    if (signal.pair == pair_of(3)) {
      // An escalated window signals at its aggregate end and spans it.
      sparse_fired = true;
      EXPECT_GT(signal.span_seconds, kWindow);
      EXPECT_EQ(signal.time, TimePoint((signal.window + 1) * kWindow));
      EXPECT_EQ((signal.window + 1) % (signal.span_seconds / kWindow), 0);
    } else if (signal.pair == pair_of(2)) {
      dense_windows.push_back(signal.window);
    }
  }
  EXPECT_TRUE(sparse_fired);
  EXPECT_EQ(dense_windows, (std::vector<std::int64_t>{25, 50, 97, 104}));
}

TYPED_TEST(TraceMonitorTest, PooledCloseEqualsSerialClose) {
  constexpr std::uint32_t kRoutes = 48;
  runtime::ThreadPool pool(4);
  Rig<TypeParam> serial;
  Rig<TypeParam> pooled;
  pooled.monitor.set_pool(&pool);
  for (Rig<TypeParam>* rig : {&serial, &pooled}) {
    for (std::uint32_t r = 0; r < kRoutes; ++r) {
      rig->watch(2 * r, r);
      rig->watch(2 * r + 1, r);
    }
  }
  std::size_t total = 0;
  for (std::int64_t w = 0; w < 120; ++w) {
    for (Rig<TypeParam>* rig : {&serial, &pooled}) {
      for (std::uint32_t r = 0; r < kRoutes; ++r) {
        std::int64_t phase = w - 20 - static_cast<std::int64_t>(r);
        bool thick = phase == 0 || phase == 40;
        bool thin = phase == 10 || phase == 11;
        rig->observe(w, r, thick || thin ? 0 : 5, thick ? 5 : thin ? 3 : 0);
      }
    }
    std::vector<StalenessSignal> want = serial.close(w);
    total += want.size();
    ASSERT_EQ(bytes_of(pooled.close(w)), bytes_of(want)) << "window " << w;
  }
  EXPECT_EQ(state_of(pooled.monitor), state_of(serial.monitor));
  EXPECT_GT(total, 2u * kRoutes);
}

// SubpathMonitor as it was before its flat indexes and hop-key scan:
// content keys and first IPs in std::unordered_maps, and the public trace
// scanned as ProcessedHops. The monitor must agree with it on every signal
// and every snapshot byte.
class ReferenceSubpathMonitor final : public TraceSeriesMonitor {
 public:
  ReferenceSubpathMonitor()
      : TraceSeriesMonitor(Technique::kTraceSubpath, true) {}

  void watch(const CorpusView& view, PotentialIndex& index) {
    const tracemap::ProcessedTrace& pt = view.processed;
    for (std::size_t b = 0; b < pt.borders.size(); ++b) {
      std::size_t begin =
          b > 0 ? pt.borders[b - 1].far_index
                : (pt.borders[b].near_index > 0 ? pt.borders[b].near_index - 1
                                                : pt.borders[b].near_index);
      std::size_t end = b + 1 < pt.borders.size()
                            ? pt.borders[b + 1].near_index
                            : std::min(pt.borders[b].far_index + 1,
                                       pt.hops.size() - 1);
      if (end <= begin) continue;
      std::vector<Ipv4> ips;
      bool usable = true;
      for (std::size_t i = begin; i <= end; ++i) {
        if (!pt.hops[i].responded()) {
          usable = false;
          break;
        }
        ips.push_back(*pt.hops[i].ip);
      }
      if (!usable || ips.size() < 2) continue;
      subscribe(ensure_segment(ips, index), view.key, b, index);
    }
  }

  void on_public_trace(const tracemap::ProcessedTrace& trace,
                       std::int64_t window) {
    auto first_position = [&trace](Ipv4 ip) {
      for (std::size_t j = 0; j < trace.hops.size(); ++j) {
        if (trace.hops[j].responded() && *trace.hops[j].ip == ip) return j;
      }
      return trace.hops.size();
    };
    for (std::size_t i = 0; i < trace.hops.size(); ++i) {
      if (!trace.hops[i].responded()) continue;
      auto sit = by_first_ip_.find(*trace.hops[i].ip);
      if (sit == by_first_ip_.end()) continue;
      for (Segment* segment : sit->second) {
        const std::size_t end = first_position(segment->ips.back());
        if (end == trace.hops.size() || end <= i) continue;
        bool match = true;
        if (i + segment->ips.size() <= trace.hops.size()) {
          for (std::size_t k = 0; k < segment->ips.size(); ++k) {
            const auto& hop = trace.hops[i + k];
            if (!hop.responded() || *hop.ip != segment->ips[k]) {
              match = false;
              break;
            }
          }
        } else {
          match = false;
        }
        observe(*segment, window, match);
        ++observations_;
      }
    }
  }

  void save_state(store::Encoder& enc) const {
    enc.u64(segments_.size());
    for (const Segment& segment : segments_) {
      enc.u64(segment.id);
      enc.u64(segment.ips.size());
      for (Ipv4 ip : segment.ips) store::put(enc, ip);
      Series::io(enc, segment);
    }
    index_io(enc, *this);
    enc.u64(observations_);
  }

 private:
  struct Segment : Series {
    using Series::Series;
    std::vector<Ipv4> ips;
  };

  Segment& ensure_segment(const std::vector<Ipv4>& ips,
                          PotentialIndex& index) {
    std::uint64_t key = 0x5E69E7;
    for (Ipv4 ip : ips) key = hash_combine(key, ip.value());
    auto it = by_key_.find(key);
    if (it != by_key_.end()) return *it->second;
    Segment& segment = segments_.emplace_back(zscore());
    segment.ip_overlap = static_cast<int>(ips.size());
    segment.ips = ips;
    by_key_.emplace(key, &segment);
    by_first_ip_[segment.ips.front()].push_back(&segment);
    open(segment, index);
    return segment;
  }

  std::deque<Segment> segments_;
  std::unordered_map<std::uint64_t, Segment*> by_key_;
  std::unordered_map<Ipv4, std::vector<Segment*>> by_first_ip_;
  std::uint64_t observations_ = 0;
};

// Seeded corpus routes and public traces over a 40-address pool. A route
// is 4-8 distinct addresses crossing two or three ASes; a public trace
// follows a route, follows it with one hop moved, or wanders the pool,
// with stars and with the route's first address revisited downstream.
class SubpathFeed {
 public:
  explicit SubpathFeed(std::uint64_t seed) : rng_(seed) {
    for (int r = 0; r < 8; ++r) {
      std::vector<std::uint32_t> pool(kPool);
      for (std::uint32_t i = 0; i < kPool; ++i) pool[i] = i;
      rng_.shuffle(pool);
      const std::int64_t length = rng_.uniform_int(4, 8);
      routes_.emplace_back(pool.begin(), pool.begin() + length);
    }
  }

  std::size_t routes() const { return routes_.size(); }

  // Route r as a corpus trace: its ASes change every two or three hops.
  tracemap::ProcessedTrace corpus(std::size_t r) const {
    std::vector<Hop> hops;
    for (std::size_t h = 0; h < routes_[r].size(); ++h) {
      const auto as = static_cast<std::uint32_t>(h / (2 + r % 2));
      hops.push_back(Hop{address(routes_[r][h]), 2000 + as,
                         static_cast<topo::CityId>(as)});
    }
    return make_trace(hops);
  }

  // One public trace; routes 0-3 move a hop far more often once `moved`
  // is set.
  tracemap::ProcessedTrace next(bool moved) {
    tracemap::ProcessedTrace pt;
    const std::size_t r = rng_.index(routes_.size());
    const double kind = rng_.uniform();
    std::vector<std::uint32_t> ips;
    if (kind < 0.7) {
      ips = routes_[r];
      const double move_prob = moved && r < 4 ? 0.6 : 0.1;
      if (rng_.bernoulli(move_prob)) {
        ips[1 + rng_.index(ips.size() - 2)] = kPool + 1;  // a detour hop
      }
      if (rng_.bernoulli(0.3)) {
        ips.insert(ips.begin(), static_cast<std::uint32_t>(rng_.index(kPool)));
      }
      if (rng_.bernoulli(0.2)) ips.push_back(ips.front());  // revisit
    } else {
      const std::int64_t length = rng_.uniform_int(2, 14);
      for (std::int64_t h = 0; h < length; ++h) {
        ips.push_back(static_cast<std::uint32_t>(rng_.index(kPool)));
      }
    }
    for (std::uint32_t ip : ips) {
      tracemap::ProcessedHop hop;
      if (!rng_.bernoulli(0.08)) hop.ip = Ipv4(address(ip));
      pt.hops.push_back(hop);
    }
    return pt;
  }

 private:
  static constexpr std::uint32_t kPool = 40;
  static std::uint32_t address(std::uint32_t i) { return 0x0A140000u + i; }

  Rng rng_;
  std::vector<std::vector<std::uint32_t>> routes_;
};

TEST(SubpathMonitor, FlatIndexAndHopKeysMatchTheReference) {
  SubpathMonitor monitor;
  ReferenceSubpathMonitor reference;
  PotentialIndex index, reference_index;
  SubpathFeed feed(61);
  std::size_t signals = 0;
  for (std::int64_t w = 0; w < 200; ++w) {
    if (w % 25 == 0) {  // new subscribers arrive over time
      for (std::size_t r = 0; r < feed.routes(); ++r) {
        CorpusView view;
        view.key = pair_of(static_cast<std::uint32_t>(100 * w + r));
        view.processed = feed.corpus(r);
        monitor.watch(view, index);
        reference.watch(view, reference_index);
      }
    }
    for (int t = 0; t < 60; ++t) {
      const tracemap::ProcessedTrace trace = feed.next(w >= 120);
      monitor.on_public_trace(trace, w);
      reference.on_public_trace(trace, w);
    }
    const TimePoint end((w + 1) * kWindow);
    const std::vector<StalenessSignal> got = monitor.close_window(w, end);
    signals += got.size();
    ASSERT_EQ(bytes_of(got), bytes_of(reference.close_window(w, end)))
        << "window " << w;
    if (w % 20 == 19) {
      ASSERT_EQ(state_of(monitor), state_of(reference)) << "window " << w;
    }
  }
  EXPECT_GT(signals, 0u);
  EXPECT_GT(monitor.stats().armed, 0u);
}

// Trace-series sections written by hand: each series is a fresh one with
// no subscribers, and the touched list is empty.
void put_fresh_series(store::Encoder& enc) {
  detect::AdaptiveRatioSeries(detect::ZScoreParams{}).save_state(enc);
  enc.u64(0);     // subscribers
  enc.f64(-1.0);  // baseline ratio
  enc.boolean(false);  // pending drop
}

void put_empty_index(store::Encoder& enc) {
  enc.u64(0);  // touched
}

std::string subpath_section(
    const std::vector<std::pair<PotentialId, std::vector<std::uint32_t>>>&
        segments,
    const std::vector<PotentialId>& touched = {}) {
  store::Encoder enc;
  enc.u64(segments.size());
  for (const auto& [id, ips] : segments) {
    enc.u64(id);
    enc.u64(ips.size());
    for (std::uint32_t ip : ips) store::put(enc, Ipv4(ip));
    put_fresh_series(enc);
  }
  enc(touched);
  enc.u64(0);  // observations
  return enc.take();
}

struct CityPair {
  std::uint32_t as_m;
  topo::CityId c_m;
  std::uint32_t as_n;
  topo::CityId c_n;
};

std::string border_section(
    const std::vector<std::pair<
        CityPair, std::vector<std::pair<PotentialId, std::uint64_t>>>>&
        entries) {
  store::Encoder enc;
  enc.u64(entries.size());
  for (const auto& [key, routers] : entries) {
    store::put(enc, Asn(key.as_m));
    enc.u16(key.c_m);
    store::put(enc, Asn(key.as_n));
    enc.u16(key.c_n);
    enc.u64(routers.size());
    for (const auto& [id, router] : routers) {
      enc.u64(id);
      enc.u64(router);
      put_fresh_series(enc);
    }
  }
  put_empty_index(enc);
  return enc.take();
}

template <typename M>
void expect_corrupt(const std::string& bytes, const char* what) {
  SCOPED_TRACE(what);
  M monitor;
  store::Decoder dec(bytes);
  try {
    monitor.load_state(dec);
    ADD_FAILURE() << "expected StoreError";
  } catch (const store::StoreError& error) {
    EXPECT_EQ(error.kind(), store::StoreError::Kind::kCorrupt);
  } catch (const std::exception& error) {
    ADD_FAILURE() << "threw " << error.what() << ", not StoreError";
  }
}

template <typename M>
void expect_round_trip(const std::string& bytes) {
  M monitor;
  store::Decoder dec(bytes);
  monitor.load_state(dec);
  dec.expect_done();
  EXPECT_EQ(state_of(monitor), bytes);
}

TEST(SubpathMonitor, LoadRejectsSegmentIdsThatDoNotAscend) {
  expect_round_trip<SubpathMonitor>(
      subpath_section({{0, {1, 2, 3}}, {4, {2, 3}}}));
  expect_corrupt<SubpathMonitor>(
      subpath_section({{4, {1, 2, 3}}, {0, {2, 3}}}), "descending ids");
}

TEST(SubpathMonitor, LoadRejectsTwoSegmentsWithTheSameIps) {
  expect_corrupt<SubpathMonitor>(
      subpath_section({{0, {1, 2, 3}}, {1, {1, 2, 3}}}), "same IPs");
}

TEST(SubpathMonitor, LoadRejectsOnePotentialOnTwoSegments) {
  expect_corrupt<SubpathMonitor>(
      subpath_section({{3, {1, 2, 3}}, {3, {2, 3}}}), "shared id");
}

// The touched list sets each series' flag on load, so it names a series at
// most once: a repeat would close the series twice in one window.
TEST(SubpathMonitor, LoadRejectsASeriesTouchedTwice) {
  expect_round_trip<SubpathMonitor>(
      subpath_section({{0, {1, 2, 3}}, {4, {2, 3}}}, {4, 0}));
  expect_corrupt<SubpathMonitor>(
      subpath_section({{0, {1, 2, 3}}, {4, {2, 3}}}, {4, 4}),
      "series touched twice");
}

TEST(BorderMonitor, LoadRejectsCityPairsThatDoNotAscend) {
  const CityPair low{1000, 1, 1001, 2}, high{1000, 1, 1001, 3};
  expect_round_trip<BorderMonitor>(
      border_section({{low, {{0, 7}}}, {high, {{1, 8}}}}));
  expect_corrupt<BorderMonitor>(
      border_section({{high, {{0, 7}}}, {low, {{1, 8}}}}), "descending");
}

TEST(BorderMonitor, LoadRejectsARepeatedCityPair) {
  // It used to load with the two router lists merged, and re-save as one
  // pair holding both.
  const CityPair key{1000, 1, 1001, 2};
  expect_corrupt<BorderMonitor>(
      border_section({{key, {{0, 7}}}, {key, {{1, 8}}}}), "repeated pair");
}

TEST(BorderMonitor, LoadRejectsTheSameRouterTwiceUnderOnePair) {
  const CityPair key{1000, 1, 1001, 2};
  expect_corrupt<BorderMonitor>(border_section({{key, {{0, 7}, {1, 7}}}}),
                                "repeated router");
}

TEST(BorderMonitor, LoadRejectsOnePotentialOnTwoSeries) {
  const CityPair low{1000, 1, 1001, 2}, high{1000, 1, 1001, 3};
  expect_corrupt<BorderMonitor>(
      border_section({{low, {{5, 7}}}, {high, {{5, 8}}}}), "shared id");
}

}  // namespace
}  // namespace rrr::signals
