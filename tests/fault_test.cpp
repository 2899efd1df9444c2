// Tests for the fault-injection subsystem (fault/) and the feed-health
// quarantine tracker (signals/feed_health.h): plan spec round-trips,
// injector determinism and per-clause behaviour, and the
// healthy/suspect/dead/recovering state machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fault/injector.h"
#include "fault/plan.h"
#include "signals/feed_health.h"

namespace rrr {
namespace {

bgp::BgpRecord make_record(bgp::VpId vp, std::int64_t t,
                           const char* prefix = "10.1.0.0/16",
                           bgp::RecordType type =
                               bgp::RecordType::kAnnouncement) {
  bgp::BgpRecord record;
  record.time = TimePoint(t);
  record.type = type;
  record.vp = vp;
  record.peer_asn = Asn(65000 + vp);
  record.peer_ip = *Ipv4::parse("192.0.2.1");
  record.collector = "rrc" + std::to_string(vp % 4);
  record.prefix = *Prefix::parse(prefix);
  if (type != bgp::RecordType::kWithdrawal) {
    record.as_path = {Asn(65000 + vp), Asn(3356), Asn(15169)};
  }
  return record;
}

tr::Traceroute make_trace(tr::ProbeId probe, std::int64_t t) {
  tr::Traceroute trace;
  trace.id = 7;
  trace.probe = probe;
  trace.src_ip = *Ipv4::parse("10.0.0.1");
  trace.dst_ip = *Ipv4::parse("10.9.0.1");
  trace.time = TimePoint(t);
  trace.reached = true;
  return trace;
}

constexpr std::int64_t kWindow = 900;

// --- FaultPlan ---

TEST(FaultPlan, DefaultPlanIsInert) {
  fault::FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_EQ(plan.spec(), "");
  auto parsed = fault::FaultPlan::parse("");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->enabled());
}

TEST(FaultPlan, SpecRoundTrips) {
  fault::FaultPlan plan;
  plan.collector_blackout_fraction = 0.3;
  plan.vp_blackout_fraction = 0.1;
  plan.blackout_start_window = 96;
  plan.blackout_windows = 48;
  plan.session_reset_replay = true;
  plan.drop_rate = 0.05;
  plan.trace_drop_rate = 0.2;
  plan.duplicate_rate = 0.15;
  plan.duplicate_burst_max = 5;
  plan.reorder_rate = 0.25;
  plan.reorder_max_seconds = 120;
  plan.corrupt_rate = 0.01;
  plan.seed = 77;
  ASSERT_TRUE(plan.enabled());

  auto parsed = fault::FaultPlan::parse(plan.spec());
  ASSERT_TRUE(parsed.has_value()) << plan.spec();
  EXPECT_EQ(parsed->spec(), plan.spec());
  EXPECT_DOUBLE_EQ(parsed->collector_blackout_fraction, 0.3);
  EXPECT_EQ(parsed->blackout_start_window, 96);
  EXPECT_EQ(parsed->blackout_windows, 48);
  EXPECT_TRUE(parsed->session_reset_replay);
  EXPECT_EQ(parsed->duplicate_burst_max, 5);
  EXPECT_EQ(parsed->reorder_max_seconds, 120);
  EXPECT_EQ(parsed->seed, 77u);
}

TEST(FaultPlan, ParseRejectsGarbage) {
  EXPECT_FALSE(fault::FaultPlan::parse("unknown_key=1").has_value());
  EXPECT_FALSE(fault::FaultPlan::parse("drop=1.5").has_value());
  EXPECT_FALSE(fault::FaultPlan::parse("drop=-0.1").has_value());
  EXPECT_FALSE(fault::FaultPlan::parse("drop").has_value());
  EXPECT_FALSE(fault::FaultPlan::parse("drop=abc").has_value());
  // A rate is a whole, finite number: no NaN or infinity (a NaN rate used
  // to parse into an inert plan), no blanks, no '+', no trailing junk.
  for (const char* value : {"nan", "inf", " 0.5", "+0.5", "0.5x"}) {
    EXPECT_FALSE(
        fault::FaultPlan::parse(std::string("drop=") + value).has_value())
        << value;
  }
}

TEST(FaultPlan, BlackoutWithoutWindowsIsInert) {
  fault::FaultPlan plan;
  plan.collector_blackout_fraction = 1.0;
  EXPECT_FALSE(plan.enabled());  // blackout_windows == 0
  plan.blackout_windows = 4;
  EXPECT_TRUE(plan.enabled());
}

// --- FaultInjector ---

TEST(FaultInjector, InertPlanPassesRecordsThrough) {
  fault::FaultInjector injector(fault::FaultPlan{}, TimePoint(0), kWindow);
  bgp::BgpRecord record = make_record(1, 100);
  auto out = injector.on_bgp_record(record);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].prefix.to_string(), record.prefix.to_string());
  EXPECT_EQ(out[0].time, record.time);
  auto trace = injector.on_public_trace(make_trace(9, 100));
  EXPECT_TRUE(trace.has_value());
}

TEST(FaultInjector, BlackoutDropsOnlyInsideItsWindows) {
  fault::FaultPlan plan;
  plan.collector_blackout_fraction = 1.0;  // every collector
  plan.blackout_start_window = 2;
  plan.blackout_windows = 2;  // windows [2, 4)
  fault::FaultInjector injector(plan, TimePoint(0), kWindow);

  EXPECT_EQ(injector.on_bgp_record(make_record(1, 1 * kWindow)).size(), 1u);
  EXPECT_EQ(injector.on_bgp_record(make_record(1, 2 * kWindow)).size(), 0u);
  EXPECT_EQ(injector.on_bgp_record(make_record(1, 3 * kWindow)).size(), 0u);
  EXPECT_EQ(injector.on_bgp_record(make_record(1, 4 * kWindow)).size(), 1u);
  EXPECT_EQ(injector.stats().bgp_blackout_dropped, 2);
}

TEST(FaultInjector, VpBlackoutAlsoSilencesProbes) {
  fault::FaultPlan plan;
  plan.vp_blackout_fraction = 1.0;
  plan.blackout_start_window = 0;
  plan.blackout_windows = 4;
  fault::FaultInjector injector(plan, TimePoint(0), kWindow);
  EXPECT_FALSE(injector.on_public_trace(make_trace(3, kWindow)).has_value());
  EXPECT_TRUE(
      injector.on_public_trace(make_trace(3, 5 * kWindow)).has_value());
  EXPECT_EQ(injector.stats().trace_blackout_dropped, 1);
}

TEST(FaultInjector, DropRateOneDropsEverything) {
  fault::FaultPlan plan;
  plan.drop_rate = 1.0;
  plan.trace_drop_rate = 1.0;
  fault::FaultInjector injector(plan, TimePoint(0), kWindow);
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(injector.on_bgp_record(make_record(1, i)).empty());
    EXPECT_FALSE(injector.on_public_trace(make_trace(2, i)).has_value());
  }
  EXPECT_EQ(injector.stats().bgp_dropped, 16);
  EXPECT_EQ(injector.stats().trace_dropped, 16);
}

TEST(FaultInjector, DuplicateBurstsAreBounded) {
  fault::FaultPlan plan;
  plan.duplicate_rate = 1.0;
  plan.duplicate_burst_max = 3;
  fault::FaultInjector injector(plan, TimePoint(0), kWindow);
  for (int i = 0; i < 32; ++i) {
    auto out = injector.on_bgp_record(make_record(1, i));
    ASSERT_GE(out.size(), 2u);  // original + at least one copy
    ASSERT_LE(out.size(), 4u);  // original + at most burst_max
    for (const auto& copy : out) EXPECT_EQ(copy.time, TimePoint(i));
  }
  EXPECT_GT(injector.stats().bgp_duplicated, 0);
}

TEST(FaultInjector, ReorderJitterIsBoundedAndNonNegative) {
  fault::FaultPlan plan;
  plan.reorder_rate = 1.0;
  plan.reorder_max_seconds = 50;
  fault::FaultInjector injector(plan, TimePoint(0), kWindow);
  for (int i = 0; i < 64; ++i) {
    std::int64_t t = 10 + i;
    auto out = injector.on_bgp_record(make_record(1, t));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_GE(out[0].time.seconds(), 0);
    EXPECT_LE(std::abs(out[0].time.seconds() - t), 50);
  }
  EXPECT_GT(injector.stats().bgp_reordered, 0);
}

TEST(FaultInjector, CorruptionEitherDropsOrMutatesButNeverCrashes) {
  fault::FaultPlan plan;
  plan.corrupt_rate = 1.0;
  fault::FaultInjector injector(plan, TimePoint(0), kWindow);
  std::int64_t survived = 0;
  for (int i = 0; i < 256; ++i) {
    survived += static_cast<std::int64_t>(
        injector.on_bgp_record(make_record(1, 1000 + i)).size());
  }
  EXPECT_EQ(survived, injector.stats().bgp_corrupted);
  EXPECT_EQ(256, injector.stats().bgp_corrupted +
                     injector.stats().bgp_corrupt_dropped);
  // A corruption pass that never kills a line (or never spares one) is not
  // exercising both paths.
  EXPECT_GT(injector.stats().bgp_corrupt_dropped, 0);
  EXPECT_GT(injector.stats().bgp_corrupted, 0);
}

TEST(FaultInjector, SessionResetReplaysLastKnownRoutes) {
  fault::FaultPlan plan;
  plan.collector_blackout_fraction = 1.0;
  plan.blackout_start_window = 2;
  plan.blackout_windows = 2;
  plan.session_reset_replay = true;
  fault::FaultInjector injector(plan, TimePoint(0), kWindow);

  // Two standing routes learned before the blackout, one withdrawn.
  injector.on_bgp_record(make_record(1, 10, "10.1.0.0/16"));
  injector.on_bgp_record(make_record(1, 20, "10.2.0.0/16"));
  injector.on_bgp_record(make_record(1, 30, "10.3.0.0/16"));
  injector.on_bgp_record(
      make_record(1, 40, "10.3.0.0/16", bgp::RecordType::kWithdrawal));
  // Silence during the blackout.
  EXPECT_TRUE(injector.on_bgp_record(make_record(1, 2 * kWindow)).empty());

  // First post-blackout record: the two surviving routes replay ahead of it.
  auto out = injector.on_bgp_record(
      make_record(1, 4 * kWindow + 5, "10.9.0.0/16"));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].prefix.to_string(), "10.1.0.0/16");
  EXPECT_EQ(out[1].prefix.to_string(), "10.2.0.0/16");
  EXPECT_EQ(out[2].prefix.to_string(), "10.9.0.0/16");
  for (const auto& record : out) {
    EXPECT_EQ(record.time, TimePoint(4 * kWindow + 5));
  }
  EXPECT_EQ(injector.stats().bgp_replayed, 2);

  // The synchronized replay fires exactly once, not on every later record.
  EXPECT_EQ(
      injector.on_bgp_record(make_record(1, 4 * kWindow + 9)).size(), 1u);
}

TEST(FaultInjector, PerStreamDrawsAreInterleaveInvariant) {
  fault::FaultPlan plan;
  plan.drop_rate = 0.3;
  plan.duplicate_rate = 0.3;
  plan.reorder_rate = 0.3;
  plan.reorder_max_seconds = 60;
  plan.seed = 5;

  // Same records, radically different cross-stream interleavings.
  auto run = [&](bool grouped) {
    fault::FaultInjector injector(plan, TimePoint(0), kWindow);
    std::vector<std::vector<bgp::BgpRecord>> out(4);
    if (grouped) {
      for (bgp::VpId vp = 0; vp < 4; ++vp) {
        for (int i = 0; i < 32; ++i) {
          auto batch = injector.on_bgp_record(make_record(vp, 100 + i));
          out[vp].insert(out[vp].end(), batch.begin(), batch.end());
        }
      }
    } else {
      for (int i = 0; i < 32; ++i) {
        for (bgp::VpId vp = 0; vp < 4; ++vp) {
          auto batch = injector.on_bgp_record(make_record(vp, 100 + i));
          out[vp].insert(out[vp].end(), batch.begin(), batch.end());
        }
      }
    }
    return out;
  };
  auto grouped = run(true);
  auto interleaved = run(false);
  for (bgp::VpId vp = 0; vp < 4; ++vp) {
    ASSERT_EQ(grouped[vp].size(), interleaved[vp].size()) << "vp " << vp;
    for (std::size_t i = 0; i < grouped[vp].size(); ++i) {
      EXPECT_EQ(grouped[vp][i].time, interleaved[vp][i].time);
      EXPECT_EQ(grouped[vp][i].prefix.to_string(),
                interleaved[vp][i].prefix.to_string());
    }
  }
}

// --- FeedHealthTracker ---

signals::FeedHealthParams tight_params() {
  signals::FeedHealthParams params;
  params.enabled = true;
  params.baseline_alpha = 0.5;
  params.gap_fraction = 0.5;
  params.min_baseline = 0.5;
  params.judge_mass = 1.0;  // horizon = 1 window once baseline >= 1
  params.max_horizon_windows = 4;
  params.warmup_windows = 2;
  params.suspect_windows = 2;
  params.recover_windows = 2;
  params.degraded_fraction = 0.3;
  return params;
}

void feed_n(signals::FeedHealthTracker& tracker, bgp::VpId vp,
            std::int64_t window, int n) {
  // One synthetic collector per vp keeps each vp on its own BGP stream, so
  // these tests exercise the state machine stream by stream.
  const std::string collector = "c" + std::to_string(vp);
  for (int i = 0; i < n; ++i) tracker.count_bgp(vp, collector, window);
}

TEST(FeedHealth, UnknownStreamsAreHealthy) {
  signals::FeedHealthTracker tracker(tight_params());
  EXPECT_EQ(tracker.bgp_state(42), signals::FeedState::kHealthy);
  EXPECT_FALSE(tracker.bgp_quarantined(42));
  EXPECT_FALSE(tracker.trace_quarantined(42));
  EXPECT_FALSE(tracker.bgp_degraded());
}

TEST(FeedHealth, OutageWalksTheStateMachine) {
  signals::FeedHealthTracker tracker(tight_params());
  // Gap judgement is relative to feed activity: a heartbeat stream keeps
  // chattering throughout so stream 1's silence reads as an outage, not a
  // feed-wide lull.
  std::int64_t w = 0;
  for (; w < 5; ++w) {
    feed_n(tracker, 1, w, 4);
    feed_n(tracker, 99, w, 4);
    tracker.close_window(w);
  }
  EXPECT_EQ(tracker.bgp_state(1), signals::FeedState::kHealthy);

  // Silence: one gap window -> suspect, two -> dead (quarantined).
  feed_n(tracker, 99, w, 4);
  tracker.close_window(w++);
  EXPECT_EQ(tracker.bgp_state(1), signals::FeedState::kSuspect);
  EXPECT_FALSE(tracker.bgp_quarantined(1));
  feed_n(tracker, 99, w, 4);
  tracker.close_window(w++);
  EXPECT_EQ(tracker.bgp_state(1), signals::FeedState::kDead);
  EXPECT_TRUE(tracker.bgp_quarantined(1));

  // Delivery resumes: recovering (still quarantined), then healthy.
  feed_n(tracker, 1, w, 4);
  feed_n(tracker, 99, w, 4);
  tracker.close_window(w++);
  EXPECT_EQ(tracker.bgp_state(1), signals::FeedState::kRecovering);
  EXPECT_TRUE(tracker.bgp_quarantined(1));
  feed_n(tracker, 1, w, 4);
  feed_n(tracker, 99, w, 4);
  tracker.close_window(w++);
  EXPECT_EQ(tracker.bgp_state(1), signals::FeedState::kHealthy);
  EXPECT_FALSE(tracker.bgp_quarantined(1));
}

TEST(FeedHealth, FeedWideLullIsNotAnOutage) {
  signals::FeedHealthTracker tracker(tight_params());
  std::int64_t w = 0;
  for (; w < 5; ++w) {
    feed_n(tracker, 1, w, 4);
    feed_n(tracker, 2, w, 4);
    tracker.close_window(w);
  }
  EXPECT_EQ(tracker.bgp_state(1), signals::FeedState::kHealthy);
  // EVERY stream goes silent at once — an event-driven lull, not an
  // outage. The activity ratio collapses and nobody is quarantined.
  for (int i = 0; i < 6; ++i) tracker.close_window(w++);
  EXPECT_EQ(tracker.bgp_state(1), signals::FeedState::kHealthy);
  EXPECT_EQ(tracker.bgp_state(2), signals::FeedState::kHealthy);
  EXPECT_FALSE(tracker.bgp_degraded());
}

TEST(FeedHealth, BaselineDoesNotDecayDuringOutage) {
  signals::FeedHealthTracker tracker(tight_params());
  std::int64_t w = 0;
  for (; w < 6; ++w) {
    feed_n(tracker, 1, w, 4);
    feed_n(tracker, 99, w, 4);
    tracker.close_window(w);
  }
  // A long outage (heartbeat still chattering), then full-rate delivery:
  // if the outage had decayed the baseline toward zero, the resumed rate
  // would look like a flood and a near-silent stream would look healthy.
  // Instead, after recovery a trickle window still reads as a gap.
  for (int i = 0; i < 6; ++i) {
    feed_n(tracker, 99, w, 4);
    tracker.close_window(w++);
  }
  EXPECT_TRUE(tracker.bgp_quarantined(1));
  for (int i = 0; i < 2; ++i) {
    feed_n(tracker, 1, w, 4);
    feed_n(tracker, 99, w, 4);
    tracker.close_window(w++);
  }
  EXPECT_EQ(tracker.bgp_state(1), signals::FeedState::kHealthy);
  // 1 < gap_fraction(0.5) * baseline(~4) * activity_ratio(5/8).
  feed_n(tracker, 1, w, 1);
  feed_n(tracker, 99, w, 4);
  tracker.close_window(w++);
  EXPECT_EQ(tracker.bgp_state(1), signals::FeedState::kSuspect);
}

TEST(FeedHealth, SparseStreamsAreJudgedOverAStretchedHorizon) {
  signals::FeedHealthParams params = tight_params();
  params.baseline_alpha = 0.2;  // baseline learns ~alpha per horizon
  params.gap_fraction = 0.25;
  params.judge_mass = 2.0;
  params.max_horizon_windows = 8;
  params.min_baseline = 0.05;
  signals::FeedHealthTracker tracker(params);
  // ~0.5 records/window: one record every other window. A dense heartbeat
  // stream keeps the feed's activity ratio near 1 throughout.
  std::int64_t w = 0;
  for (; w < 20; ++w) {
    if (w % 2 == 0) feed_n(tracker, 1, w, 1);
    feed_n(tracker, 99, w, 4);
    tracker.close_window(w);
  }
  // Per-window judgement would flag every odd window as a gap; the
  // stretched horizon (>= 4 windows at this baseline) keeps it healthy.
  EXPECT_EQ(tracker.bgp_state(1), signals::FeedState::kHealthy);
  // A real outage still lands: total silence for the full horizon while
  // the heartbeat keeps delivering.
  for (int i = 0; i < 12; ++i) {
    feed_n(tracker, 99, w, 4);
    tracker.close_window(w++);
  }
  EXPECT_TRUE(tracker.bgp_quarantined(1));
}

TEST(FeedHealth, DegradedWhenEnoughJudgedStreamsQuarantine) {
  signals::FeedHealthTracker tracker(tight_params());
  std::int64_t w = 0;
  for (; w < 5; ++w) {
    feed_n(tracker, 1, w, 4);
    feed_n(tracker, 2, w, 4);
    tracker.close_window(w);
  }
  EXPECT_FALSE(tracker.bgp_degraded());
  // Stream 2 goes dark; stream 1 keeps delivering.
  for (int i = 0; i < 3; ++i) {
    feed_n(tracker, 1, w, 4);
    tracker.close_window(w++);
  }
  EXPECT_FALSE(tracker.bgp_quarantined(1));
  EXPECT_TRUE(tracker.bgp_quarantined(2));
  EXPECT_TRUE(tracker.bgp_degraded());  // 1/2 judged >= 0.3
  EXPECT_DOUBLE_EQ(tracker.bgp_quarantined_fraction(), 0.5);
  // The trace feed is independent.
  EXPECT_FALSE(tracker.trace_degraded());
}

}  // namespace
}  // namespace rrr
