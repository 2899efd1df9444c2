// Per-stream feed-health tracking at the engine's feed boundary.
//
// The engine's signals are ratios over what the feeds deliver; when a
// collector goes dark the ratios crater for reasons that have nothing to do
// with the Internet. The tracker watches every BGP *collector* (the
// aggregate of its vantage points' records — a single peer's stream is too
// bursty to judge) and every public-traceroute probe as an independent
// stream, learns its expected per-window record rate (EWMA baseline), and
// runs a quarantine state machine per stream:
//
//     healthy → suspect → dead → recovering → healthy
//
// A gap is judged over an adaptive horizon — the last ceil(judge_mass /
// baseline) windows, so a sparse stream (a BGP vantage point emitting a few
// updates a day) is judged over enough windows to carry signal while a
// dense one (a public probe) is judged almost per-window. The judgement is
// *relative to the rest of the feed*: the expected delivery is scaled by
// the feed's activity ratio (what the whole feed delivered over the horizon
// vs. what every stream's baseline predicts), so a feed-wide lull — routing
// updates are event-driven and globally bursty — shrinks every stream's
// expectation instead of reading as a thousand simultaneous outages. Only a
// stream that is silent *while its peers chatter* gaps. One gap (horizon
// delivery below gap_fraction × expected) makes a stream suspect;
// `suspect_windows` consecutive gaps make it dead; a dead stream that
// delivers again recovers, and `recover_windows` consecutive healthy
// windows return it to healthy. `dead` and `recovering` streams are
// *quarantined*: monitors consult the tracker before emitting ratio-based
// signals and drop (and count) signals that would be attributable to a
// quarantined stream, and calibration tallies for quarantined probes are
// frozen so TPR/TNR estimates are not poisoned by the outage.
//
// Concurrency/determinism: counting happens on the serial feed path and
// state transitions in `close_window`, which the engine calls at the top of
// its (serial) window close — before any monitor runs. During
// the parallel monitor phases the tracker is strictly read-only, so its
// answers are identical at every (shards, threads) grid point and the
// semantic gauges it exports are part of the determinism contract.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/record.h"
#include "netbase/intern.h"
#include "store/serial.h"
#include "traceroute/traceroute.h"

namespace rrr::obs {
class Gauge;
class MetricsRegistry;
}  // namespace rrr::obs

namespace rrr::signals {

enum class FeedState : std::uint8_t {
  kHealthy = 0,
  kSuspect = 1,
  kDead = 2,
  kRecovering = 3,
};
inline FeedState enum_last(FeedState) { return FeedState::kRecovering; }

const char* to_string(FeedState state);

struct FeedHealthParams {
  bool enabled = false;
  // EWMA weight of the expected-rate baseline, applied per judgement
  // horizon (not per window), so the baseline of a sparse stream cannot
  // decay to unjudgeable during the horizon-long lag before a gap fires.
  double baseline_alpha = 0.2;
  // A judgement horizon delivering fewer than gap_fraction x expected
  // records is a gap. Expected = baseline x horizon x activity_ratio, where
  // the activity ratio compares the whole feed's horizon delivery against
  // the sum of its streams' baselines: a feed-wide lull scales every
  // stream's expectation toward zero (no gap can fire), while a stream
  // silent during normal feed activity is judged at full expectation.
  // Conservative by default: a real collector outage is *total* silence
  // over many horizons, so a low fraction costs no detection while letting
  // one stream idle through another's busy stretch.
  double gap_fraction = 0.15;
  // Streams with a baseline (records/window) below this are too quiet to
  // judge at any horizon.
  double min_baseline = 0.05;
  // Expected records per judgement horizon: the horizon stretches to
  // ceil(judge_mass / baseline) windows so sparse streams (a collector
  // aggregating a few quiet peers) are judged over enough windows to carry
  // signal, while dense streams are judged almost per-window. Sized so a
  // natural lull is far below the gap threshold (P[X < gap_fraction * 24]
  // is ~1e-7 for a Poisson stream at the baseline rate — real update
  // streams are burstier than Poisson, hence the margin).
  double judge_mass = 24.0;
  // Cap on the stretched horizon; streams too sparse to reach judge_mass
  // within it are judged on whatever the capped horizon holds.
  std::int64_t max_horizon_windows = 48;
  // Windows a stream must be observed before it can be judged at all.
  std::int64_t warmup_windows = 6;
  // Consecutive gap windows that turn suspect into dead.
  std::int64_t suspect_windows = 2;
  // Consecutive healthy-rate windows that turn recovering into healthy.
  std::int64_t recover_windows = 4;
  // Fraction of judged streams quarantined above which the whole feed
  // counts as degraded.
  double degraded_fraction = 0.3;
};

class FeedHealthTracker {
 public:
  explicit FeedHealthTracker(const FeedHealthParams& params);

  // Registers the semantic health gauges (rrr_feed_streams /
  // rrr_feed_degraded).
  void set_metrics(obs::MetricsRegistry& registry);

  // --- serial feed path ---
  // `window` is the engine-clock index of the record's timestamp; counts
  // are bucketed per window so jittered/reordered records land where their
  // timestamp says. BGP liveness is judged per *collector* (the aggregate
  // of its vantage points' records): a single peer's stream is naturally
  // bursty — a quiet half-day means nothing — while a collector aggregates
  // enough sessions to have a judgeable rate, and a collector outage is
  // exactly the failure mode worth catching. The vp argument records which
  // collector answers for that VP's quarantine queries.
  //
  // The hot path takes the interned collector id (the engines pass
  // record.collector.id(): one integer-keyed map probe per record); the
  // string overload interns and delegates, for tests and offline callers.
  void count_bgp(bgp::VpId vp, CollectorId collector, std::int64_t window);
  void count_bgp(bgp::VpId vp, const std::string& collector,
                 std::int64_t window);
  void count_trace(tr::ProbeId probe, std::int64_t window);

  // --- serial close path ---
  // Consumes the counts of every window <= `window` and advances each
  // stream's state machine once. Must be called once per window, in order,
  // before any monitor close consults the tracker.
  void close_window(std::int64_t window);

  // --- read-only queries (safe during parallel monitor phases) ---
  FeedState bgp_state(bgp::VpId vp) const;
  FeedState trace_state(tr::ProbeId probe) const;
  // Quarantined = dead or recovering: the stream's data for recent windows
  // is missing or still back-filling.
  bool bgp_quarantined(bgp::VpId vp) const;
  bool trace_quarantined(tr::ProbeId probe) const;
  // Aggregate degradation, recomputed at close: fraction of judged streams
  // currently quarantined >= degraded_fraction.
  bool bgp_degraded() const { return bgp_degraded_; }
  bool trace_degraded() const { return trace_degraded_; }
  double bgp_quarantined_fraction() const { return bgp_quarantined_fraction_; }
  double trace_quarantined_fraction() const {
    return trace_quarantined_fraction_;
  }

  const FeedHealthParams& params() const { return params_; }

  // Checkpoint support: round-trips every stream's quarantine state
  // machine (state, streaks, EWMA baseline, arrival rings, pending
  // buckets) plus the collector-intern tables, so a restored tracker's
  // subsequent judgements are bit-identical to the uninterrupted one
  // (asserted by tests/checkpoint_resume_test.cpp). The exported gauges
  // are refreshed on the next close_window.
  void save_state(store::Encoder& enc) const { io(enc, *this); }
  void load_state(store::Decoder& dec) { io(dec, *this); }

 private:
  struct Stream {
    // Records per window the stream historically delivers; < 0 = unset.
    double baseline = -1.0;
    FeedState state = FeedState::kHealthy;
    std::int64_t gap_streak = 0;
    std::int64_t ok_streak = 0;
    std::int64_t seen_windows = 0;
    // Ring of the last max_horizon_windows per-window counts; the gap
    // judgement sums the most recent `horizon` of them.
    std::vector<std::int64_t> recent;
    std::size_t recent_pos = 0;
    // Per-window arrival counts not yet consumed by close_window.
    std::map<std::int64_t, std::int64_t> pending;
  };
  // std::map: close_window iterates streams, and deterministic iteration
  // order keeps the exported gauges grid-invariant.
  using StreamMap = std::map<std::uint32_t, Stream>;

  // One feed (BGP or trace): its streams plus the feed-wide per-window
  // delivery totals the activity ratio is computed from.
  struct Feed {
    StreamMap streams;
    // Ring of the last max_horizon_windows feed-wide totals.
    std::vector<std::int64_t> totals;
    std::size_t totals_pos = 0;
    std::int64_t seen_windows = 0;
  };

  // Judges one stream against the feed's recent activity;
  // `sum_baselines` is the sum of every seeded stream's baseline, the
  // denominator of the activity ratio.
  void advance(Stream& stream, const Feed& feed, double sum_baselines);
  struct CloseResult {
    std::array<std::int64_t, 4> by_state{};
    std::int64_t judged = 0;
    std::int64_t quarantined = 0;
  };
  CloseResult close_feed(Feed& feed, std::int64_t window);
  // The length of every arrival ring, max_horizon_windows (at least 1).
  std::size_t ring_size() const {
    return static_cast<std::size_t>(
        std::max<std::int64_t>(params_.max_horizon_windows, 1));
  }

  template <class Io, class Self>
  static void io(Io& io, Self& self) {
    // Every ring is empty (never closed) or ring-sized, and its write
    // position lies inside the ring close_feed() sizes it to.
    auto ring = [size = self.ring_size()](auto& io, auto& values, auto& pos) {
      io(values, pos);
      io.check(values.empty() || values.size() == size,
               "feed-health ring has the wrong size");
      io.check(pos < size, "feed-health ring position is out of range");
    };
    auto stream = [&ring](auto& io, auto& stream) {
      io(stream.baseline, stream.state, stream.gap_streak, stream.ok_streak,
         stream.seen_windows);
      ring(io, stream.recent, stream.recent_pos);
      io.ordered(stream.pending, "feed-health pending windows");
    };
    for (auto* feed : {&self.bgp_, &self.trace_}) {
      io.ordered(feed->streams, "feed-health streams", stream);
      ring(io, feed->totals, feed->totals_pos);
      io(feed->seen_windows);
    }
    // Collectors as (name, local id) in name order — the bytes of the
    // pre-interning std::map<std::string, id> — so snapshots depend only on
    // content, never on intern-id assignment history.
    std::map<std::string_view, std::uint32_t> collectors;
    if constexpr (!Io::kLoading) {
      for (const auto& [collector, local] : self.collector_local_) {
        collectors.emplace(Interner::global().collector(collector), local);
      }
    }
    io.ordered(collectors, "feed-health collectors");
    if constexpr (Io::kLoading) {
      self.collector_local_.clear();
      for (const auto& [name, local] : collectors) {
        self.collector_local_[Interner::global().collector_id(name)] = local;
      }
    }
    io.ordered(self.vp_collector_, "feed-health VPs");
    io(self.bgp_degraded_, self.trace_degraded_,
       self.bgp_quarantined_fraction_, self.trace_quarantined_fraction_);
  }

  FeedHealthParams params_;
  // BGP streams are keyed by a tracker-local dense id assigned in serial
  // feed first-sight order (so stream iteration order — and with it FP
  // summation order and the exported gauges — is grid-invariant);
  // collector_local_ maps the global interned CollectorId to that local id,
  // and vp_collector_ maps each vantage point to the collector stream that
  // answers for it. Snapshots store collector *names*, never intern ids.
  Feed bgp_;
  std::map<CollectorId, std::uint32_t> collector_local_;
  std::map<bgp::VpId, std::uint32_t> vp_collector_;
  Feed trace_;
  bool bgp_degraded_ = false;
  bool trace_degraded_ = false;
  double bgp_quarantined_fraction_ = 0.0;
  double trace_quarantined_fraction_ = 0.0;

  std::array<obs::Gauge*, 4> obs_bgp_states_{};
  std::array<obs::Gauge*, 4> obs_trace_states_{};
  obs::Gauge* obs_bgp_degraded_ = nullptr;
  obs::Gauge* obs_trace_degraded_ = nullptr;
};

}  // namespace rrr::signals
