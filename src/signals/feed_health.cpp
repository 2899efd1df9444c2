#include "signals/feed_health.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace rrr::signals {

const char* to_string(FeedState state) {
  switch (state) {
    case FeedState::kHealthy:
      return "healthy";
    case FeedState::kSuspect:
      return "suspect";
    case FeedState::kDead:
      return "dead";
    case FeedState::kRecovering:
      return "recovering";
  }
  return "?";
}

FeedHealthTracker::FeedHealthTracker(const FeedHealthParams& params)
    : params_(params) {}

void FeedHealthTracker::set_metrics(obs::MetricsRegistry& registry) {
  constexpr auto kSem = obs::Domain::kSemantic;
  constexpr FeedState kStates[] = {FeedState::kHealthy, FeedState::kSuspect,
                                   FeedState::kDead, FeedState::kRecovering};
  for (FeedState state : kStates) {
    auto index = static_cast<std::size_t>(state);
    obs_bgp_states_[index] = &registry.gauge(
        "rrr_feed_streams",
        {{"feed", "bgp"}, {"state", to_string(state)}}, kSem,
        "feed streams per quarantine state");
    obs_trace_states_[index] = &registry.gauge(
        "rrr_feed_streams",
        {{"feed", "trace"}, {"state", to_string(state)}}, kSem,
        "feed streams per quarantine state");
  }
  obs_bgp_degraded_ =
      &registry.gauge("rrr_feed_degraded", {{"feed", "bgp"}}, kSem,
                      "1 when the feed's quarantined fraction is degraded");
  obs_trace_degraded_ =
      &registry.gauge("rrr_feed_degraded", {{"feed", "trace"}}, kSem,
                      "1 when the feed's quarantined fraction is degraded");
}

void FeedHealthTracker::count_bgp(bgp::VpId vp, CollectorId collector,
                                  std::int64_t window) {
  auto [it, inserted] = collector_local_.try_emplace(
      collector, static_cast<std::uint32_t>(collector_local_.size()));
  vp_collector_.emplace(vp, it->second);
  ++bgp_.streams[it->second].pending[window];
}

void FeedHealthTracker::count_bgp(bgp::VpId vp, const std::string& collector,
                                  std::int64_t window) {
  count_bgp(vp, Interner::global().collector_id(collector), window);
}

void FeedHealthTracker::count_trace(tr::ProbeId probe, std::int64_t window) {
  ++trace_.streams[probe].pending[window];
}

void FeedHealthTracker::advance(Stream& stream, const Feed& feed,
                                double sum_baselines) {
  const std::size_t ring = stream.recent.size();
  const std::int64_t count =
      stream.recent[(stream.recent_pos + ring - 1) % ring];

  const bool judged = stream.seen_windows > params_.warmup_windows &&
                      stream.baseline >= params_.min_baseline;

  // Adaptive judgement horizon: enough windows to expect judge_mass records
  // at the baseline rate, capped at the ring. One window for dense streams,
  // most of a day for a collector whose peers speak a few times an hour.
  std::int64_t horizon = 0;
  std::int64_t delivered = 0;
  bool gap = false;
  if (stream.baseline >= params_.min_baseline) {
    horizon = static_cast<std::int64_t>(
        std::ceil(params_.judge_mass / stream.baseline));
    horizon = std::clamp<std::int64_t>(horizon, 1,
                                       params_.max_horizon_windows);
    horizon = std::min<std::int64_t>(horizon, stream.seen_windows);
    std::int64_t feed_delivered = 0;
    for (std::int64_t k = 0; k < horizon; ++k) {
      const auto back = static_cast<std::size_t>(k);
      delivered +=
          stream.recent[(stream.recent_pos + ring - 1 - back) % ring];
      feed_delivered +=
          feed.totals[(feed.totals_pos + ring - 1 - back) % ring];
    }
    if (judged) {
      // BGP activity is event-driven and globally bursty: judge the stream
      // against what the feed actually delivered, not wall-clock time. In
      // a feed-wide lull the ratio collapses and no gap can fire; a stream
      // silent while its peers chatter is judged at full expectation.
      const double expected_feed =
          sum_baselines * static_cast<double>(horizon);
      const double ratio =
          expected_feed > 1e-12
              ? std::min(1.0, static_cast<double>(feed_delivered) /
                                  expected_feed)
              : 0.0;
      gap = static_cast<double>(delivered) <
            params_.gap_fraction * stream.baseline *
                static_cast<double>(horizon) * ratio;
    }
  }

  // The baseline is an estimate of the *healthy* rate: it learns only while
  // the stream is healthy, so an outage cannot decay it to zero and a
  // recovery backfill burst cannot inflate it. The stream's first-ever
  // window is skipped — for BGP vantage points that is the initial RIB
  // dump, orders of magnitude above the steady rate. Once judgeable, the
  // EWMA tracks the horizon mean at an effective weight of baseline_alpha
  // per *horizon*: the gap judgement lags silence by up to one horizon, and
  // a per-window weight would let that lag decay a sparse stream's baseline
  // below min_baseline (unjudgeable, so never quarantined) before the gap
  // ever fired. Per-horizon weighting bounds the pre-gap decay at ~e^-alpha
  // however sparse the stream.
  if (!gap && stream.state == FeedState::kHealthy &&
      stream.seen_windows > 1) {
    if (stream.baseline < params_.min_baseline) {
      // Seed (and re-seed a too-quiet stream) from raw nonzero counts until
      // the stream is loud enough to judge.
      if (count > 0) {
        stream.baseline =
            stream.baseline < 0.0
                ? static_cast<double>(count)
                : (1.0 - params_.baseline_alpha) * stream.baseline +
                      params_.baseline_alpha * static_cast<double>(count);
      }
    } else {
      const double mean = static_cast<double>(delivered) /
                          static_cast<double>(horizon);
      const double weight =
          params_.baseline_alpha / static_cast<double>(horizon);
      stream.baseline = (1.0 - weight) * stream.baseline + weight * mean;
    }
  }

  switch (stream.state) {
    case FeedState::kHealthy:
      if (gap) {
        stream.state = FeedState::kSuspect;
        stream.gap_streak = 1;
      }
      break;
    case FeedState::kSuspect:
      if (gap) {
        if (++stream.gap_streak >= params_.suspect_windows) {
          stream.state = FeedState::kDead;
        }
      } else {
        stream.state = FeedState::kHealthy;
        stream.gap_streak = 0;
      }
      break;
    case FeedState::kDead:
      if (!gap) {
        stream.state = FeedState::kRecovering;
        stream.ok_streak = 1;
      }
      break;
    case FeedState::kRecovering:
      if (gap) {
        stream.state = FeedState::kDead;
        stream.ok_streak = 0;
      } else if (++stream.ok_streak >= params_.recover_windows) {
        stream.state = FeedState::kHealthy;
        stream.ok_streak = 0;
        stream.gap_streak = 0;
      }
      break;
  }
}

FeedHealthTracker::CloseResult FeedHealthTracker::close_feed(
    Feed& feed, std::int64_t window) {
  CloseResult result;
  const std::size_t ring = ring_size();
  if (feed.totals.size() != ring) feed.totals.assign(ring, 0);

  // Pass 1: drain this window's counts into every stream's ring and the
  // feed-wide totals ring. The activity-ratio denominator sums the
  // baselines as of the previous close — pass 2 may update them.
  std::int64_t total = 0;
  double sum_baselines = 0.0;
  for (auto& [id, stream] : feed.streams) {
    std::int64_t count = 0;
    auto it = stream.pending.begin();
    while (it != stream.pending.end() && it->first <= window) {
      count += it->second;
      it = stream.pending.erase(it);
    }
    ++stream.seen_windows;
    if (stream.recent.size() != ring) stream.recent.assign(ring, 0);
    stream.recent[stream.recent_pos] = count;
    stream.recent_pos = (stream.recent_pos + 1) % ring;
    total += count;
    sum_baselines += std::max(stream.baseline, 0.0);
  }
  feed.totals[feed.totals_pos] = total;
  feed.totals_pos = (feed.totals_pos + 1) % ring;
  ++feed.seen_windows;

  // Pass 2: judge each stream against the feed's recent activity.
  for (auto& [id, stream] : feed.streams) {
    advance(stream, feed, sum_baselines);
    ++result.by_state[static_cast<std::size_t>(stream.state)];
    if (stream.seen_windows > params_.warmup_windows &&
        stream.baseline >= params_.min_baseline) {
      ++result.judged;
      if (stream.state == FeedState::kDead ||
          stream.state == FeedState::kRecovering) {
        ++result.quarantined;
      }
    }
  }
  return result;
}

void FeedHealthTracker::close_window(std::int64_t window) {
  CloseResult bgp = close_feed(bgp_, window);
  CloseResult trace = close_feed(trace_, window);

  bgp_quarantined_fraction_ =
      bgp.judged == 0 ? 0.0
                      : static_cast<double>(bgp.quarantined) /
                            static_cast<double>(bgp.judged);
  trace_quarantined_fraction_ =
      trace.judged == 0 ? 0.0
                        : static_cast<double>(trace.quarantined) /
                              static_cast<double>(trace.judged);
  bgp_degraded_ = bgp_quarantined_fraction_ >= params_.degraded_fraction;
  trace_degraded_ = trace_quarantined_fraction_ >= params_.degraded_fraction;

  for (std::size_t i = 0; i < 4; ++i) {
    obs::set(obs_bgp_states_[i], bgp.by_state[i]);
    obs::set(obs_trace_states_[i], trace.by_state[i]);
  }
  obs::set(obs_bgp_degraded_, bgp_degraded_ ? 1 : 0);
  obs::set(obs_trace_degraded_, trace_degraded_ ? 1 : 0);
}

FeedState FeedHealthTracker::bgp_state(bgp::VpId vp) const {
  auto vit = vp_collector_.find(vp);
  if (vit == vp_collector_.end()) return FeedState::kHealthy;
  auto it = bgp_.streams.find(vit->second);
  return it == bgp_.streams.end() ? FeedState::kHealthy : it->second.state;
}

FeedState FeedHealthTracker::trace_state(tr::ProbeId probe) const {
  auto it = trace_.streams.find(probe);
  return it == trace_.streams.end() ? FeedState::kHealthy : it->second.state;
}

bool FeedHealthTracker::bgp_quarantined(bgp::VpId vp) const {
  FeedState state = bgp_state(vp);
  return state == FeedState::kDead || state == FeedState::kRecovering;
}

bool FeedHealthTracker::trace_quarantined(tr::ProbeId probe) const {
  FeedState state = trace_state(probe);
  return state == FeedState::kDead || state == FeedState::kRecovering;
}

}  // namespace rrr::signals
