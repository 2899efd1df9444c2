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
  const auto ring = static_cast<std::size_t>(
      std::max<std::int64_t>(params_.max_horizon_windows, 1));
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

void FeedHealthTracker::save_state(store::Encoder& enc) const {
  auto save_feed = [&](const Feed& feed) {
    enc.u64(feed.streams.size());
    for (const auto& [id, stream] : feed.streams) {
      enc.u32(id);
      enc.f64(stream.baseline);
      enc.u8(static_cast<std::uint8_t>(stream.state));
      enc.i64(stream.gap_streak);
      enc.i64(stream.ok_streak);
      enc.i64(stream.seen_windows);
      enc.u64(stream.recent.size());
      for (std::int64_t v : stream.recent) enc.i64(v);
      enc.u64(stream.recent_pos);
      enc.u64(stream.pending.size());
      for (const auto& [window, count] : stream.pending) {
        enc.i64(window);
        enc.i64(count);
      }
    }
    enc.u64(feed.totals.size());
    for (std::int64_t v : feed.totals) enc.i64(v);
    enc.u64(feed.totals_pos);
    enc.i64(feed.seen_windows);
  };
  save_feed(bgp_);
  save_feed(trace_);
  // Written as (name, local id) sorted by name — exactly the bytes the
  // pre-interning std::map<std::string, id> emitted — so snapshots depend
  // only on content, never on global intern-id assignment history.
  std::vector<std::pair<std::string_view, std::uint32_t>> collectors;
  collectors.reserve(collector_local_.size());
  for (const auto& [collector, local] : collector_local_) {
    collectors.emplace_back(Interner::global().collector(collector), local);
  }
  std::sort(collectors.begin(), collectors.end());
  enc.u64(collectors.size());
  for (const auto& [name, local] : collectors) {
    enc.str(name);
    enc.u32(local);
  }
  enc.u64(vp_collector_.size());
  for (const auto& [vp, id] : vp_collector_) {
    enc.u32(vp);
    enc.u32(id);
  }
  enc.boolean(bgp_degraded_);
  enc.boolean(trace_degraded_);
  enc.f64(bgp_quarantined_fraction_);
  enc.f64(trace_quarantined_fraction_);
}

void FeedHealthTracker::load_state(store::Decoder& dec) {
  // Every ring is empty (never closed) or ring-sized, and its write
  // position lies inside the ring close_feed() sizes it to.
  const auto ring = static_cast<std::size_t>(
      std::max<std::int64_t>(params_.max_horizon_windows, 1));
  auto load_ring = [&](std::vector<std::int64_t>& values, std::size_t& pos) {
    std::uint64_t size = dec.u64();
    if (size != 0 && size != ring) {
      throw store::StoreError(store::StoreError::Kind::kCorrupt,
                              "feed-health ring has the wrong size");
    }
    values.assign(size, 0);
    for (std::int64_t& v : values) v = dec.i64();
    pos = dec.u64();
    if (pos >= ring) {
      throw store::StoreError(store::StoreError::Kind::kCorrupt,
                              "feed-health ring position is out of range");
    }
  };
  auto load_feed = [&](Feed& feed) {
    feed.streams.clear();
    std::uint64_t stream_count = dec.u64();
    for (std::uint64_t i = 0; i < stream_count; ++i) {
      std::uint32_t id = dec.u32();
      Stream& stream = feed.streams[id];
      stream.baseline = dec.f64();
      std::uint8_t state = dec.u8();
      if (state > static_cast<std::uint8_t>(FeedState::kRecovering)) {
        throw store::StoreError(store::StoreError::Kind::kCorrupt,
                                "feed-health stream state is unknown");
      }
      stream.state = static_cast<FeedState>(state);
      stream.gap_streak = dec.i64();
      stream.ok_streak = dec.i64();
      stream.seen_windows = dec.i64();
      load_ring(stream.recent, stream.recent_pos);
      std::uint64_t pending = dec.u64();
      for (std::uint64_t j = 0; j < pending; ++j) {
        std::int64_t window = dec.i64();
        stream.pending[window] = dec.i64();
      }
    }
    load_ring(feed.totals, feed.totals_pos);
    feed.seen_windows = dec.i64();
  };
  load_feed(bgp_);
  load_feed(trace_);
  collector_local_.clear();
  std::uint64_t collectors = dec.u64();
  for (std::uint64_t i = 0; i < collectors; ++i) {
    std::string collector(dec.str());
    collector_local_[Interner::global().collector_id(collector)] = dec.u32();
  }
  vp_collector_.clear();
  std::uint64_t vps = dec.u64();
  for (std::uint64_t i = 0; i < vps; ++i) {
    bgp::VpId vp = dec.u32();
    vp_collector_[vp] = dec.u32();
  }
  bgp_degraded_ = dec.boolean();
  trace_degraded_ = dec.boolean();
  bgp_quarantined_fraction_ = dec.f64();
  trace_quarantined_fraction_ = dec.f64();
}

}  // namespace rrr::signals
