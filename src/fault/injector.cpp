#include "fault/injector.h"

#include <algorithm>
#include <cassert>

#include "bgp/serial.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/framing.h"

namespace rrr::fault {
namespace {

// Distinct fork salts keep the per-feed split domains disjoint.
constexpr std::uint64_t kBgpStreamSalt = 0xB6FEEDull;
constexpr std::uint64_t kTraceStreamSalt = 0x7CAFEull;
// Stateless blackout-membership hash domains.
constexpr std::uint64_t kCollectorSalt = 0xC011EC7ull;
constexpr std::uint64_t kVpSalt = 0xB1AC0B7ull;
constexpr std::uint64_t kProbeSalt = 0x9E0B1ACull;
// A session table dump is bounded; so is the replay cache.
constexpr std::size_t kMaxCachedRoutesPerVp = 4096;

double to_unit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan, TimePoint t0,
                             std::int64_t window_seconds)
    : plan_(plan), t0_(t0), window_seconds_(window_seconds) {
  assert(window_seconds_ > 0);
}

void FaultInjector::set_metrics(obs::MetricsRegistry& registry) {
  constexpr auto kSem = obs::Domain::kSemantic;
  obs_bgp_dropped_blackout_ = &registry.counter(
      "rrr_fault_bgp_records_dropped_total", {{"reason", "blackout"}}, kSem,
      "BGP records removed by the fault injector");
  obs_bgp_dropped_loss_ = &registry.counter(
      "rrr_fault_bgp_records_dropped_total", {{"reason", "loss"}}, kSem,
      "BGP records removed by the fault injector");
  obs_bgp_dropped_corrupt_ = &registry.counter(
      "rrr_fault_bgp_records_dropped_total", {{"reason", "corrupt"}}, kSem,
      "BGP records removed by the fault injector");
  obs_bgp_corrupted_ = &registry.counter(
      "rrr_fault_bgp_records_corrupted_total", {}, kSem,
      "BGP records whose corrupted line still parsed");
  obs_bgp_duplicated_ = &registry.counter(
      "rrr_fault_bgp_records_duplicated_total", {}, kSem,
      "extra duplicate copies emitted by the fault injector");
  obs_bgp_reordered_ = &registry.counter(
      "rrr_fault_bgp_records_reordered_total", {}, kSem,
      "BGP records whose timestamp was jittered");
  obs_bgp_replayed_ = &registry.counter(
      "rrr_fault_bgp_records_replayed_total", {}, kSem,
      "session-reset replay records emitted after a blackout");
  obs_trace_dropped_blackout_ = &registry.counter(
      "rrr_fault_traces_dropped_total", {{"reason", "blackout"}}, kSem,
      "public traceroutes removed by the fault injector");
  obs_trace_dropped_loss_ = &registry.counter(
      "rrr_fault_traces_dropped_total", {{"reason", "loss"}}, kSem,
      "public traceroutes removed by the fault injector");
}

std::int64_t FaultInjector::window_of(TimePoint t) const {
  std::int64_t delta = t.seconds() - t0_.seconds();
  if (delta < 0) delta -= window_seconds_ - 1;  // floor toward -inf
  return delta / window_seconds_;
}

bool FaultInjector::blackout_active(std::int64_t window) const {
  return plan_.blackout_windows > 0 &&
         window >= plan_.blackout_start_window &&
         window < plan_.blackout_start_window + plan_.blackout_windows;
}

bool FaultInjector::collector_blacked(const std::string& collector) const {
  if (plan_.collector_blackout_fraction <= 0.0) return false;
  std::uint64_t h = mix64(
      hash_combine(plan_.seed ^ kCollectorSalt, store::fnv1a64(collector)));
  return to_unit(h) < plan_.collector_blackout_fraction;
}

bool FaultInjector::vp_blacked(bgp::VpId vp) const {
  if (plan_.vp_blackout_fraction <= 0.0) return false;
  std::uint64_t h = mix64(hash_combine(plan_.seed ^ kVpSalt, vp));
  return to_unit(h) < plan_.vp_blackout_fraction;
}

bool FaultInjector::probe_blacked(tr::ProbeId probe) const {
  if (plan_.vp_blackout_fraction <= 0.0) return false;
  std::uint64_t h = mix64(hash_combine(plan_.seed ^ kProbeSalt, probe));
  return to_unit(h) < plan_.vp_blackout_fraction;
}

Rng& FaultInjector::bgp_stream(bgp::VpId vp) {
  auto it = bgp_streams_.find(vp);
  if (it == bgp_streams_.end()) {
    it = bgp_streams_
             .emplace(vp, Rng(plan_.seed).fork(kBgpStreamSalt).split(vp))
             .first;
  }
  return it->second;
}

Rng& FaultInjector::trace_stream(tr::ProbeId probe) {
  auto it = trace_streams_.find(probe);
  if (it == trace_streams_.end()) {
    it = trace_streams_
             .emplace(probe,
                      Rng(plan_.seed).fork(kTraceStreamSalt).split(probe))
             .first;
  }
  return it->second;
}

void FaultInjector::remember(const bgp::BgpRecord& record) {
  if (!plan_.session_reset_replay) return;
  auto& routes = last_routes_[record.vp];
  std::string key = record.prefix.to_string();
  if (record.type == bgp::RecordType::kWithdrawal) {
    routes.erase(key);
    return;
  }
  if (record.as_path.empty()) return;
  if (routes.size() >= kMaxCachedRoutesPerVp && !routes.contains(key)) return;
  routes.insert_or_assign(std::move(key), record);
}

std::optional<bgp::BgpRecord> FaultInjector::corrupt(
    const bgp::BgpRecord& record, Rng& rng) {
  store::Encoder encoder;
  bgp::put_record(encoder, record);
  std::string bytes = encoder.take();
  std::int64_t edits = rng.uniform_int(1, 3);
  for (std::int64_t i = 0; i < edits && !bytes.empty(); ++i) {
    std::size_t pos = rng.index(bytes.size());
    switch (rng.uniform_int(0, 3)) {
      case 0:  // byte stomp
        bytes[pos] = static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 1:  // truncation
        bytes.resize(pos);
        break;
      case 2:  // NUL splice
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos), '\0');
        break;
      default:  // byte loss
        bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(pos));
        break;
    }
  }
  try {
    store::Decoder decoder(bytes);
    bgp::BgpRecord mangled = bgp::get_record(decoder);
    decoder.expect_done();
    return mangled;
  } catch (const store::StoreError&) {
    return std::nullopt;
  }
}

std::vector<bgp::BgpRecord> FaultInjector::on_bgp_record(
    const bgp::BgpRecord& record) {
  std::vector<bgp::BgpRecord> out;
  const std::int64_t window = window_of(record.time);
  const bool stream_blacked =
      collector_blacked(record.collector) || vp_blacked(record.vp);

  if (stream_blacked && blackout_active(window)) {
    ++stats_.bgp_blackout_dropped;
    obs::inc(obs_bgp_dropped_blackout_);
    if (tracer_ != nullptr && window != last_traced_blackout_window_) {
      last_traced_blackout_window_ = window;
      tracer_->instant("fault_blackout_active", "fault", window);
    }
    return out;
  }

  // Session re-establishment: when the blackout ends, every blacked-out
  // session comes back at roughly the same moment and dumps its last-known
  // table as a burst of duplicate announcements. The dump is triggered by
  // the first record (from any stream) past the blackout, so every
  // replayed table lands in the same window — the synchronized
  // re-establishment storm a collector restart produces, and the hard case
  // for the burst monitor's independent-VP quorum.
  if (plan_.session_reset_replay && plan_.blackout_windows > 0 &&
      !replay_done_ &&
      window >= plan_.blackout_start_window + plan_.blackout_windows) {
    replay_done_ = true;
    const std::int64_t replayed_before = stats_.bgp_replayed;
    for (const auto& [vp, routes] : last_routes_) {
      if (routes.empty()) continue;
      if (!vp_blacked(vp) &&
          !collector_blacked(routes.begin()->second.collector)) {
        continue;
      }
      for (const auto& [prefix, cached] : routes) {
        bgp::BgpRecord dup = cached;
        dup.time = record.time;
        dup.type = bgp::RecordType::kAnnouncement;
        out.push_back(std::move(dup));
        ++stats_.bgp_replayed;
        obs::inc(obs_bgp_replayed_);
      }
    }
    if (tracer_ != nullptr) {
      tracer_->instant("fault_replay_storm", "fault", window, "records",
                       stats_.bgp_replayed - replayed_before);
    }
  }

  Rng& rng = bgp_stream(record.vp);
  if (plan_.drop_rate > 0.0 && rng.bernoulli(plan_.drop_rate)) {
    ++stats_.bgp_dropped;
    obs::inc(obs_bgp_dropped_loss_);
    return out;
  }

  bgp::BgpRecord current = record;
  if (plan_.corrupt_rate > 0.0 && rng.bernoulli(plan_.corrupt_rate)) {
    auto mangled = corrupt(current, rng);
    if (!mangled) {
      ++stats_.bgp_corrupt_dropped;
      obs::inc(obs_bgp_dropped_corrupt_);
      return out;
    }
    ++stats_.bgp_corrupted;
    obs::inc(obs_bgp_corrupted_);
    current = std::move(*mangled);
  }

  if (plan_.reorder_rate > 0.0 && plan_.reorder_max_seconds > 0 &&
      rng.bernoulli(plan_.reorder_rate)) {
    std::int64_t jitter =
        rng.uniform_int(-plan_.reorder_max_seconds, plan_.reorder_max_seconds);
    std::int64_t jittered =
        std::max<std::int64_t>(0, current.time.seconds() + jitter);
    if (jittered != current.time.seconds()) {
      current.time = TimePoint(jittered);
      ++stats_.bgp_reordered;
      obs::inc(obs_bgp_reordered_);
    }
  }

  remember(current);

  std::int64_t copies = 0;
  if (plan_.duplicate_rate > 0.0 && rng.bernoulli(plan_.duplicate_rate)) {
    copies = rng.uniform_int(
        1, std::max<std::int64_t>(1, plan_.duplicate_burst_max));
  }
  out.push_back(current);
  for (std::int64_t i = 0; i < copies; ++i) {
    out.push_back(current);
    ++stats_.bgp_duplicated;
    obs::inc(obs_bgp_duplicated_);
  }
  return out;
}

std::optional<tr::Traceroute> FaultInjector::on_public_trace(
    const tr::Traceroute& trace) {
  if (probe_blacked(trace.probe) && blackout_active(window_of(trace.time))) {
    ++stats_.trace_blackout_dropped;
    obs::inc(obs_trace_dropped_blackout_);
    return std::nullopt;
  }
  if (plan_.trace_drop_rate > 0.0 &&
      trace_stream(trace.probe).bernoulli(plan_.trace_drop_rate)) {
    ++stats_.trace_dropped;
    obs::inc(obs_trace_dropped_loss_);
    return std::nullopt;
  }
  return trace;
}

}  // namespace rrr::fault
