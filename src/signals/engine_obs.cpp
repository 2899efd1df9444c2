#include "signals/engine_obs.h"

namespace rrr::signals {

const char* technique_label(Technique technique) {
  switch (technique) {
    case Technique::kBgpAsPath: return "aspath";
    case Technique::kBgpCommunity: return "community";
    case Technique::kBgpBurst: return "burst";
    case Technique::kColocation: return "colocation";
    case Technique::kTraceSubpath: return "subpath";
    case Technique::kTraceBorder: return "border";
  }
  return "?";
}

EngineObs EngineObs::create(obs::MetricsRegistry& registry) {
  EngineObs out;
  constexpr Technique kAll[] = {
      Technique::kBgpAsPath,    Technique::kBgpCommunity,
      Technique::kBgpBurst,     Technique::kColocation,
      Technique::kTraceSubpath, Technique::kTraceBorder,
  };
  for (Technique t : kAll) {
    obs::LabelList labels{{"technique", technique_label(t)}};
    std::size_t i = technique_index(t);
    out.signals_emitted[i] = &registry.counter(
        "rrr_signals_emitted_total", labels, obs::Domain::kSemantic,
        "Staleness signals registered (post cooldown/refresh filters)");
    out.potentials_opened[i] = &registry.counter(
        "rrr_potentials_opened_total", labels, obs::Domain::kSemantic,
        "Potential signals created by watch()/refresh registration");
    out.dropped_unhealthy_feed[i] = &registry.counter(
        "rrr_signals_dropped_unhealthy_feed_total", labels,
        obs::Domain::kSemantic,
        "Signals suppressed because their feed streams were quarantined");
    out.monitors[i].close_us = &registry.histogram(
        "rrr_monitor_close_us", obs::duration_buckets_us(), labels,
        obs::Domain::kRuntime, "Wall microseconds per monitor close_window");
    out.monitors[i].close_items = &registry.histogram(
        "rrr_monitor_close_items", obs::size_buckets(), labels,
        obs::Domain::kRuntime, "Work-list size drained per close_window");
  }
  out.signals_suppressed_cooldown = &registry.counter(
      "rrr_signals_suppressed_cooldown_total", {}, obs::Domain::kSemantic,
      "Raw signals suppressed by the per-potential cooldown");
  out.signals_dropped_refreshed = &registry.counter(
      "rrr_signals_dropped_refreshed_total", {}, obs::Domain::kSemantic,
      "Raw signals dropped because their pair was refreshed mid-window");
  out.calibration_frozen = &registry.counter(
      "rrr_calibration_frozen_total", {}, obs::Domain::kSemantic,
      "Refresh gradings skipped while the pair's probe was quarantined");
  out.revocations =
      &registry.counter("rrr_revocations_total", {}, obs::Domain::kSemantic,
                        "Stale flags revoked by the section-4.3.2 sweep");
  out.refreshes =
      &registry.counter("rrr_refreshes_total", {}, obs::Domain::kSemantic,
                        "Refresh measurements applied");
  out.refreshes_changed = &registry.counter(
      "rrr_refreshes_changed_total", {}, obs::Domain::kSemantic,
      "Refreshes whose new measurement differed from the corpus one");
  out.bgp_records_absorbed = &registry.counter(
      "rrr_bgp_records_absorbed_total", {}, obs::Domain::kSemantic,
      "BGP update records absorbed into the standing table");
  out.window_close_us = &registry.histogram(
      "rrr_engine_window_close_us", obs::duration_buckets_us(), {},
      obs::Domain::kRuntime, "Wall microseconds per closed window");
  out.dispatch_us = &registry.histogram(
      "rrr_engine_dispatch_us", obs::duration_buckets_us(), {},
      obs::Domain::kRuntime,
      "Wall microseconds normalizing+dispatching a window's BGP records");
  out.absorb_us = &registry.histogram(
      "rrr_engine_absorb_us", obs::duration_buckets_us(), {},
      obs::Domain::kRuntime,
      "Wall microseconds absorbing a window's records into the table");
  out.merge_us = &registry.histogram(
      "rrr_engine_merge_us", obs::duration_buckets_us(), {},
      obs::Domain::kRuntime,
      "Wall microseconds merging shard batches into canonical order");
  out.register_us = &registry.histogram(
      "rrr_engine_register_us", obs::duration_buckets_us(), {},
      obs::Domain::kRuntime,
      "Wall microseconds registering the merged batch (serial section)");
  return out;
}

}  // namespace rrr::signals
