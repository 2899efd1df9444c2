// Post-run probes of the layers World::run_until reaches only internally:
// traceroute issue, tracemap processing, engine ingest, routing and the BGP
// feed, and in-process /v1 handling. They run on the traced world after its
// timed phase, because they mutate it, and time one public call at a time.
#include <algorithm>

#include "routing/events.h"
#include "runner.h"
#include "serve/service.h"

namespace perfbench {
namespace {

// Probe size: traces spread over every public probe, public destination and
// Paris flow variant the public feed draws from (the same working set, so
// the prober's and tracemap's caches see the run's access pattern), and one
// simulated day of routing events. The traces come in two halves with
// disjoint flow variants: the tracemap probes ingest the first, the engine
// the second, so neither ingest is timed on a trace the other just saw.
constexpr std::size_t kProbeTraces = 4096;  // per half
constexpr int kFlowVariants = 16;
constexpr int kHandleRounds = 100;

double us_between(Clock::time_point begin, Clock::time_point end) {
  return ms_between(begin, end) * 1e3;
}

}  // namespace

LayerProbes run_probes(rrr::eval::World& world,
                       const rrr::serve::StalenessService* service,
                       const std::vector<std::string>& targets,
                       SpanLog& spans) {
  LayerProbes out;
  const rrr::TimePoint now =
      world.start() + world.completed_windows() * world.window_seconds();

  // traceroute: Platform::issue.
  std::vector<rrr::tr::Traceroute> traces;
  {
    ScopedSpan span(spans, "probe_traceroute");
    std::vector<rrr::tr::ProbeId> sources;
    for (rrr::tr::ProbeId id : world.public_probes()) {
      if (world.platform().probe(id).active) sources.push_back(id);
    }
    const std::vector<rrr::Ipv4>& dests = world.public_dests();
    double issue_us = 0.0;
    std::int64_t hops = 0;
    constexpr int kHalfVariants = kFlowVariants / 2;
    for (std::size_t i = 0; i < 2 * kProbeTraces && !sources.empty() &&
                            !dests.empty();
         ++i) {
      // Co-prime strides walk the whole (probe, destination) space.
      const rrr::tr::ProbeId probe = sources[(i * 7919) % sources.size()];
      const rrr::Ipv4 dst = dests[(i * 104729) % dests.size()];
      const int half = i < kProbeTraces ? 0 : 1;
      const int variant =
          half * kHalfVariants + static_cast<int>(i % kHalfVariants);
      const Clock::time_point t0 = Clock::now();
      rrr::tr::Traceroute trace = world.platform().issue(probe, dst, now,
                                                         variant);
      issue_us += us_between(t0, Clock::now());
      hops += static_cast<std::int64_t>(trace.hops.size());
      traces.push_back(std::move(trace));
    }
    out.traces = static_cast<std::int64_t>(traces.size());
    if (!traces.empty()) {
      out.issue_us = issue_us / static_cast<double>(traces.size());
      out.hops_per_trace =
          static_cast<double>(hops) / static_cast<double>(traces.size());
    }
  }

  // tracemap: ProcessingContext::ingest (patcher observe + process) and
  // process alone, on the first half.
  if (traces.size() == 2 * kProbeTraces) {
    ScopedSpan span(spans, "probe_tracemap");
    double ingest_us = 0.0;
    double process_us = 0.0;
    for (std::size_t i = 0; i < kProbeTraces; ++i) {
      Clock::time_point t0 = Clock::now();
      (void)world.processing().ingest(traces[i]);
      ingest_us += us_between(t0, Clock::now());
      t0 = Clock::now();
      (void)world.processing().process(traces[i]);
      process_us += us_between(t0, Clock::now());
    }
    out.tracemap_ingest_us = ingest_us / kProbeTraces;
    out.tracemap_process_us = process_us / kProbeTraces;
  }

  // signals: the engine's whole public-trace ingest, on the second half.
  if (traces.size() == 2 * kProbeTraces) {
    ScopedSpan span(spans, "probe_engine_ingest");
    double engine_us = 0.0;
    for (std::size_t i = kProbeTraces; i < traces.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      world.engine().on_public_trace(traces[i]);
      engine_us += us_between(t0, Clock::now());
    }
    out.engine_public_trace_us = engine_us / kProbeTraces;
  }

  // routing and bgp: one day of events past the world's end, applied to
  // the control plane and fed through the BGP feed into the engine.
  {
    ScopedSpan span(spans, "probe_routing");
    std::vector<rrr::topo::AsIndex> origins;
    for (rrr::Ipv4 dst : world.corpus_dests()) {
      const rrr::topo::AsIndex as = world.topology().announced_owner_of(dst);
      if (as != rrr::topo::kNoAs) origins.push_back(as);
    }
    std::sort(origins.begin(), origins.end());
    origins.erase(std::unique(origins.begin(), origins.end()), origins.end());
    std::vector<rrr::topo::AsIndex> vp_ases;
    for (const rrr::bgp::VantagePoint& vp : world.feed().vantage_points()) {
      vp_ases.push_back(vp.as_index);
    }
    const std::vector<rrr::routing::Event> events =
        rrr::routing::generate_schedule(
            world.topology(), world.params().dynamics, world.end(),
            world.end() + rrr::kSecondsPerDay, origins, vp_ases,
            world.params().seed ^ 0x9E3779B97F4A7C15ull);
    double apply_us = 0.0;
    double on_event_us = 0.0;
    double record_us = 0.0;
    std::int64_t records = 0;
    for (const rrr::routing::Event& event : events) {
      Clock::time_point t0 = Clock::now();
      const rrr::routing::ControlPlane::Impact impact =
          world.control_plane().apply(event);
      apply_us += us_between(t0, Clock::now());
      t0 = Clock::now();
      const std::vector<rrr::bgp::BgpRecord> produced =
          world.feed().on_event(event, impact);
      on_event_us += us_between(t0, Clock::now());
      for (const rrr::bgp::BgpRecord& record : produced) {
        t0 = Clock::now();
        world.engine().on_bgp_record(record);
        record_us += us_between(t0, Clock::now());
      }
      records += static_cast<std::int64_t>(produced.size());
    }
    out.routing_events = static_cast<std::int64_t>(events.size());
    if (!events.empty()) {
      const double n = static_cast<double>(events.size());
      out.routing_apply_us = apply_us / n;
      out.bgp_on_event_us = on_event_us / n;
      out.bgp_records_per_event = static_cast<double>(records) / n;
    }
    if (records > 0) {
      out.engine_bgp_record_us = record_us / static_cast<double>(records);
    }
  }

  // serve: in-process StalenessService::handle over the /v1 targets.
  if (service != nullptr && !targets.empty()) {
    ScopedSpan span(spans, "probe_serve");
    double handle_us = 0.0;
    std::int64_t calls = 0;
    for (int round = 0; round < kHandleRounds; ++round) {
      for (const std::string& target : targets) {
        const Clock::time_point t0 = Clock::now();
        (void)service->handle(target);
        handle_us += us_between(t0, Clock::now());
        ++calls;
      }
    }
    out.serve_handle_us = handle_us / static_cast<double>(calls);
  }
  return out;
}

}  // namespace perfbench
