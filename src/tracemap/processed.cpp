#include "tracemap/processed.h"

#include <algorithm>

namespace rrr::tracemap {

ChangeKind classify_change(const ProcessedTrace& before,
                           const ProcessedTrace& after) {
  if (before.as_path != after.as_path) return ChangeKind::kAsLevel;
  if (before.border_router_path() != after.border_router_path()) {
    return ChangeKind::kBorderLevel;
  }
  return ChangeKind::kNone;
}

TraceProcessor::TraceProcessor(const topo::Topology& topology,
                               const Ip2As& ip2as,
                               const AliasResolver& aliases,
                               const Geolocator& geo,
                               const HopPatcher& patcher)
    : ip2as_(ip2as), patcher_(patcher) {
  for (const topo::Router& router : topology.routers()) {
    for (Ipv4 ip : router.interfaces) {
      annotations_.insert(AnnotationSlot{ip.value(), ip2as.map(ip),
                                         aliases.resolve(ip), geo.locate(ip),
                                         true});
    }
  }
}

ProcessedTrace TraceProcessor::process(const tr::Traceroute& trace) const {
  ProcessedTrace out;
  process(trace, out);
  return out;
}

void TraceProcessor::process(const tr::Traceroute& trace,
                             ProcessedTrace& out) const {
  out.trace_id = trace.id;
  out.probe = trace.probe;
  out.src_ip = trace.src_ip;
  out.dst_ip = trace.dst_ip;
  out.time = trace.time;
  out.reached = trace.reached;
  out.hops.clear();
  out.as_path.clear();
  out.has_as_loop = false;
  out.borders.clear();

  const std::vector<tr::Hop>& hops = trace.hops;
  out.hops.reserve(hops.size());
  for (std::size_t i = 0; i < hops.size(); ++i) {
    ProcessedHop& ph = out.hops.emplace_back();
    ph.ip = hops[i].ip;
    // A star flanked by responding hops takes the pair's unique middle.
    // The flanks are read from the raw trace: a patch at hop i-1 needs hop
    // i to have responded, so it never enables a patch at hop i.
    if (!ph.ip && i > 0 && i + 1 < hops.size() && hops[i - 1].responded() &&
        hops[i + 1].responded()) {
      ph.ip = patcher_.unique_middle(*hops[i - 1].ip, *hops[i + 1].ip);
    }
    if (!ph.ip) continue;
    const Ipv4 ip = *ph.ip;
    const AnnotationSlot* known = annotations_.find(ip.value());
    const AnnotationSlot annotation =
        known != nullptr ? *known
                         : AnnotationSlot{ip.value(), ip2as_.map(ip),
                                          RouterKey{ip.value()}, std::nullopt,
                                          true};
    ph.asn = annotation.mapped.asn;
    ph.is_ixp = annotation.mapped.is_ixp;
    ph.ixp = annotation.mapped.ixp;
    ph.router = annotation.router;
    ph.city = annotation.city;
  }

  // Merged AS path: collapse consecutive duplicates; bridge unmapped or
  // wildcard gaps between identical ASes (Appendix A). IXP hops with an
  // unknown member are treated as unmapped.
  Asn last_mapped;
  for (const ProcessedHop& hop : out.hops) {
    if (!hop.responded() || !hop.asn.is_valid()) continue;
    if (hop.asn != last_mapped) {
      out.as_path.push_back(hop.asn);
      last_mapped = hop.asn;
    }
  }
  // Loop check: an AS appearing twice non-consecutively after merging.
  for (auto at = out.as_path.begin(); at != out.as_path.end(); ++at) {
    if (std::find(out.as_path.begin(), at, *at) != at) {
      out.has_as_loop = true;
      break;
    }
  }
  if (out.has_as_loop) out.as_path.clear();

  // Border extraction: scan adjacent *mapped* hop pairs (skipping wildcards
  // and unmapped hops in between) for AS transitions.
  int prev = -1;
  for (std::size_t i = 0; i < out.hops.size(); ++i) {
    const ProcessedHop& hop = out.hops[i];
    if (!hop.responded() || !hop.asn.is_valid()) continue;
    if (prev >= 0) {
      const ProcessedHop& near = out.hops[static_cast<std::size_t>(prev)];
      if (near.asn != hop.asn) {
        BorderView border;
        border.near_index = static_cast<std::size_t>(prev);
        border.far_index = i;
        border.near_as = near.asn;
        border.far_as = hop.asn;
        border.near_ip = *near.ip;
        border.far_ip = *hop.ip;
        border.border_router = hop.router;
        border.via_ixp = hop.is_ixp || near.is_ixp;
        border.near_city = near.city;
        border.far_city = hop.city;
        out.borders.push_back(std::move(border));
      }
    }
    prev = static_cast<int>(i);
  }
}

}  // namespace rrr::tracemap
