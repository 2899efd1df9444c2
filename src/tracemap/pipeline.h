// Convenience bundle wiring the whole Appendix-A processing pipeline
// together from the public-data equivalents an experiment has available.
#pragma once

#include <cstdint>
#include <memory>

#include "topology/builder.h"
#include "tracemap/alias.h"
#include "tracemap/geolocate.h"
#include "tracemap/ip2as.h"
#include "tracemap/patch.h"
#include "tracemap/processed.h"

namespace rrr::tracemap {

struct PipelineParams {
  // Fraction of IXP interface assignments present in the PeeringDB-like
  // dump (unknown IXP interfaces stay unmapped).
  double ixp_interface_coverage = 0.85;
  AliasParams alias;
  GeoParams geo;
  std::uint64_t seed = 29;
};

// Builds the IP-to-AS mapper from announced prefixes (what collector RIBs
// carry) plus IXP LAN/interface data (what a PeeringDB dump carries).
Ip2As build_ip2as(const topo::Topology& topology,
                  double ixp_interface_coverage, std::uint64_t seed);

// Owns the IP-to-AS mapper, the hop patcher and a TraceProcessor bound to
// them. The alias resolver and the geolocator are built for the processor's
// constructor only: it keeps their answers, not them.
class ProcessingContext {
 public:
  ProcessingContext(const topo::Topology& topology,
                    const PipelineParams& params)
      : ip2as_(build_ip2as(topology, params.ixp_interface_coverage,
                           params.seed)),
        processor_(topology, ip2as_, AliasResolver(topology, params.alias),
                   Geolocator(topology, params.geo), patcher_) {}

  HopPatcher& patcher() { return patcher_; }

  // Learns patch triples from a measurement, then processes it.
  ProcessedTrace ingest(const tr::Traceroute& trace) {
    patcher_.observe(trace);
    return processor_.process(trace);
  }
  // The same, into a caller's reused `out` (TraceProcessor::process).
  void ingest(const tr::Traceroute& trace, ProcessedTrace& out) {
    patcher_.observe(trace);
    processor_.process(trace, out);
  }
  // Processes without learning (e.g. replaying archived data).
  ProcessedTrace process(const tr::Traceroute& trace) const {
    return processor_.process(trace);
  }

 private:
  Ip2As ip2as_;
  HopPatcher patcher_;
  TraceProcessor processor_;
};

}  // namespace rrr::tracemap
