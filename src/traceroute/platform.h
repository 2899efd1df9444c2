// The measurement platform: probes, anchors and churn, modeled on RIPE
// Atlas.
#pragma once

#include <cstdint>
#include <vector>

#include "netbase/rng.h"
#include "routing/control_plane.h"
#include "traceroute/prober.h"
#include "traceroute/traceroute.h"

namespace rrr::tr {

struct PlatformParams {
  int num_probes = 400;
  int num_anchors = 60;
  // Daily probe disappearance probability (the paper's "fresh, dead Probe"
  // category in Figure 11 comes from this churn).
  double probe_death_per_day = 0.004;
  std::uint64_t seed = 13;
};

class Platform {
 public:
  Platform(routing::ControlPlane& control_plane, const ProberParams& prober,
           const PlatformParams& params);

  const std::vector<Probe>& probes() const { return probes_; }
  const Probe& probe(ProbeId id) const { return probes_[id]; }
  // Ids of anchor probes (also the anchoring mesh's destinations).
  const std::vector<ProbeId>& anchors() const { return anchors_; }
  // Ids of non-anchor probes.
  const std::vector<ProbeId>& regular_probes() const { return regular_; }

  // Issues a traceroute; `flow_variant` selects among the source's Paris
  // flow identifiers (Atlas uses 16).
  Traceroute issue(ProbeId probe, Ipv4 dst, TimePoint t, int flow_variant);

  // Advances probe churn to `t`; returns probes that died in the interval.
  std::vector<ProbeId> advance_churn(TimePoint t);

  Prober& prober() { return prober_; }
  const routing::ControlPlane& control_plane() const { return cp_; }

 private:
  routing::ControlPlane& cp_;
  Prober prober_;
  PlatformParams params_;
  Rng rng_;
  std::vector<Probe> probes_;
  std::vector<ProbeId> anchors_;
  std::vector<ProbeId> regular_;
  TimePoint churn_clock_;
};

}  // namespace rrr::tr
