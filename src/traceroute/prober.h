// Turns resolved forwarding paths into traceroute measurements, including
// the artifacts real traceroutes suffer: unresponsive routers (persistent
// and intermittent), RTT accumulation with jitter, and unreached targets.
#pragma once

#include <cstdint>

#include "netbase/rng.h"
#include "routing/control_plane.h"
#include "traceroute/traceroute.h"

namespace rrr::tr {

struct ProberParams {
  // Fraction of routers that never answer TTL-expired probes.
  double silent_router_fraction = 0.03;
  // Per-probe drop probability on otherwise responsive routers.
  double intermittent_loss_prob = 0.02;
  // Probability the destination host filters probes (unreached trace).
  double unresponsive_destination_prob = 0.02;
  // RTT noise as a fraction of the propagation component.
  double rtt_jitter_fraction = 0.15;
  std::uint64_t seed = 11;
};

class Prober {
 public:
  Prober(routing::ControlPlane& control_plane, const ProberParams& params)
      : cp_(control_plane), params_(params) {}

  // Measures from `probe` toward `dst_ip` at time `t`. `flow_id`
  // determines every load-balancing decision (Paris semantics); the caller
  // varies it across measurements that should explore diamonds. Not
  // reentrant: it numbers traces and resolves into one kept path.
  Traceroute measure(const Probe& probe, Ipv4 dst_ip, TimePoint t,
                     std::uint64_t flow_id);

  // Whether a router persistently ignores traceroute probes (deterministic
  // per router; exposed so tests can find silent routers).
  bool router_is_silent(topo::RouterId router) const;

 private:
  routing::ControlPlane& cp_;
  ProberParams params_;
  std::uint64_t issued_ = 0;
  // The path being measured, resolved in place; it keeps its capacity, so
  // a measurement allocates only the returned trace's hops.
  routing::ForwardPath path_;
};

}  // namespace rrr::tr
