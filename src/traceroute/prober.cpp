#include "traceroute/prober.h"

#include <sstream>

#include "topology/city.h"

namespace rrr::tr {

std::string Traceroute::to_string() const {
  std::ostringstream out;
  out << "traceroute #" << id << " " << src_ip.to_string() << " -> "
      << dst_ip.to_string() << " @ " << time.to_string() << "\n";
  int ttl = 1;
  for (const Hop& hop : hops) {
    out << "  " << ttl++ << "  ";
    if (hop.responded()) {
      char rtt[32];
      std::snprintf(rtt, sizeof rtt, "%.2f ms", hop.rtt_ms);
      out << hop.ip->to_string() << "  " << rtt;
    } else {
      out << "*";
    }
    out << "\n";
  }
  if (!reached) out << "  (destination unreached)\n";
  return out.str();
}

bool Prober::router_is_silent(topo::RouterId router) const {
  // Deterministic per (router, seed): silent routers stay silent.
  std::uint64_t h = hash_combine(params_.seed, 0x51137ull + router);
  return (h % 10000) < static_cast<std::uint64_t>(
                           params_.silent_router_fraction * 10000);
}

Traceroute Prober::measure(const Probe& probe, Ipv4 dst_ip, TimePoint t,
                           std::uint64_t flow_id) {
  Traceroute trace;
  trace.id = ++issued_;
  trace.probe = probe.id;
  trace.src_ip = probe.ip;
  trace.dst_ip = dst_ip;
  trace.time = t;
  trace.flow_id = flow_id;

  routing::ForwardPath& path = path_;
  cp_.resolver().resolve(probe.as, probe.city, dst_ip, flow_id,
                         /*with_ip_hops=*/true, path);
  if (!path.reachable) return trace;

  // Per-measurement randomness that does not depend on call order.
  Rng rng(hash_combine(
      hash_combine(params_.seed, probe.id),
      hash_combine(dst_ip.value(),
                   hash_combine(static_cast<std::uint64_t>(t.seconds()),
                                flow_id))));

  const topo::Topology& topology = cp_.topology();
  // The destination host sits in its origin AS's primary PoP; the path
  // ends at that origin.
  const topo::CityId dst_city = cp_.resolver().host_city(path.as_path.back());
  trace.hops.reserve(path.hops.size());
  double cumulative_km = 0.0;
  topo::CityId previous_city = probe.city;
  for (std::size_t i = 0; i < path.hops.size(); ++i) {
    bool is_destination = i + 1 == path.hops.size();
    topo::RouterId router = path.hop_routers[i];
    topo::CityId hop_city = router == topo::kNoRouter
                                ? dst_city
                                : topology.router_at(router).city;
    cumulative_km += topo::city_distance_km(previous_city, hop_city);
    previous_city = hop_city;
    // Base propagation RTT plus per-hop queueing jitter; a small floor so
    // that same-city hops still show sub-millisecond latency.
    double base_rtt = 2.0 * cumulative_km / 200.0 + 0.2;
    double rtt =
        base_rtt * (1.0 + params_.rtt_jitter_fraction * rng.uniform());

    Hop hop;
    bool silent = router != topo::kNoRouter && router_is_silent(router);
    bool lost = rng.bernoulli(params_.intermittent_loss_prob);
    bool filtered = is_destination &&
                    rng.bernoulli(params_.unresponsive_destination_prob);
    if (!silent && !lost && !filtered) {
      hop.ip = path.hops[i];
      hop.rtt_ms = rtt;
    }
    trace.hops.push_back(hop);
    if (is_destination) trace.reached = hop.responded();
  }
  return trace;
}

}  // namespace rrr::tr
