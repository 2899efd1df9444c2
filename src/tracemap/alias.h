// Alias resolution (Appendix A): grouping interface addresses into routers,
// modeled on MIDAR.
//
// Built from the simulator's ground truth with configurable incompleteness
// (MIDAR misses aliases for unresponsive or rate-limited routers), so the
// downstream border-router abstraction sees the same imperfections a real
// pipeline does. Unresolved interfaces become singleton routers keyed by
// their own address.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "netbase/ipv4.h"
#include "netbase/rng.h"
#include "topology/topology.h"

namespace rrr::tracemap {

// An inference-side router identity: either a resolved alias-set id or a
// singleton keyed by interface address.
struct RouterKey {
  // Resolved alias sets get (kResolvedBit | set id); singletons the IP value.
  std::uint64_t value = 0;

  static constexpr std::uint64_t kResolvedBit = 1ull << 40;

  bool resolved() const { return (value & kResolvedBit) != 0; }
  auto operator<=>(const RouterKey&) const = default;
};

struct AliasParams {
  // Probability an interface is covered by the alias-resolution campaign.
  double coverage = 0.85;
  std::uint64_t seed = 17;
};

class AliasResolver {
 public:
  AliasResolver(const topo::Topology& topology, const AliasParams& params);

  // The router key for `ip` (never fails: unresolved => singleton).
  RouterKey resolve(Ipv4 ip) const;

 private:
  std::unordered_map<Ipv4, std::uint64_t> resolved_;  // ip -> alias-set id
};

}  // namespace rrr::tracemap

template <>
struct std::hash<rrr::tracemap::RouterKey> {
  std::size_t operator()(const rrr::tracemap::RouterKey& key) const noexcept {
    return static_cast<std::size_t>(key.value * 0x9E3779B97F4A7C15ULL);
  }
};
