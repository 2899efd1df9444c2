// Figure 12 — validation of the geolocation technique (Appendix A): compare
// our per-IP locations against three reference databases of differing
// quality, as the paper does against OpenIPMap, a router-specific
// commercial database, and a general-purpose one.
//
// Paper reference: 93% exact match vs the crowd-sourced data (96% <100 km,
// 98% <500 km); 75% exact vs the router-specific database (90% <500 km);
// 60% exact vs the general-purpose database (82% <500 km).
//
// Flags: --seed N
#include "bench_common.h"
#include "netbase/rng.h"
#include "tracemap/geolocate.h"
#include "topology/city.h"

namespace {

using namespace rrr;

// A synthetic reference database: covers a fraction of router interfaces;
// correct entries report the true city, erroneous ones a different city of
// the same AS (or a random one).
struct ReferenceDb {
  const char* name;
  double coverage;
  double accuracy;
  const char* paper_note;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rrr;
  constexpr std::string_view kOwnFlags[] = {"seed"};
  const bench::Flags flags(argc, argv, {kOwnFlags});
  std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  eval::print_banner(std::cout, "Figure 12",
                     "geolocation validation against reference databases",
                     "93% exact vs crowd-sourced, 75% vs router-specific, "
                     "60% vs general-purpose");

  topo::TopologyParams tp;
  tp.seed = seed;
  topo::Topology topology = topo::build_topology(tp);
  tracemap::GeoParams gp;
  gp.seed = seed + 1;
  tracemap::Geolocator geolocator(topology, gp);

  const ReferenceDb dbs[] = {
      {"crowd-sourced (OpenIPMap-like)", 0.10, 0.97, "93% exact"},
      {"router-specific commercial", 0.45, 0.82, "75% exact"},
      {"general-purpose commercial", 1.00, 0.66, "60% exact"},
  };

  eval::TableWriter table({"database", "overlap", "exact", "<100km",
                           "<500km", "paper exact"});
  for (const ReferenceDb& db : dbs) {
    Rng rng(Rng(seed + 7).fork(static_cast<std::uint64_t>(db.coverage * 100)));
    std::int64_t overlap = 0, exact = 0, within100 = 0, within500 = 0;
    for (const topo::Router& router : topology.routers()) {
      for (Ipv4 ip : router.interfaces) {
        auto ours = geolocator.locate(ip);
        if (!ours) continue;
        if (!rng.bernoulli(db.coverage)) continue;
        // Reference database entry for this interface.
        topo::CityId reference = router.city;
        if (!rng.bernoulli(db.accuracy)) {
          const topo::AsNode& owner = topology.as_at(router.owner);
          reference = owner.pops.size() > 1
                          ? owner.pops[rng.index(owner.pops.size())]
                          : static_cast<topo::CityId>(
                                rng.index(topo::city_count()));
        }
        ++overlap;
        double km = topo::city_distance_km(*ours, reference);
        if (*ours == reference) ++exact;
        if (km < 100.0) ++within100;
        if (km < 500.0) ++within500;
      }
    }
    auto pct = [&](std::int64_t n) {
      return eval::TableWriter::fmt_pct(
          overlap ? double(n) / double(overlap) : 0);
    };
    table.add_row({db.name, eval::TableWriter::fmt_int(overlap), pct(exact),
                   pct(within100), pct(within500), db.paper_note});
  }
  table.print(std::cout);

  // Coverage of the technique itself (paper: located 82% of border IPs).
  std::int64_t total = 0, located = 0;
  for (const topo::Router& router : topology.routers()) {
    if (!router.is_border) continue;
    for (Ipv4 ip : router.interfaces) {
      ++total;
      if (geolocator.locate(ip)) ++located;
    }
  }
  std::cout << "\nborder interfaces located: "
            << eval::TableWriter::fmt_pct(total ? double(located) / total : 0)
            << " (paper: 82%)\n";
  return 0;
}
