// Figures 14 & 15 (Appendix C) — why coverage is high: border IPs are
// shared across many AS pairs (fig 14), and border IPs involved in changes
// appear on more paths than those that never change (fig 15).
//
// Paper reference: ~60% of border IPs serve >10 AS pairs, 40% serve >30;
// over 80% of change-involved border IPs are covered by >=10 paths while
// only 40% of all border IPs are.
//
// Flags: --days N --pairs N --seed N
#include <map>
#include <set>

#include "bench_common.h"
#include "eval/metrics.h"

int main(int argc, char** argv) {
  using namespace rrr;
  const bench::Flags flags(argc, argv,
                           {bench::kWorldFlags, bench::kOutputFlags,
                            bench::kFeedFaultFlags});
  eval::WorldParams params = bench::retrospective_params(flags);
  params.days = static_cast<int>(flags.get_int("days", 10));

  eval::print_banner(std::cout, "Figures 14-15",
                     "border-IP sharing across AS pairs and paths",
                     "60% of border IPs used by >10 AS pairs; changed "
                     "border IPs appear on more paths");

  eval::World world(params);
  world.run_until(world.corpus_t0());
  std::size_t pairs = world.initialize_corpus();
  world.run_until(world.end());
  std::cout << "corpus: " << pairs << " pairs\n\n";

  const topo::Topology& topology = world.topology();

  // Fig 14: for each border IP (the ingress interface revealed at each
  // crossing), the number of distinct adjacent AS pairs using it; and
  // fig 15: the number of corpus paths through it.
  std::map<Ipv4, std::set<std::pair<Asn, Asn>>> as_pairs_of;
  std::map<Ipv4, std::set<tr::PairKey>> paths_of;
  for (const tr::PairKey& pair : world.ground_truth().pairs()) {
    const auto& path = world.ground_truth().initial(pair);
    for (const auto& crossing : path.crossings) {
      const topo::Interconnect& ic =
          topology.interconnect_at(crossing.interconnect);
      Ipv4 border_ip = crossing.forward ? ic.ip_b : ic.ip_a;
      Asn a = topology.as_at(crossing.from_as).asn;
      Asn b = topology.as_at(crossing.to_as).asn;
      as_pairs_of[border_ip].insert({std::min(a, b), std::max(a, b)});
      paths_of[border_ip].insert(pair);
    }
  }
  // Border routers serve many links: count AS pairs per *router* too, the
  // paper's observation driver (routers at IXPs and colos).
  std::map<topo::RouterId, std::set<std::pair<Asn, Asn>>> as_pairs_of_router;
  for (const auto& [ip, as_pairs] : as_pairs_of) {
    topo::RouterId router = topology.router_of_interface(ip);
    if (router == topo::kNoRouter) continue;
    as_pairs_of_router[router].insert(as_pairs.begin(), as_pairs.end());
  }

  eval::Cdf per_ip, per_router;
  for (const auto& [ip, set] : as_pairs_of) per_ip.add(double(set.size()));
  for (const auto& [router, set] : as_pairs_of_router) {
    per_router.add(double(set.size()));
  }
  std::cout << "Figure 14 — AS pairs sharing a border element:\n";
  eval::print_cdf(std::cout, "  per border IP    ", per_ip);
  eval::print_cdf(std::cout, "  per border router", per_router);
  std::cout << "  border routers with >10 AS pairs: "
            << eval::TableWriter::fmt_pct(
                   1.0 - per_router.fraction_at_most(10.0))
            << " (paper: ~60% of border IPs)\n";

  // Fig 15: paths per border IP, split by change involvement.
  std::set<Ipv4> changed_ips;
  for (const auto& change : world.ground_truth().changes()) {
    // The crossing that changed: border IPs of both old and new states are
    // "involved"; approximate with the pair's current path crossing.
    const auto& current = world.ground_truth().current(change.pair);
    if (change.changed_crossing >= 0 &&
        static_cast<std::size_t>(change.changed_crossing) <
            current.crossings.size()) {
      const auto& crossing =
          current.crossings[static_cast<std::size_t>(change.changed_crossing)];
      const topo::Interconnect& ic =
          topology.interconnect_at(crossing.interconnect);
      changed_ips.insert(crossing.forward ? ic.ip_b : ic.ip_a);
    }
  }
  eval::Cdf paths_changed, paths_unchanged;
  for (const auto& [ip, path_set] : paths_of) {
    (changed_ips.contains(ip) ? paths_changed : paths_unchanged)
        .add(double(path_set.size()));
  }
  std::cout << "\nFigure 15 — corpus paths per border IP:\n";
  eval::print_cdf(std::cout, "  involved in changes", paths_changed);
  eval::print_cdf(std::cout, "  never changed      ", paths_unchanged);
  std::cout << "  >=10 paths: changed "
            << eval::TableWriter::fmt_pct(
                   1.0 - paths_changed.fraction_at_most(9.0))
            << " vs unchanged "
            << eval::TableWriter::fmt_pct(
                   1.0 - paths_unchanged.fraction_at_most(9.0))
            << " (paper: >80% vs ~40%)\n";
  bench::RunStats stats =
      bench::capture_stats("seed " + std::to_string(params.seed), world);
  bench::maybe_write_trace(flags, stats.trace, std::cout);
  bench::write_stats_json(bench::stats_json_path(flags), {stats}, std::cout);
  return 0;
}
