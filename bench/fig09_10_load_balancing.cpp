// Figures 9 & 10 — impact of load balancing (§5.4): number of staleness
// prediction signals and their precision, for path segments that cross
// interdomain load-balancer diamonds versus segments that do not.
//
// Paper reference: signal *counts* are similar for the two groups (slightly
// more for non-LB segments); precision is lower on diamonds (median 68% vs
// 84%) — load balancers sometimes trick the techniques.
//
// Flags: --days N --pairs N --seed N
#include "bench_common.h"
#include "eval/metrics.h"

int main(int argc, char** argv) {
  using namespace rrr;
  const bench::Flags flags(argc, argv,
                           {bench::kWorldFlags, bench::kOutputFlags,
                            bench::kFeedFaultFlags});
  eval::WorldParams params = bench::retrospective_params(flags);
  // More diamonds than the default world so the LB group is populated.
  params.topology.interdomain_diamond_prob = 0.15;
  params.topology.lb_as_prob = 0.35;

  eval::print_banner(std::cout, "Figures 9-10",
                     "signals and precision on load-balanced segments",
                     "similar #signals per segment for LB vs non-LB; "
                     "precision median ~68% on diamonds vs ~84% off them");

  eval::World world(params);
  std::vector<signals::StalenessSignal> all_signals;
  eval::World::Hooks hooks;
  hooks.on_signals = [&](std::int64_t, TimePoint,
                         std::vector<signals::StalenessSignal>&& sigs) {
    for (auto& s : sigs) all_signals.push_back(std::move(s));
  };
  world.run_until(world.corpus_t0(), hooks);
  std::size_t pairs = world.initialize_corpus();
  world.run_until(world.end(), hooks);

  eval::StalenessOracle oracle;
  oracle.ground_truth = &world.ground_truth();
  oracle.corpus_t0 = world.corpus_t0();
  oracle.refresh_times = world.recalibration_times();

  // Classify every monitored (pair, border) by whether its initial
  // crossing sits on an ECMP interconnect group (an interdomain diamond).
  const topo::Topology& topology = world.topology();
  auto is_lb = [&](const tr::PairKey& pair, std::size_t border) {
    const auto& initial = world.ground_truth().initial(pair);
    if (border >= initial.crossings.size()) return false;
    return topology.interconnect_at(initial.crossings[border].interconnect)
               .ecmp_group >= 0;
  };

  // Signals and precision per (pair, border) segment.
  struct SegmentTally {
    int signals = 0;
    int correct = 0;
    bool lb = false;
  };
  std::map<std::pair<tr::PairKey, std::size_t>, SegmentTally> tallies;
  std::size_t lb_segments = 0, total_segments = 0;
  for (const tr::PairKey& pair : world.ground_truth().pairs()) {
    const auto& initial = world.ground_truth().initial(pair);
    for (std::size_t b = 0; b < initial.crossings.size(); ++b) {
      SegmentTally tally;
      tally.lb = is_lb(pair, b);
      if (tally.lb) ++lb_segments;
      ++total_segments;
      tallies[{pair, b}] = tally;
    }
  }
  for (const auto& signal : all_signals) {
    if (!is_bgp_technique(signal.technique) &&
        signal.border_index != signals::kWholePath) {
      auto it = tallies.find({signal.pair, signal.border_index});
      if (it == tallies.end()) continue;
      ++it->second.signals;
      if (oracle.stale(signal.pair, signal.time)) ++it->second.correct;
    }
  }

  std::cout << "corpus: " << pairs << " pairs, " << total_segments
            << " interdomain segments (" << lb_segments
            << " crossing diamonds)\n\n";

  eval::Cdf lb_signals, nonlb_signals, lb_precision, nonlb_precision;
  std::size_t lb_with_signals = 0, nonlb_with_signals = 0;
  for (const auto& [key, tally] : tallies) {
    (tally.lb ? lb_signals : nonlb_signals).add(tally.signals);
    if (tally.signals > 0) {
      (tally.lb ? lb_precision : nonlb_precision)
          .add(static_cast<double>(tally.correct) / tally.signals);
      ++(tally.lb ? lb_with_signals : nonlb_with_signals);
    }
  }

  std::cout << "Figure 9 — signals per interdomain segment:\n";
  eval::print_cdf(std::cout, "  load-balanced ", lb_signals);
  eval::print_cdf(std::cout, "  non-balanced  ", nonlb_signals);
  std::cout << "  segments with any signal: LB "
            << eval::TableWriter::fmt_pct(
                   lb_segments
                       ? double(lb_with_signals) / double(lb_segments)
                       : 0)
            << ", non-LB "
            << eval::TableWriter::fmt_pct(
                   total_segments - lb_segments
                       ? double(nonlb_with_signals) /
                             double(total_segments - lb_segments)
                       : 0)
            << " (paper: 9.8% of diamonds vs 7.1% of non-LB)\n";

  std::cout << "\nFigure 10 — precision per segment with signals:\n";
  eval::print_cdf(std::cout, "  load-balanced ", lb_precision);
  eval::print_cdf(std::cout, "  non-balanced  ", nonlb_precision);
  std::cout << "  medians: LB "
            << eval::TableWriter::fmt(lb_precision.median())
            << " vs non-LB "
            << eval::TableWriter::fmt(nonlb_precision.median())
            << " (paper: 0.68 vs 0.84)\n";
  bench::RunStats stats =
      bench::capture_stats("seed " + std::to_string(params.seed), world);
  bench::maybe_write_trace(flags, stats.trace, std::cout);
  bench::write_stats_json(bench::stats_json_path(flags), {stats}, std::cout);
  return 0;
}
