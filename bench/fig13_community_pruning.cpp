// Figure 13 (Appendix B) — the number of BGP communities generating
// false-positive signals per day decreases as calibration learns and prunes
// communities unrelated to path changes.
//
// Flags: --days N --pairs N --seed N
#include <set>

#include "bench_common.h"
#include "eval/metrics.h"

int main(int argc, char** argv) {
  using namespace rrr;
  const bench::Flags flags(argc, argv,
                           {bench::kWorldFlags, bench::kOutputFlags,
                            bench::kFeedFaultFlags});
  eval::WorldParams params = bench::retrospective_params(flags);

  eval::print_banner(std::cout, "Figure 13",
                     "false-positive communities pruned over time",
                     "the count of FP-generating communities decays day "
                     "over day as calibration prunes them");

  eval::World world(params);
  std::vector<signals::StalenessSignal> all_signals;
  eval::World::Hooks hooks;
  hooks.on_signals = [&](std::int64_t, TimePoint,
                         std::vector<signals::StalenessSignal>&& sigs) {
    for (auto& s : sigs) all_signals.push_back(std::move(s));
  };
  world.run_until(world.corpus_t0(), hooks);
  world.initialize_corpus();
  world.run_until(world.end(), hooks);

  eval::StalenessOracle oracle;
  oracle.ground_truth = &world.ground_truth();
  oracle.corpus_t0 = world.corpus_t0();
  oracle.refresh_times = world.recalibration_times();

  // Per day: distinct communities with at least one FP community signal.
  std::vector<std::set<std::uint32_t>> fp_by_day(
      static_cast<std::size_t>(params.days));
  std::vector<std::set<std::uint32_t>> all_by_day(
      static_cast<std::size_t>(params.days));
  for (const auto& signal : all_signals) {
    if (signal.technique != signals::Technique::kBgpCommunity) continue;
    std::int64_t day = (signal.time - world.corpus_t0()) / kSecondsPerDay;
    if (day < 0 || day >= params.days) continue;
    all_by_day[static_cast<std::size_t>(day)].insert(signal.community.raw());
    if (!oracle.stale(signal.pair, signal.time)) {
      fp_by_day[static_cast<std::size_t>(day)].insert(signal.community.raw());
    }
  }

  eval::TableWriter table(
      {"day", "communities signalling", "with false positives", "pruned so "
       "far"});
  for (int d = 0; d < params.days; ++d) {
    table.add_row({std::to_string(d),
                   std::to_string(all_by_day[std::size_t(d)].size()),
                   std::to_string(fp_by_day[std::size_t(d)].size()), ""});
  }
  table.print(std::cout);
  std::cout << "\ncommunities pruned globally by the end: "
            << world.engine().community_reputation().pruned_count()
            << "; still generating FPs: "
            << world.engine()
                   .community_reputation()
                   .active_false_positive_communities()
            << "\n";
  bench::RunStats stats =
      bench::capture_stats("seed " + std::to_string(params.seed), world);
  bench::maybe_write_trace(flags, stats.trace, std::cout);
  bench::write_stats_json(bench::stats_json_path(flags), {stats}, std::cout);
  return 0;
}
