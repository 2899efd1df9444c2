// Figure 1 — fraction of paths whose border-level / AS-level route differs
// from their initial measurement, as a function of time.
//
// Paper reference (RIPE Atlas anchoring mesh, 897 sources x 497 anchors):
// changes accumulate non-monotonically; at 30 days ~16% of paths differ at
// border level; at 60 days ~28% border-level and ~15% AS-level. 72% of
// paths are unchanged even after two months.
//
// Flags: --days N --pairs N --seed N
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace rrr;
  const bench::Flags flags(argc, argv,
                           {bench::kWorldFlags, bench::kOutputFlags,
                            bench::kFeedFaultFlags});
  eval::WorldParams params = bench::retrospective_params(flags);
  params.days = static_cast<int>(flags.get_int("days", 30));
  // This experiment only needs ground truth; silence the heavy machinery.
  params.public_traces_per_window = 0;
  params.recalibration_interval_windows = 0;

  eval::print_banner(std::cout, "Figure 1",
                     "fraction of paths changed vs initial measurement",
                     "~16% border-level at 30 days; 28% border / 15% AS at "
                     "60 days; non-monotonic (paths revert)");

  eval::World world(params);
  world.run_until(world.corpus_t0());
  std::size_t pairs = world.initialize_corpus();
  std::cout << "corpus: " << pairs << " pairs, " << params.days
            << " days\n\n";

  eval::TableWriter table(
      {"day", "AS-level changed", "border-level changed", "unchanged"});
  eval::World::Hooks hooks;
  hooks.on_day = [&](int day, TimePoint) {
    std::size_t as_changed = 0;
    std::size_t border_changed = 0;
    for (const tr::PairKey& pair : world.ground_truth().pairs()) {
      const auto& initial = world.ground_truth().initial(pair);
      const auto& current = world.ground_truth().current(pair);
      switch (eval::GroundTruth::classify(initial, current)) {
        case tracemap::ChangeKind::kAsLevel:
          ++as_changed;
          break;
        case tracemap::ChangeKind::kBorderLevel:
          ++border_changed;
          break;
        case tracemap::ChangeKind::kNone:
          break;
      }
    }
    double n = static_cast<double>(pairs);
    // Figure 1 counts border-level as "subset of routers at inter-AS
    // borders differs", i.e. any change visible at border granularity
    // (AS-level changes imply border-level ones).
    double as_frac = static_cast<double>(as_changed) / n;
    double border_frac =
        static_cast<double>(as_changed + border_changed) / n;
    if (day % 2 == 1 || day + 1 == params.days) {
      table.add_row({std::to_string(day + 1 - params.warmup_days),
                     eval::TableWriter::fmt_pct(as_frac),
                     eval::TableWriter::fmt_pct(border_frac),
                     eval::TableWriter::fmt_pct(1.0 - border_frac)});
    }
  };
  world.run_until(world.end(), hooks);
  table.print(std::cout);
  std::cout << "\ntotal ground-truth change events: "
            << world.ground_truth().changes().size() << "\n";
  bench::RunStats stats =
      bench::capture_stats("seed " + std::to_string(params.seed), world);
  bench::maybe_write_trace(flags, stats.trace, std::cout);
  bench::write_stats_json(bench::stats_json_path(flags), {stats}, std::cout);
  return 0;
}
