// Corpus maintenance under a probing budget — the paper's primary use case
// (§4.3, §5.2): a monitoring system owns a corpus of traceroutes, can only
// afford a few refreshes per day, and uses staleness prediction signals plus
// the TPR/TNR-calibrated scheduler to spend them where paths actually
// changed.
//
//   $ ./examples/corpus_maintenance [days] [budget-per-day]
#include <iostream>

#include "args.h"
#include "eval/world.h"

int main(int argc, char** argv) {
  using namespace rrr;
  examples::limit_args(argc, argv, 2, "[days] [budget-per-day]");
  int days = examples::int_arg(argc, argv, 1, "days", 10, 1);
  int budget = examples::int_arg(argc, argv, 2, "budget-per-day", 40, 0);

  eval::WorldParams params;
  params.days = days;
  params.corpus_pair_target = 1000;
  params.corpus_dest_count = 30;
  params.public_traces_per_window = 300;
  // Live mode: refreshes are paid for, nothing is remeasured for free.
  params.recalibration_interval_windows = 0;
  params.seed = 17;

  eval::World world(params);
  world.run_until(world.corpus_t0());
  std::size_t pairs = world.initialize_corpus();
  std::cout << "Maintaining a corpus of " << pairs
            << " traceroutes with a budget of " << budget
            << " refreshes/day.\n\n";

  std::int64_t refreshes = 0, useful = 0;
  eval::World::Hooks hooks;
  hooks.on_day = [&](int day, TimePoint t) {
    if (t <= world.corpus_t0()) return;
    // Ask the engine which traceroutes deserve this day's budget.
    auto chosen = world.engine().plan_refreshes(budget);
    int hits = 0;
    for (const tr::PairKey& pair : chosen) {
      tr::Traceroute fresh = world.issue_corpus_traceroute(pair, t);
      auto outcome = world.engine().apply_refresh(
          world.platform().probe(pair.probe), fresh);
      ++refreshes;
      if (outcome.change != tracemap::ChangeKind::kNone) {
        ++useful;
        ++hits;
      }
    }
    std::cout << "day " << day << ": " << chosen.size()
              << " refreshes issued, " << hits << " confirmed changes, "
              << world.engine().stale_pairs().size()
              << " pairs still flagged\n";
  };
  world.run_until(world.end(), hooks);

  std::cout << "\nTotal: " << refreshes << " refreshes, " << useful
            << " revealed a real change ("
            << (refreshes
                    ? static_cast<int>(100.0 * double(useful) /
                                       double(refreshes))
                    : 0)
            << "% of budget well spent; random selection wastes most of "
               "it, Figure 7a).\n";
  return 0;
}
