// Quickstart: build a small simulated Internet, monitor a corpus of
// traceroutes, and watch staleness prediction signals arrive without a
// single refresh measurement.
//
//   $ ./examples/quickstart [days]
//
// The example wires the full pipeline the way the paper's system would run
// against RouteViews/RIS and RIPE Atlas: a BGP feed and a public traceroute
// stream flow into the signals::Engine, which flags corpus traceroutes
// whose paths have likely changed. Ground truth from the simulator then
// shows how many flags were right.
#include <iostream>
#include <map>

#include "args.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "eval/world.h"

int main(int argc, char** argv) {
  using namespace rrr;

  examples::limit_args(argc, argv, 1, "[days]");
  int days = examples::int_arg(argc, argv, 1, "days", 7, 1);

  eval::WorldParams params;
  params.days = days;
  params.corpus_pair_target = 600;
  params.corpus_dest_count = 25;
  params.public_traces_per_window = 120;
  params.topology.num_transit = 40;
  params.topology.num_stub = 160;
  params.seed = 7;

  std::cout << "Building a simulated Internet ("
            << params.topology.num_tier1 + params.topology.num_transit +
                   params.topology.num_stub
            << " ASes) and running " << days << " days...\n";

  eval::World world(params);
  std::cout << "  topology: " << world.topology().links().size()
            << " AS links, " << world.topology().interconnects().size()
            << " interconnects, " << world.topology().ixps().size()
            << " IXPs\n";
  std::cout << "  BGP feed: " << world.feed().vantage_points().size()
            << " vantage points\n";

  std::vector<signals::StalenessSignal> all_signals;
  std::map<signals::Technique, std::int64_t> by_technique;

  eval::World::Hooks hooks;
  hooks.on_signals = [&](std::int64_t window, TimePoint end,
                         std::vector<signals::StalenessSignal>&& sigs) {
    (void)window;
    (void)end;
    for (auto& s : sigs) {
      ++by_technique[s.technique];
      all_signals.push_back(std::move(s));
    }
  };
  hooks.on_day = [&](int day, TimePoint end) {
    (void)end;
    std::cout << "  day " << day << ": " << all_signals.size()
              << " signals so far, "
              << world.engine().stale_pairs().size()
              << " corpus traceroutes currently flagged stale\n";
  };

  world.run_until(world.corpus_t0(), hooks);
  std::size_t pairs = world.initialize_corpus();
  std::cout << "  corpus: " << pairs << " (probe, destination) pairs\n";
  world.run_until(world.end(), hooks);

  std::cout << "\nSignals by technique:\n";
  for (const auto& [technique, count] : by_technique) {
    std::cout << "  " << signals::to_string(technique) << ": " << count
              << "\n";
  }

  const auto& changes = world.ground_truth().changes();
  std::cout << "\nGround truth: " << changes.size()
            << " border-or-AS-level path changes occurred.\n";

  eval::SignalMatcher matcher(all_signals, changes);
  eval::Table2Result result = matcher.table2();
  std::cout << "Combined precision: "
            << eval::TableWriter::fmt_pct(result.all.precision)
            << ", coverage of all changes: "
            << eval::TableWriter::fmt_pct(result.all.cov_all) << "\n";
  std::cout << "\nA real deployment would now refresh (or prune) only the "
               "flagged traceroutes.\n";
  return 0;
}
