// Reusing archival traceroutes (§6.2): accumulate measurements for a while,
// then answer "which of these are still safe to use?" and "can this new
// measurement request be served from the archive instead of probing?".
//
//   $ ./examples/archival_reuse [days]
#include <iostream>
#include <map>
#include <set>

#include "args.h"
#include "eval/world.h"

int main(int argc, char** argv) {
  using namespace rrr;
  examples::limit_args(argc, argv, 1, "[days]");
  int days = examples::int_arg(argc, argv, 1, "days", 8, 1);

  eval::WorldParams params;
  params.days = days;
  params.corpus_pair_target = 800;
  params.corpus_dest_count = 25;
  params.public_traces_per_window = 300;
  params.recalibration_interval_windows = 0;  // archive: no refreshes at all
  params.seed = 23;

  eval::World world(params);
  world.run_until(world.corpus_t0());
  std::size_t pairs = world.initialize_corpus();
  std::cout << "Archiving one traceroute per (probe, destination) pair ("
            << pairs << " pairs) and monitoring them for " << days
            << " days without remeasuring.\n\n";

  std::map<tr::PairKey, TimePoint> first_signal;
  eval::World::Hooks hooks;
  hooks.on_signals = [&](std::int64_t, TimePoint,
                         std::vector<signals::StalenessSignal>&& sigs) {
    for (const auto& s : sigs) first_signal.try_emplace(s.pair, s.time);
  };
  world.run_until(world.end(), hooks);

  std::int64_t fresh = 0, stale = 0, unknown = 0;
  for (const tr::PairKey& pair : world.ground_truth().pairs()) {
    if (first_signal.contains(pair)) {
      ++stale;
    } else if (world.engine().freshness(pair) == tr::Freshness::kUnknown) {
      ++unknown;
    } else {
      ++fresh;
    }
  }
  std::cout << "Archive verdicts after " << days << " days:\n"
            << "  fresh (safe to reuse):        " << fresh << "\n"
            << "  stale (path likely changed):  " << stale << "\n"
            << "  unknown (borders unmonitored): " << unknown << "\n\n";

  // How good are the verdicts? Compare with ground truth.
  std::int64_t fresh_right = 0, stale_right = 0;
  for (const tr::PairKey& pair : world.ground_truth().pairs()) {
    bool actually_changed = eval::GroundTruth::classify(
                                world.ground_truth().initial(pair),
                                world.ground_truth().current(pair)) !=
                            tracemap::ChangeKind::kNone;
    if (first_signal.contains(pair)) {
      if (actually_changed) ++stale_right;
    } else if (world.engine().freshness(pair) != tr::Freshness::kUnknown) {
      if (!actually_changed) ++fresh_right;
    }
  }
  auto pct = [](std::int64_t n, std::int64_t d) {
    return d ? static_cast<int>(100.0 * double(n) / double(d)) : 0;
  };
  std::cout << "Verdict quality vs ground truth:\n"
            << "  'fresh' verdicts correct: " << pct(fresh_right, fresh)
            << "%\n"
            << "  'stale' verdicts that did change at some point: "
            << pct(stale_right, stale) << "%\n\n";

  // Request serving: can (source AS+city -> destination /16) demands be
  // answered from the fresh part of the archive?
  std::set<std::pair<std::uint64_t, std::uint32_t>> all, servable;
  for (const tr::PairKey& pair : world.ground_truth().pairs()) {
    const tr::Probe& probe = world.platform().probe(pair.probe);
    std::uint64_t src = (std::uint64_t{probe.as} << 16) | probe.city;
    std::uint32_t dst = pair.dst.value() >> 16;
    all.insert({src, dst});
    if (!first_signal.contains(pair) &&
        world.engine().freshness(pair) == tr::Freshness::kFresh) {
      servable.insert({src, dst});
    }
  }
  std::cout << "Of " << all.size()
            << " distinct (source, destination-prefix) demands, "
            << pct(static_cast<std::int64_t>(servable.size()),
                   static_cast<std::int64_t>(all.size()))
            << "% can be served from the archive without any probing "
               "(paper: 90.3%).\n";
  return 0;
}
