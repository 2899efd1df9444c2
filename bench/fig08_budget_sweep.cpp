// Figure 8 — fraction of border-level changes detected vs per-path probing
// budget, for round-robin traceroutes, Sibyl patching, DTRACK, signals,
// DTRACK+SIGNALS, and an optimal-signals upper bound (§5.3, §6.1).
//
// Paper reference: more budget detects more changes everywhere; signals
// beat DTRACK at low budgets but plateau at their coverage; Sibyl improves
// on round-robin but trails both; DTRACK+SIGNALS dominates DTRACK (e.g.
// +24% border changes at Ark's budget) and is not coverage-limited;
// optimal signals win until budget suffices to remap every signal.
//
// Flags: --days N --pairs N --seed N
//        --threads N (fan-out pool; budget points run as independent tasks)
//        --engine-threads N (parallel window closing inside each World)
#include <set>

#include "baselines/strategies.h"
#include "bench_common.h"

namespace {

using namespace rrr;

// Oracle over the live world: strategies only query the present, which is
// all the emulation needs since they advance in lockstep with the world.
class WorldOracle final : public baselines::PathOracle {
 public:
  WorldOracle(eval::World& world, std::vector<tr::PairKey> pairs)
      : world_(world), pairs_(std::move(pairs)) {}

  std::size_t path_count() const override { return pairs_.size(); }

  std::vector<std::uint64_t> border_tokens(std::size_t path,
                                           TimePoint) const override {
    const auto& current = world_.ground_truth().current(pairs_[path]);
    std::vector<std::uint64_t> tokens;
    tokens.reserve(current.crossings.size());
    for (const auto& crossing : current.crossings) {
      tokens.push_back((std::uint64_t{crossing.interconnect} << 1) |
                       (crossing.forward ? 1 : 0));
    }
    return tokens;
  }

  std::uint64_t hop_token(std::size_t path, std::size_t index,
                          TimePoint t) const override {
    auto tokens = border_tokens(path, t);
    return index < tokens.size() ? tokens[index] : 0;
  }

  const tr::PairKey& pair_of(std::size_t path) const { return pairs_[path]; }
  std::size_t index_of(const tr::PairKey& pair) const {
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      if (pairs_[i] == pair) return i;
    }
    return pairs_.size();
  }

 private:
  eval::World& world_;
  std::vector<tr::PairKey> pairs_;
};

// Credits detections against ground-truth change events: a remeasure (or
// patch) at time t detects the latest not-yet-credited change of its pair.
class DetectionLedger {
 public:
  void on_change(const eval::ChangeEvent& change, std::size_t path) {
    pending_[path].push_back(change.time);
    if (change.kind == tracemap::ChangeKind::kBorderLevel) {
      ++total_border_;
    }
    kinds_[path].push_back(change.kind);
  }
  void on_capture(std::size_t path, TimePoint t) {
    auto& times = pending_[path];
    auto& kinds = kinds_[path];
    // The capture reveals the latest change at or before t.
    int best = -1;
    for (std::size_t i = 0; i < times.size(); ++i) {
      if (times[i] <= t) best = static_cast<int>(i);
    }
    if (best < 0) return;
    if (kinds[static_cast<std::size_t>(best)] ==
        tracemap::ChangeKind::kBorderLevel) {
      ++detected_border_;
    }
    // The capture synchronizes the stored state: changes older than the
    // credited one can never be individually detected anymore.
    times.erase(times.begin(), times.begin() + best + 1);
    kinds.erase(kinds.begin(), kinds.begin() + best + 1);
  }
  double border_detection_rate() const {
    return total_border_ > 0
               ? static_cast<double>(detected_border_) / total_border_
               : 0.0;
  }

 private:
  std::map<std::size_t, std::vector<TimePoint>> pending_;
  std::map<std::size_t, std::vector<tracemap::ChangeKind>> kinds_;
  std::int64_t total_border_ = 0;
  std::int64_t detected_border_ = 0;
};

// One (strategy, budget) emulation arm.
struct Arm {
  std::string name;
  std::unique_ptr<baselines::CorpusTracker> tracker;
  std::unique_ptr<baselines::RoundRobinStrategy> round_robin;
  std::unique_ptr<baselines::SibylStrategy> sibyl;
  std::unique_ptr<baselines::DtrackStrategy> dtrack;
  DetectionLedger ledger;
  baselines::EmulationStats stats;
  // Signal-driven refresh credit (for "signals" and "dtrack+signals").
  double credit = 0.0;
  bool uses_signals = false;
  bool optimal = false;
  baselines::ProbeBudget budget;
};

constexpr const char* kStrategyNames[] = {"round-robin", "sibyl",  "dtrack",
                                          "signals",     "dtrack+signals",
                                          "optimal-signals"};
constexpr std::size_t kStrategyCount = 6;

struct PpsResult {
  std::size_t path_count = 0;
  double rates[kStrategyCount] = {};
  bench::RunStats stats;
};

// One budget point: a private World (same seed everywhere, so every task
// replays the identical timeline and ground truth) running all six strategy
// arms at `pps` packets per second per path.
PpsResult run_pps(const eval::WorldParams& params, double pps,
                  const std::string& label) {
  eval::World world(params);
  world.run_until(world.corpus_t0());
  world.initialize_corpus();
  WorldOracle oracle(world, world.ground_truth().pairs());

  std::vector<std::unique_ptr<Arm>> arms;
  for (const char* name : kStrategyNames) {
    auto arm = std::make_unique<Arm>();
    arm->name = name;
    arm->budget.packets_per_second = pps * double(oracle.path_count());
    arm->budget.traceroute_cost = 15;
    arm->tracker = std::make_unique<baselines::CorpusTracker>(
        oracle, world.corpus_t0());
    std::string n = name;
    if (n == "round-robin") {
      arm->round_robin = std::make_unique<baselines::RoundRobinStrategy>(
          *arm->tracker, arm->budget);
    } else if (n == "sibyl") {
      arm->sibyl = std::make_unique<baselines::SibylStrategy>(
          *arm->tracker, arm->budget);
    } else if (n == "dtrack" || n == "dtrack+signals") {
      arm->dtrack = std::make_unique<baselines::DtrackStrategy>(
          *arm->tracker, arm->budget, params.seed + 17);
      arm->uses_signals = n == "dtrack+signals";
    } else if (n == "signals") {
      arm->uses_signals = true;
    } else {
      arm->optimal = true;
    }
    Arm* raw = arm.get();
    arm->tracker->set_on_change([raw](std::size_t path, TimePoint t) {
      raw->ledger.on_capture(path, t);
    });
    arms.push_back(std::move(arm));
  }

  std::size_t change_cursor = 0;
  TimePoint last = world.corpus_t0();
  eval::World::Hooks hooks;
  hooks.on_signals = [&](std::int64_t, TimePoint window_end,
                         std::vector<signals::StalenessSignal>&& sigs) {
    // Register newly arrived ground-truth changes with every ledger.
    const auto& changes = world.ground_truth().changes();
    for (; change_cursor < changes.size(); ++change_cursor) {
      std::size_t path = oracle.index_of(changes[change_cursor].pair);
      if (path >= oracle.path_count()) continue;
      for (auto& arm : arms) arm->ledger.on_change(changes[change_cursor], path);
    }
    double dt = static_cast<double>(window_end - last);
    last = window_end;

    // Unique pairs flagged in this window.
    std::set<std::size_t> flagged;
    for (const auto& signal : sigs) {
      std::size_t path = oracle.index_of(signal.pair);
      if (path < oracle.path_count()) flagged.insert(path);
    }

    for (auto& arm : arms) {
      if (arm->round_robin) arm->round_robin->advance(window_end, arm->stats);
      if (arm->sibyl) arm->sibyl->advance(window_end, arm->stats);
      if (arm->dtrack) arm->dtrack->advance(window_end, arm->stats);
      if (arm->uses_signals || arm->optimal) {
        arm->credit += arm->budget.packets_per_second * dt;
        if (arm->optimal) {
          // Upper bound: refresh exactly the pairs that truly changed.
          const auto& all = world.ground_truth().changes();
          // (re-scan the window's changes)
          for (std::size_t c = all.size(); c-- > 0;) {
            if (all[c].time < window_end - world.window_seconds()) break;
            std::size_t path = oracle.index_of(all[c].pair);
            if (path >= oracle.path_count()) continue;
            if (arm->credit >= arm->budget.traceroute_cost) {
              arm->credit -= arm->budget.traceroute_cost;
              arm->tracker->remeasure(path, window_end);
            }
          }
        } else {
          for (std::size_t path : flagged) {
            if (arm->credit < arm->budget.traceroute_cost) break;
            arm->credit -= arm->budget.traceroute_cost;
            ++arm->stats.traceroutes;
            arm->stats.packets_spent += arm->budget.traceroute_cost;
            arm->tracker->remeasure(path, window_end);
          }
        }
      }
    }
  };
  world.run_until(world.end(), hooks);

  PpsResult result;
  result.path_count = oracle.path_count();
  for (std::size_t s = 0; s < kStrategyCount; ++s) {
    result.rates[s] = arms[s]->ledger.border_detection_rate();
  }
  result.stats = bench::capture_stats(label, world);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rrr;
  const bench::Flags flags(argc, argv,
                           {bench::kWorldFlags, bench::kOutputFlags,
                            bench::kFeedFaultFlags, bench::kFanOutFlags});
  eval::WorldParams params = bench::retrospective_params(flags);
  params.days = static_cast<int>(flags.get_int("days", 15));
  params.corpus_pair_target = static_cast<int>(flags.get_int("pairs", 800));
  params.recalibration_interval_windows = 0;

  eval::print_banner(std::cout, "Figure 8",
                     "changes detected vs probing budget",
                     "signals win at low budgets, plateau at coverage; "
                     "DTRACK+SIGNALS dominates DTRACK; Sibyl > round-robin");

  const std::vector<double> pps_values = {2e-5, 5e-5, 2e-4, 1e-3, 5e-3};
  std::vector<std::string> labels;
  for (double pps : pps_values) {
    labels.push_back("pps " + eval::TableWriter::fmt(pps, 5));
  }
  std::vector<PpsResult> results = bench::fan_out<PpsResult>(
      bench::fanout_threads(flags, pps_values.size()), labels,
      [&](std::size_t i) { return run_pps(params, pps_values[i], labels[i]); },
      std::cout);

  std::cout << "paths: " << results.front().path_count << ", " << params.days
            << " days\n\n";

  eval::TableWriter table({"pps/path", "round-robin", "sibyl", "dtrack",
                           "signals", "dtrack+signals", "optimal-signals"});
  for (std::size_t i = 0; i < pps_values.size(); ++i) {
    std::vector<std::string> row{eval::TableWriter::fmt(pps_values[i], 5)};
    for (std::size_t s = 0; s < kStrategyCount; ++s) {
      row.push_back(eval::TableWriter::fmt(results[i].rates[s]));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::vector<bench::RunStats> stats;
  for (PpsResult& result : results) stats.push_back(std::move(result.stats));
  bench::maybe_write_trace(flags, stats.empty() ? "" : stats[0].trace,
                           std::cout);
  bench::write_stats_json(bench::stats_json_path(flags), stats, std::cout);
  return 0;
}
