// Figure 7 — live evaluation (§5.2): refresh traceroutes chosen by
// staleness prediction signals vs chosen at random, under a fixed daily
// probing budget.
//
// Paper reference: (a) refreshes chosen by signals reveal a change >80% of
// the time across two months; random refreshes start far lower and only
// slowly improve (more paths have changed as time passes). (b) Of the
// changes the random arm stumbles on, signals had flagged 70-85%.
//
// The two arms are independent experiments over the same simulated
// internet (same world seed), so each runs in its own World and the
// arm × seed-replicate grid fans out over the pool; results print in task
// order whatever the parallelism.
//
// The live endpoint (--serve PORT) follows the primary signal-arm
// replicate: while it runs, /v1/verdict &co answer live from its
// window-boundary snapshots; --serve-linger keeps the endpoint up
// afterwards, answering from the final snapshot.
//
// Flags: --days N --pairs N --budget N --seed N --seeds N --threads N
//        --serve PORT --serve-linger N --stats-json F --trace-out F
#include <optional>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace rrr;
  constexpr std::string_view kOwnFlags[] = {"budget", "seeds"};
  const bench::Flags flags(argc, argv,
                           {bench::kWorldFlags, bench::kOutputFlags,
                            bench::kFeedFaultFlags, bench::kFanOutFlags,
                            bench::kObsServerFlags, kOwnFlags});
  eval::WorldParams base = bench::retrospective_params(flags);
  base.days = static_cast<int>(flags.get_int("days", 24));
  base.corpus_pair_target = static_cast<int>(flags.get_int("pairs", 2500));
  // Live mode: no free daily remeasurement; refreshes cost budget.
  base.recalibration_interval_windows = 0;
  int budget = static_cast<int>(
      flags.get_int("budget", base.corpus_pair_target / 25));
  int seeds = static_cast<int>(flags.get_int("seeds", 1));

  eval::print_banner(std::cout, "Figure 7",
                     "live evaluation: signal-driven vs random refreshes",
                     "(a) signal precision >~0.8 vs random <~0.3 rising; "
                     "(b) signals flag 70-85% of changes random finds");
  std::cout << "budget: " << budget << " refreshes/day/arm\n";

  // One day of one arm: hits over a denominator, plus how many of the
  // random arm's hits the engine had flagged stale beforehand.
  struct DayRow {
    int day = 0;
    int hits = 0;
    int denom = 0;
    int flagged_hits = 0;
  };
  struct ArmResult {
    std::size_t pairs = 0;
    std::vector<DayRow> days;
    bench::RunStats stats;
  };

  std::vector<std::string> labels;
  for (int k = 0; k < seeds; ++k) {
    std::string s = std::to_string(bench::replicate_seed(base.seed,
                                                         std::size_t(k)));
    labels.push_back("signal s" + s);
    labels.push_back("random s" + s);
  }
  int threads = bench::fanout_threads(flags, labels.size());
  bench::ScopedObsServer obs_server(flags, std::cout);
  std::vector<ArmResult> results = bench::fan_out<ArmResult>(
      threads, labels,
      [&](std::size_t i) {
        eval::WorldParams params = base;
        params.seed = bench::replicate_seed(base.seed, i / 2);
        const bool random_arm = i % 2 == 1;
        eval::World world(params);
        // The live endpoint follows the primary signal-arm replicate for
        // its whole run.
        std::optional<bench::WorldLease> lease;
        if (i == 0 && obs_server.active()) {
          lease.emplace(obs_server, &world);
        }
        world.run_until(world.corpus_t0());
        ArmResult result;
        result.pairs = world.initialize_corpus();
        std::vector<tr::PairKey> all_pairs = world.ground_truth().pairs();
        Rng arm_rng(params.seed * 77 + 5);

        eval::World::Hooks hooks;
        hooks.on_day = [&](int day, TimePoint t) {
          if (t <= world.corpus_t0()) return;
          DayRow row;
          row.day = day - params.warmup_days + 1;
          if (!random_arm) {
            auto chosen = world.engine().plan_refreshes(budget);
            for (const tr::PairKey& pair : chosen) {
              tr::Traceroute fresh = world.issue_corpus_traceroute(pair, t);
              auto outcome = world.engine().apply_refresh(
                  world.platform().probe(pair.probe), fresh);
              if (outcome.change != tracemap::ChangeKind::kNone) ++row.hits;
            }
            row.denom = static_cast<int>(chosen.size());
          } else {
            for (int r = 0; r < budget && !all_pairs.empty(); ++r) {
              const tr::PairKey& pair =
                  all_pairs[arm_rng.index(all_pairs.size())];
              if (world.engine().freshness(pair) == tr::Freshness::kUnknown) {
                continue;
              }
              tr::Traceroute fresh = world.issue_corpus_traceroute(pair, t);
              auto outcome = world.engine().apply_refresh(
                  world.platform().probe(pair.probe), fresh);
              if (outcome.change != tracemap::ChangeKind::kNone) {
                ++row.hits;
                if (outcome.was_flagged_stale) ++row.flagged_hits;
              }
            }
            row.denom = budget;
          }
          result.days.push_back(row);
        };
        world.run_until(world.end(), hooks);
        result.stats = bench::capture_stats(labels[i], world);
        return result;
      },
      std::cout);

  auto pct = [](int num, int den) {
    return den > 0
               ? eval::TableWriter::fmt(static_cast<double>(num) / den)
               : std::string("-");
  };
  for (int k = 0; k < seeds; ++k) {
    const ArmResult& sig = results[static_cast<std::size_t>(2 * k)];
    const ArmResult& rnd = results[static_cast<std::size_t>(2 * k + 1)];
    std::cout << "\nseed " << bench::replicate_seed(base.seed, std::size_t(k))
              << ": corpus " << sig.pairs << " pairs\n";
    eval::TableWriter table({"day", "signal precision", "random precision",
                             "signal-flagged share of random finds",
                             "#flagged"});
    std::size_t days = std::min(sig.days.size(), rnd.days.size());
    for (std::size_t d = 0; d < days; ++d) {
      const DayRow& s = sig.days[d];
      const DayRow& r = rnd.days[d];
      table.add_row({std::to_string(s.day), pct(s.hits, s.denom),
                     pct(r.hits, r.denom), pct(r.flagged_hits, r.hits),
                     std::to_string(s.denom)});
    }
    table.print(std::cout);
  }
  std::vector<bench::RunStats> stats;
  for (ArmResult& result : results) stats.push_back(std::move(result.stats));
  bench::maybe_write_trace(flags, stats.empty() ? "" : stats[0].trace,
                           std::cout);
  bench::write_stats_json(bench::stats_json_path(flags), stats, std::cout);
  return 0;
}
