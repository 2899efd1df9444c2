// Figure 16 (Appendix D) — integration with iPlane: pruning traceroutes our
// signals flag as stale keeps iPlane's spliced-path predictions valid.
//
// Paper reference: (a) without pruning, over half of iPlane's spliced paths
// are invalid by the end of two months; with pruning the stale fraction
// rarely exceeds 20% and ends below 10%. (b) Pruning retains the vast
// majority of still-valid spliced paths.
//
// Flags: --days N --pairs N --seed N
#include <set>

#include "baselines/iplane.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace rrr;
  const bench::Flags flags(argc, argv,
                           {bench::kWorldFlags, bench::kOutputFlags,
                            bench::kFeedFaultFlags});
  eval::WorldParams params = bench::retrospective_params(flags);
  params.days = static_cast<int>(flags.get_int("days", 14));
  params.recalibration_interval_windows = 0;  // archive setting: no free refreshes

  eval::print_banner(std::cout, "Figure 16",
                     "iPlane splicing with staleness pruning",
                     "unpruned corpus: >50% of splices invalid by the end; "
                     "pruned: mostly <20%, while retaining most valid ones");

  eval::World world(params);
  world.run_until(world.corpus_t0());
  std::size_t pairs = world.initialize_corpus();

  // Build iPlane over the t0 corpus.
  baselines::IPlane iplane;
  for (const tr::PairKey& pair : world.ground_truth().pairs()) {
    const tracemap::ProcessedTrace* processed =
        world.engine().processed_of(pair);
    if (processed != nullptr) iplane.add(pair, *processed);
  }

  // Sample spliced paths: predictions between probes and anchors they do
  // not directly measure.
  struct Splice {
    baselines::SplicedPath path;
  };
  std::vector<Splice> splices;
  {
    std::set<std::pair<tr::ProbeId, Ipv4>> seen;
    for (const tr::PairKey& pair : world.ground_truth().pairs()) {
      for (Ipv4 dst : world.corpus_dests()) {
        if (dst == pair.dst) continue;
        if (!seen.insert({pair.probe, dst}).second) continue;
        if (auto spliced = iplane.predict(pair.probe, dst)) {
          splices.push_back(Splice{*spliced});
        }
        if (splices.size() >= 4000) break;
      }
      if (splices.size() >= 4000) break;
    }
  }
  std::cout << "corpus: " << pairs << " traceroutes; " << splices.size()
            << " spliced predictions sampled\n\n";

  // Track staleness flags as the world runs.
  std::set<tr::PairKey> flagged;
  eval::World::Hooks hooks;
  hooks.on_signals = [&](std::int64_t, TimePoint,
                         std::vector<signals::StalenessSignal>&& sigs) {
    for (const auto& s : sigs) flagged.insert(s.pair);
  };
  eval::TableWriter table({"day", "invalid (not pruned)",
                           "invalid & kept (pruned)",
                           "valid splices retained"});
  hooks.on_day = [&](int day, TimePoint t) {
    if (t <= world.corpus_t0()) return;
    if ((day - params.warmup_days) % 2 != 1) return;  // report every 2 days
    std::int64_t invalid = 0, invalid_kept = 0, valid = 0, valid_kept = 0;
    for (const Splice& splice : splices) {
      // Validity now, against the live forwarding state.
      auto passes = [&](const tr::PairKey& key) {
        tr::Traceroute now = world.issue_corpus_traceroute(key, t);
        tracemap::ProcessedTrace processed =
            world.processing().process(now);
        for (const baselines::Pop& pop :
             baselines::IPlane::pops_of(processed)) {
          if (pop == splice.path.junction) return true;
        }
        return false;
      };
      bool ok = passes(splice.path.first) && passes(splice.path.second);
      bool kept = !flagged.contains(splice.path.first) &&
                  !flagged.contains(splice.path.second);
      if (ok) {
        ++valid;
        if (kept) ++valid_kept;
      } else {
        ++invalid;
        if (kept) ++invalid_kept;
      }
    }
    auto pct = [](std::int64_t n, std::int64_t d) {
      return d > 0 ? eval::TableWriter::fmt_pct(double(n) / double(d))
                   : std::string("-");
    };
    std::int64_t total = static_cast<std::int64_t>(splices.size());
    std::int64_t kept_total = 0;
    for (const Splice& splice : splices) {
      if (!flagged.contains(splice.path.first) &&
          !flagged.contains(splice.path.second)) {
        ++kept_total;
      }
    }
    table.add_row({std::to_string(day - params.warmup_days + 1),
                   pct(invalid, total), pct(invalid_kept, kept_total),
                   pct(valid_kept, valid)});
  };
  world.run_until(world.end(), hooks);
  table.print(std::cout);
  bench::RunStats stats =
      bench::capture_stats("seed " + std::to_string(params.seed), world);
  bench::maybe_write_trace(flags, stats.trace, std::cout);
  bench::write_stats_json(bench::stats_json_path(flags), {stats}, std::cout);
  return 0;
}
