// Table 2 — precision and coverage of every staleness prediction technique
// in the retrospective evaluation (§5.1.3).
//
// Paper reference (60-day RIPE Atlas retrospective, 223k pairs):
//   BGP AS-paths     377,067 signals  p=0.82  cov(all)=0.13 (uniq 0.07)
//   BGP communities  267,571          p=0.80  cov(all)=0.09 (uniq 0.05)
//   BGP bursts       363,368          p=0.72  cov(all)=0.11 (uniq 0.03)
//   BGP total      1,008,006          p=0.74  cov(all)=0.27
//   Colocation       305,909          p=0.85  cov(all)=0.13 (uniq 0.08)
//   Trace subpaths 1,244,558          p=0.81  cov(all)=0.51 (uniq 0.35)
//   Trace borders    261,965          p=0.83  cov(all)=0.11 (uniq 0.07)
//   Trace total    1,812,432          p=0.82  cov(all)=0.69
//   All            2,820,438          p=0.80  cov(all)=0.81  (AS 0.86, border 0.79)
//
// Flags: --days N --pairs N --dests N --public-rate N --seed N
//        --ablate-stationarity (keep outlier windows in the subpath and
//          border z-score histories; BGP Bitmap series always drop them)
//        --per-day (also print the Figure 6 style daily series)
//        --seeds N (independent replicates) --threads N (fan-out pool)
//        --engine-threads N (parallel window closing inside each World)
//        --stats-json F (every replicate) --trace-out F (the first)
#include <algorithm>
#include <map>
#include <sstream>

#include "bench_common.h"
#include "eval/metrics.h"

namespace {

using namespace rrr;

struct Replicate {
  std::string report;
  bench::RunStats stats;
};

// One full replicate at `seed`, rendered to text (tasks run concurrently,
// so nothing may write to stdout until the fan-out returns), plus its
// telemetry and flight-recorder export.
Replicate run_replicate(eval::WorldParams params, std::uint64_t seed,
                        const bench::Flags& flags) {
  params.seed = seed;
  std::ostringstream out;
  out << "world: " << params.days << " days, target "
      << params.corpus_pair_target << " pairs, seed " << params.seed << "\n";

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

  const auto& changes = world.ground_truth().changes();
  out << "corpus: " << pairs << " pairs; ground truth: " << changes.size()
      << " changes; signals: " << all_signals.size() << "\n\n";

  eval::StalenessOracle oracle;
  oracle.ground_truth = &world.ground_truth();
  oracle.corpus_t0 = world.corpus_t0();
  oracle.refresh_times = world.recalibration_times();
  eval::SignalMatcher matcher(all_signals, changes, {}, &oracle);
  eval::Table2Result result = matcher.table2();
  eval::Table2Result strict = matcher.table2(/*strict_precision=*/true);

  eval::TableWriter table({"Technique", "#Signals", "Precision",
                           "Cov all", "uniq", "Cov AS", "uniq",
                           "Cov border", "uniq"});
  auto row = [&](const eval::TechniqueRow& r, bool totals) {
    table.add_row({r.name, eval::TableWriter::fmt_int(r.signal_count),
                   eval::TableWriter::fmt(r.precision),
                   eval::TableWriter::fmt(r.cov_all),
                   totals ? "" : eval::TableWriter::fmt(r.cov_all_unique),
                   eval::TableWriter::fmt(r.cov_as),
                   totals ? "" : eval::TableWriter::fmt(r.cov_as_unique),
                   eval::TableWriter::fmt(r.cov_border),
                   totals ? "" : eval::TableWriter::fmt(r.cov_border_unique)});
  };
  // BGP techniques first (paper row order), then the BGP total, etc.
  row(result.techniques[0], false);
  row(result.techniques[1], false);
  row(result.techniques[2], false);
  row(result.bgp_total, true);
  table.add_separator();
  row(result.techniques[3], false);
  row(result.techniques[4], false);
  row(result.techniques[5], false);
  row(result.trace_total, true);
  table.add_separator();
  row(result.all, true);
  table.print(out);

  out << "strict staleness-vs-last-refresh precision: all="
      << eval::TableWriter::fmt(strict.all.precision)
      << " bgp=" << eval::TableWriter::fmt(strict.bgp_total.precision)
      << " trace=" << eval::TableWriter::fmt(strict.trace_total.precision)
      << "\n";
  out << "\nchanges: total=" << result.total_changes
      << " AS-level=" << result.as_changes
      << " border-level=" << result.border_changes << "\n";

  if (flags.get_bool("monitor-stats")) {
    auto stats = world.engine().subpath_monitor().stats();
    out << "\nsubpath monitor: segments=" << stats.segments
        << " subscribed=" << stats.subscribed << " armed=" << stats.armed
        << " dormant=" << stats.dormant
        << " observations=" << stats.observations << " mean-multiplier="
        << eval::TableWriter::fmt(stats.mean_multiplier, 1) << "\n";
    std::map<std::string, int> fp_communities;
    for (std::size_t s = 0; s < all_signals.size(); ++s) {
      const auto& sig = all_signals[s];
      if (sig.technique != signals::Technique::kBgpCommunity) continue;
      if (oracle.stale(sig.pair, sig.time)) continue;
      fp_communities[sig.community.to_string()]++;
    }
    int geo_tp = 0, geo_fp = 0, te_tp = 0, te_fp = 0;
    for (std::size_t s = 0; s < all_signals.size(); ++s) {
      const auto& sig = all_signals[s];
      if (sig.technique != signals::Technique::kBgpCommunity) continue;
      bool tp = oracle.stale(sig.pair, sig.time);
      bool geo = topo::is_geo_community_value(sig.community.value());
      (geo ? (tp ? geo_tp : geo_fp) : (tp ? te_tp : te_fp))++;
    }
    out << "community signals: geo tp=" << geo_tp << " fp=" << geo_fp
        << "; te tp=" << te_tp << " fp=" << te_fp << "\n";
    const auto cstats = world.engine().community_stats();
    out << "community monitor: records=" << cstats.records
        << " diffs=" << cstats.diffs
        << " no-prev-overlap=" << cstats.no_prev_overlap
        << " no-new-overlap=" << cstats.no_new_overlap
        << " path-rule=" << cstats.path_rule
        << " known-elsewhere=" << cstats.known_elsewhere
        << " pruned=" << cstats.pruned << " fired=" << cstats.fired << "\n";
    out << "community FPs by community (top):\n";
    std::vector<std::pair<int, std::string>> ranked;
    for (auto& [c, n] : fp_communities) ranked.emplace_back(n, c);
    std::sort(ranked.rbegin(), ranked.rend());
    for (std::size_t i = 0; i < std::min<std::size_t>(12, ranked.size());
         ++i) {
      out << "  " << ranked[i].second << ": " << ranked[i].first << "\n";
    }
  }

  if (flags.get_int("cov-debug", 0) > 0) {
    int budget = static_cast<int>(flags.get_int("cov-debug", 0));
    int shown = 0;
    for (std::size_t c = 0; c < changes.size() && shown < budget; ++c) {
      if (changes[c].kind != tracemap::ChangeKind::kBorderLevel) continue;
      if (matcher.change_matched_mask(c) != 0) continue;  // covered
      ++shown;
      out << "MISSED border change pair(probe=" << changes[c].pair.probe
          << ", dst=" << changes[c].pair.dst.to_string() << ") at "
          << changes[c].time.to_string() << " crossing#"
          << changes[c].changed_crossing << "\n  segments:";
      for (const auto& info :
           world.engine().subpath_monitor().segments_for(changes[c].pair)) {
        out << " [b#" << info.border_index << " len=" << info.length
            << (info.armed ? " armed" : "")
            << (info.dormant ? " dormant" : "") << " mult=" << info.multiplier;
        if (info.has_ratio) {
          out << " r=" << eval::TableWriter::fmt(info.last_ratio);
        }
        out << "]";
      }
      out << "\n";
    }
  }

  if (flags.get_int("debug-fp", 0) > 0) {
    int budget = static_cast<int>(flags.get_int("debug-fp", 0));
    std::map<signals::Technique, int> printed;
    // Index changes per pair for context.
    std::map<tr::PairKey, std::vector<const eval::ChangeEvent*>> by_pair;
    for (const auto& c : changes) by_pair[c.pair].push_back(&c);
    for (std::size_t s = 0; s < all_signals.size(); ++s) {
      const auto& sig = all_signals[s];
      if (oracle.stale(sig.pair, sig.time)) continue;  // TP
      if (printed[sig.technique]++ >= budget) continue;
      out << "FP " << sig.to_string() << " t=" << sig.time.to_string()
          << " span=" << sig.span_seconds;
      if (sig.community.raw() != 0) {
        out << " community=" << sig.community.to_string();
      }
      out << "\n  pair changes:";
      auto it = by_pair.find(sig.pair);
      if (it != by_pair.end()) {
        for (const auto* c : it->second) {
          out << " [" << c->time.to_string() << " "
              << (c->kind == tracemap::ChangeKind::kAsLevel ? "AS" : "border")
              << " ev=" << c->cause_event << "]";
        }
      } else {
        out << " none-ever";
      }
      out << "\n";
    }
  }

  if (flags.get_bool("per-day")) {
    out << "\nFigure 6 style daily series:\n";
    eval::TableWriter daily({"day", "prec(AS)", "prec(border)", "cov(AS)",
                             "cov(border)", "#signals", "#changes"});
    for (const auto& point :
         matcher.daily_series(world.corpus_t0(), params.days)) {
      daily.add_row({std::to_string(point.day),
                     eval::TableWriter::fmt(point.precision_as),
                     eval::TableWriter::fmt(point.precision_border),
                     eval::TableWriter::fmt(point.coverage_as),
                     eval::TableWriter::fmt(point.coverage_border),
                     std::to_string(point.signals),
                     std::to_string(point.changes)});
    }
    daily.print(out);
  }
  return Replicate{out.str(),
                   bench::capture_stats("seed " + std::to_string(seed),
                                        world)};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rrr;
  constexpr std::string_view kOwnFlags[] = {"seeds", "per-day",
                                            "ablate-stationarity",
                                            "monitor-stats", "cov-debug",
                                            "debug-fp"};
  const bench::Flags flags(argc, argv,
                           {bench::kWorldFlags, bench::kOutputFlags,
                            bench::kFeedFaultFlags, bench::kFanOutFlags,
                            kOwnFlags});
  eval::WorldParams params = bench::retrospective_params(flags);
  params.trace_drop_outliers = !flags.get_bool("ablate-stationarity");

  eval::print_banner(
      std::cout, "Table 2", "precision & coverage per technique",
      "all techniques precise (0.72-0.85); combined coverage 0.81 of all "
      "changes, 0.86 AS-level, 0.79 border-level");

  auto seeds = static_cast<std::size_t>(flags.get_int("seeds", 1));
  if (seeds == 0) seeds = 1;
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < seeds; ++i) {
    labels.push_back("seed " +
                     std::to_string(bench::replicate_seed(params.seed, i)));
  }
  std::vector<Replicate> replicates = bench::fan_out<Replicate>(
      bench::fanout_threads(flags, seeds), labels,
      [&](std::size_t i) {
        return run_replicate(params, bench::replicate_seed(params.seed, i),
                             flags);
      },
      std::cout);
  std::vector<bench::RunStats> stats;
  for (std::size_t i = 0; i < replicates.size(); ++i) {
    if (i > 0) std::cout << "\n";
    std::cout << replicates[i].report;
    stats.push_back(std::move(replicates[i].stats));
  }
  bench::maybe_write_trace(flags, stats[0].trace, std::cout);
  bench::write_stats_json(bench::stats_json_path(flags), stats, std::cout);
  return 0;
}
