// Figure 6 — precision (a) and coverage (b) of staleness prediction signals
// over the retrospective evaluation period.
//
// Paper reference: precision starts near 60% and climbs past 80% after the
// midpoint (calibration prunes bad communities and VPs), approaching 90% at
// the end; coverage is stable, usually above 80% (above 90% for changes on
// monitorable paths).
//
// Flags: --days N --pairs N --seed N --public-rate N
//        --seeds N (independent replicates) --threads N (fan-out pool)
//        --engine-threads N (parallel window closing inside each World)
#include <sstream>

#include "bench_common.h"
#include "eval/metrics.h"

namespace {

using namespace rrr;

struct Replicate {
  std::string report;
  bench::RunStats stats;
};

// One full retrospective run at `seed`, rendered to text (tasks run
// concurrently, so nothing may write to stdout until the fan-out returns).
Replicate run_replicate(eval::WorldParams params, std::uint64_t seed) {
  params.seed = seed;
  std::ostringstream out;
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
  out << "seed " << seed << ": corpus " << pairs << " pairs, "
      << params.days << " days, " << all_signals.size() << " signals, "
      << world.ground_truth().changes().size() << " changes\n\n";

  eval::StalenessOracle oracle;
  oracle.ground_truth = &world.ground_truth();
  oracle.corpus_t0 = world.corpus_t0();
  oracle.refresh_times = world.recalibration_times();
  eval::SignalMatcher matcher(all_signals, world.ground_truth().changes(),
                              {}, &oracle);

  // Smooth over 3-day buckets: daily counts are noisy at this scale.
  auto daily = matcher.daily_series(world.corpus_t0(), params.days);
  eval::TableWriter table({"days", "precision(AS)", "precision(border)",
                           "coverage(AS)", "coverage(border)", "#signals"});
  for (std::size_t d = 0; d + 2 < daily.size(); d += 3) {
    double pa = 0, pb = 0, ca = 0, cb = 0;
    std::int64_t n = 0;
    int pa_n = 0, pb_n = 0, ca_n = 0, cb_n = 0;
    for (std::size_t k = d; k < d + 3 && k < daily.size(); ++k) {
      const auto& point = daily[k];
      if (point.signals > 0) {
        pa += point.precision_as;
        ++pa_n;
        pb += point.precision_border;
        ++pb_n;
      }
      if (point.changes > 0) {
        ca += point.coverage_as;
        ++ca_n;
        cb += point.coverage_border;
        ++cb_n;
      }
      n += point.signals;
    }
    auto avg = [](double sum, int count) {
      return count > 0 ? sum / count : 0.0;
    };
    table.add_row({std::to_string(d) + "-" + std::to_string(d + 2),
                   eval::TableWriter::fmt(avg(pa, pa_n)),
                   eval::TableWriter::fmt(avg(pb, pb_n)),
                   eval::TableWriter::fmt(avg(ca, ca_n)),
                   eval::TableWriter::fmt(avg(cb, cb_n)),
                   std::to_string(n)});
  }
  table.print(out);
  if (world.metrics() != nullptr) {
    out << "\nengine telemetry (cumulative):\n";
    eval::print_stats_summary(out, world.metrics()->snapshot());
  }
  return Replicate{out.str(),
                   bench::capture_stats("seed " + std::to_string(seed),
                                        world)};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rrr;
  constexpr std::string_view kOwnFlags[] = {"seeds"};
  const bench::Flags flags(argc, argv,
                           {bench::kWorldFlags, bench::kOutputFlags,
                            bench::kFeedFaultFlags, bench::kFanOutFlags,
                            kOwnFlags});
  eval::WorldParams params = bench::retrospective_params(flags);

  eval::print_banner(std::cout, "Figure 6",
                     "precision & coverage of signals over time",
                     "precision ramps 60% -> ~90% as calibration learns; "
                     "coverage stable, mostly above 80%");

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
        return run_replicate(params, bench::replicate_seed(params.seed, i));
      },
      std::cout);
  for (std::size_t i = 0; i < replicates.size(); ++i) {
    if (i > 0) std::cout << "\n";
    std::cout << replicates[i].report;
  }
  std::vector<bench::RunStats> stats;
  for (Replicate& replicate : replicates) {
    stats.push_back(std::move(replicate.stats));
  }
  bench::maybe_write_trace(flags, stats.empty() ? "" : stats[0].trace,
                           std::cout);
  bench::write_stats_json(bench::stats_json_path(flags), stats, std::cout);
  return 0;
}
