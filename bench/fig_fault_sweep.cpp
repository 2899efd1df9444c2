// Fault-resilience sweep — precision/coverage of the staleness signals as
// the feeds degrade, with and without feed-health gating.
//
// For each fault-plan kind (collector blackout with session-reset replay,
// uniform record loss, duplicate/reorder/corruption noise) and intensity,
// the same world runs twice: once with the engine's feed-health quarantine
// off ("ungated") and once on ("gated"). The claim under test: gating keeps
// precision from collapsing when feeds misbehave — at a heavy collector
// blackout the recovering sessions replay their tables as duplicate storms,
// and the ungated burst monitor fires on them while the gated one drops
// them on the floor (rrr_signals_dropped_unhealthy_feed_total counts every
// suppression).
//
// Flags: --days N --pairs N --seed N --public-rate N
//        --kinds blackout,loss,noise  --intensities 0,0.15,0.3,0.5
//        --fault-blackout-windows N (blackout duration, default 96 = 1 day)
//        --threads N (fan-out pool) --engine-threads/--engine-shards
//        --stats-json PATH (default BENCH_fault_resilience.json)
#include <sstream>

#include "bench_common.h"
#include "eval/metrics.h"

namespace {

using namespace rrr;

struct Arm {
  std::string label;
  std::string kind;
  double intensity = 0.0;
  bool gated = false;
};

struct ArmResult {
  Arm arm;
  double precision = 0.0;
  double coverage = 0.0;
  std::int64_t signal_count = 0;
  std::int64_t dropped_unhealthy = 0;
  std::int64_t fault_bgp_dropped = 0;
  std::int64_t fault_bgp_replayed = 0;
  bench::RunStats stats;
};

// The fault plan of one sweep arm. Blackout fractions/rates scale with the
// intensity; the blackout is placed mid-run so quarantine and recovery both
// happen inside the measured period.
fault::FaultPlan plan_for(const std::string& kind, double intensity,
                          std::uint64_t seed, std::int64_t blackout_start,
                          std::int64_t blackout_windows) {
  fault::FaultPlan plan;
  plan.seed = seed;
  if (intensity <= 0.0) return plan;  // clean baseline arm
  if (kind == "blackout") {
    plan.collector_blackout_fraction = intensity;
    plan.blackout_start_window = blackout_start;
    plan.blackout_windows = blackout_windows;
    plan.session_reset_replay = true;
  } else if (kind == "loss") {
    plan.drop_rate = intensity;
    plan.trace_drop_rate = intensity;
  } else if (kind == "noise") {
    plan.duplicate_rate = intensity;
    plan.reorder_rate = intensity;
    plan.reorder_max_seconds = 2 * kSecondsPerMinute;
    plan.corrupt_rate = intensity / 2.0;
  }
  return plan;
}

std::int64_t sum_counter(const obs::Snapshot& snapshot,
                         const std::string& name) {
  std::int64_t total = 0;
  for (const obs::MetricSnapshot& metric : snapshot) {
    if (metric.name == name) total += metric.value;
  }
  return total;
}

ArmResult run_arm(eval::WorldParams params, const Arm& arm,
                  std::int64_t blackout_start,
                  std::int64_t blackout_windows) {
  params.telemetry = true;  // the suppression counters are the point here
  params.fault_plan = plan_for(arm.kind, arm.intensity, params.seed,
                               blackout_start, blackout_windows);
  params.feed_health.enabled = arm.gated;

  eval::World world(params);
  std::vector<signals::StalenessSignal> all_signals;
  eval::World::Hooks hooks;
  hooks.on_signals = [&](std::int64_t, TimePoint,
                         std::vector<signals::StalenessSignal>&& sigs) {
    for (auto& s : sigs) all_signals.push_back(std::move(s));
  };
  world.run_all(hooks);

  eval::StalenessOracle oracle;
  oracle.ground_truth = &world.ground_truth();
  oracle.corpus_t0 = world.corpus_t0();
  oracle.refresh_times = world.recalibration_times();
  eval::SignalMatcher matcher(all_signals, world.ground_truth().changes(),
                              {}, &oracle);
  eval::Table2Result table = matcher.table2();

  ArmResult result;
  result.arm = arm;
  result.precision = table.all.precision;
  result.coverage = table.all.cov_all;
  result.signal_count = table.all.signal_count;
  obs::Snapshot snapshot = world.metrics()->snapshot();
  result.dropped_unhealthy =
      sum_counter(snapshot, "rrr_signals_dropped_unhealthy_feed_total");
  result.fault_bgp_dropped =
      sum_counter(snapshot, "rrr_fault_bgp_records_dropped_total");
  result.fault_bgp_replayed =
      sum_counter(snapshot, "rrr_fault_bgp_records_replayed_total");
  result.stats = bench::capture_stats(arm.label, world);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rrr;
  constexpr std::string_view kOwnFlags[] = {"kinds", "intensities",
                                            "fault-blackout-windows"};
  const bench::Flags flags(argc, argv,
                           {bench::kWorldFlags, bench::kOutputFlags,
                            bench::kFanOutFlags, kOwnFlags});
  // The sweep sets each arm's plan and gating itself, so it declares no
  // --fault-plan or --feed-health (bench::kFeedFaultFlags): either flag
  // exits 2 here rather than being overwritten by every arm.
  eval::WorldParams params = bench::retrospective_params(flags);
  if (params.days > 12) params.days = 12;  // 2 worlds per point: keep it sane
  params.days = static_cast<int>(flags.get_int("days", params.days));

  eval::print_banner(std::cout, "Fault sweep",
                     "signal quality vs feed degradation",
                     "feed-health gating holds precision while faults only "
                     "cost coverage");

  std::vector<std::string> kinds =
      bench::split_list(flags.get_str("kinds", "blackout,loss,noise"));
  std::vector<double> intensities;
  for (const std::string& item :
       bench::split_list(flags.get_str("intensities", "0,0.15,0.3,0.5"))) {
    intensities.push_back(
        bench::parse_setting<double>("--intensities", item));
  }

  // Blackout placement: mid-run, after calibration has warmed up.
  std::int64_t windows_per_day = kSecondsPerDay / kBaseWindowSeconds;
  std::int64_t total_windows =
      (params.warmup_days + params.days) * windows_per_day;
  // A sparse BGP stream is judged over up to half a day of windows, so the
  // outage must be long enough to register: one day by default.
  std::int64_t blackout_windows =
      flags.get_int("fault-blackout-windows", 96);
  std::int64_t blackout_start = total_windows / 2;

  std::vector<Arm> arms;
  for (const std::string& kind : kinds) {
    for (double intensity : intensities) {
      if (intensity <= 0.0 && kind != kinds.front()) {
        continue;  // one clean baseline is enough
      }
      for (bool gated : {false, true}) {
        std::ostringstream label;
        label << kind << " x" << intensity
              << (gated ? " gated" : " ungated");
        arms.push_back(Arm{label.str(), kind, intensity, gated});
      }
    }
  }

  std::vector<std::string> labels;
  for (const Arm& arm : arms) labels.push_back(arm.label);
  std::vector<ArmResult> results = bench::fan_out<ArmResult>(
      bench::fanout_threads(flags, arms.size()), labels,
      [&](std::size_t i) {
        return run_arm(params, arms[i], blackout_start, blackout_windows);
      },
      std::cout);

  eval::TableWriter table({"plan", "intensity", "gating", "precision",
                           "coverage", "#signals", "#suppressed",
                           "#bgp-dropped", "#replayed"});
  for (const ArmResult& r : results) {
    table.add_row({r.arm.kind, eval::TableWriter::fmt(r.arm.intensity),
                   r.arm.gated ? "gated" : "ungated",
                   eval::TableWriter::fmt(r.precision),
                   eval::TableWriter::fmt(r.coverage),
                   std::to_string(r.signal_count),
                   std::to_string(r.dropped_unhealthy),
                   std::to_string(r.fault_bgp_dropped),
                   std::to_string(r.fault_bgp_replayed)});
  }
  table.print(std::cout);

  // Headline comparison: the heaviest blackout point, gated vs ungated.
  const ArmResult* worst_ungated = nullptr;
  const ArmResult* worst_gated = nullptr;
  for (const ArmResult& r : results) {
    if (r.arm.kind != "blackout" || r.arm.intensity < 0.3) continue;
    const ArmResult*& slot = r.arm.gated ? worst_gated : worst_ungated;
    if (slot == nullptr || r.arm.intensity > slot->arm.intensity) slot = &r;
  }
  if (worst_ungated != nullptr && worst_gated != nullptr) {
    std::cout << "\nblackout x" << worst_gated->arm.intensity
              << ": precision ungated "
              << eval::TableWriter::fmt(worst_ungated->precision)
              << " -> gated "
              << eval::TableWriter::fmt(worst_gated->precision) << " ("
              << worst_gated->dropped_unhealthy
              << " signals suppressed as unhealthy-feed)\n";
  }

  std::vector<bench::RunStats> stats;
  for (ArmResult& r : results) stats.push_back(std::move(r.stats));
  std::string path =
      flags.get_str("stats-json", "BENCH_fault_resilience.json");
  bench::maybe_write_trace(flags, stats.empty() ? "" : stats[0].trace,
                           std::cout);
  bench::write_stats_json(path, stats, std::cout);
  return 0;
}
