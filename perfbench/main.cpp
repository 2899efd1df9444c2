// rrr_perfbench: the repository's end-to-end benchmark (perfbench/README.md).
//
//   rrr_perfbench --workload bgp_corpus|trace_feed|live_service --seed N
//                 --seconds N --trace 0|1 --scratch DIR
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// of a separate traced run. Either way the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}. Exit code 2
// means the invocation or the build was refused; nothing is timed then.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <set>
#include <sstream>
#include <thread>

#include "runner.h"

namespace perfbench {
namespace {

// Worlds per run: at least two, so even a short run averages topologies; at
// most 64, so no --seconds asks for an unbounded run.
constexpr int kMinWorlds = 2;
constexpr int kMaxWorlds = 64;

const char* const kTechniques[] = {"aspath", "burst",  "community",
                                   "subpath", "border", "colocation"};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = 0;
  std::string scratch;
};

[[noreturn]] void refuse(const std::string& why) {
  std::cerr << "rrr_perfbench: " << why << "\n";
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || text.empty()) {
    refuse("malformed value '" + text + "' for --" + flag);
  }
  return value;
}

// Strict flags: exactly these five, each once, each `--name value`.
Args parse_args(int argc, char** argv) {
  const std::set<std::string> known = {"workload", "seed", "seconds", "trace",
                                       "scratch"};
  std::map<std::string, std::string> seen;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || known.count(flag.substr(2)) == 0) {
      refuse("unknown argument '" + flag + "'");
    }
    if (i + 1 >= argc) refuse("missing value for " + flag);
    if (!seen.emplace(flag.substr(2), argv[i + 1]).second) {
      refuse("duplicate flag " + flag);
    }
  }
  for (const std::string& name : known) {
    if (seen.count(name) == 0) refuse("missing --" + name);
  }
  Args args;
  args.workload = seen["workload"];
  args.seed = parse_number<std::uint64_t>("seed", seen["seed"]);
  args.seconds = parse_number<int>("seconds", seen["seconds"]);
  args.trace = parse_number<int>("trace", seen["trace"]);
  args.scratch = seen["scratch"];
  if (args.seconds < 1 || args.seconds > 3600) refuse("--seconds 1..3600");
  if (args.trace != 0 && args.trace != 1) refuse("--trace takes 0 or 1");
  if (find_workload(args.workload) == nullptr) {
    refuse("unknown workload '" + args.workload + "'");
  }
  return args;
}

// Timing an unoptimized or instrumented build measures the build, not rrr.
void refuse_unfit_build() {
#if !defined(__OPTIMIZE__)
  refuse("refusing to time an unoptimized build (" PERFBENCH_BUILD_TYPE ")");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  refuse("refusing to time a sanitizer build");
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  refuse("refusing to time a sanitizer build");
#endif
#endif
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    refuse("refusing to time a " + type + " build");
  }
}

// ---- result assembly ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      errors.push_back("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back({name, value, unit});
    std::printf("  %-38s %14.6g %s\n", name.c_str(), value, unit.c_str());
  }

  void print_json(bool correct, std::int64_t attempted,
                  std::int64_t failed) const {
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      auto [end, ec] = std::to_chars(buf, buf + sizeof buf, metrics_[i].value);
      (void)ec;
      out << (i ? ", " : "") << "\"" << metrics_[i].name
          << "\": {\"value\": " << std::string(buf, end) << ", \"unit\": \""
          << metrics_[i].unit << "\"}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
  }

  std::vector<std::string> errors;

 private:
  std::vector<Metric> metrics_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<double> pooled(const std::vector<WorldResult>& runs,
                           std::vector<double> WorldResult::*field) {
  std::vector<double> out;
  for (const WorldResult& r : runs) {
    out.insert(out.end(), (r.*field).begin(), (r.*field).end());
  }
  return out;
}

// The timed phases' figures, on the wall clock or at the reference speed
// (each world's times multiplied by its speed_scale()).
struct Timings {
  double windows_per_s = 0.0;
  double window_ms_p50 = 0.0;
  double setup_s = 0.0;
};

Timings timings(const std::vector<WorldResult>& runs, bool at_reference) {
  std::vector<double> windows;
  std::vector<double> setups;
  double seconds = 0.0;
  for (const WorldResult& r : runs) {
    const double scale = at_reference ? r.speed_scale() : 1.0;
    for (double ms : r.window_ms) windows.push_back(ms * scale);
    setups.push_back(r.setup_s() * scale);
    seconds += r.elapsed_s * scale;
  }
  Timings t;
  t.windows_per_s = ratio(static_cast<double>(windows.size()), seconds);
  t.window_ms_p50 = median(windows);
  t.setup_s = median(setups);
  return t;
}

// A failed query counts as beyond any tail: it gets the whole phase as its
// latency (finite, so the report stays valid JSON).
std::vector<double> query_latencies(const std::vector<WorldResult>& runs) {
  std::vector<double> out;
  for (const WorldResult& r : runs) {
    for (double ms : r.query_ms) {
      out.push_back(std::isfinite(ms) ? ms : r.elapsed_s * 1e3);
    }
  }
  return out;
}

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
};

Tally tally(const std::vector<WorldResult>& runs) {
  Tally t;
  std::int64_t windows = 0, windows_failed = 0, refreshes = 0,
               refresh_failed = 0, queries = 0, query_failed = 0;
  for (const WorldResult& r : runs) {
    windows += static_cast<std::int64_t>(r.window_ms.size());
    windows_failed += r.windows_failed;
    refreshes += r.refreshes + r.refresh_failures;
    refresh_failed += r.refresh_failures;
    queries += static_cast<std::int64_t>(r.query_ms.size());
    query_failed += r.query_failures;
    t.errors.insert(t.errors.end(), r.errors.begin(), r.errors.end());
  }
  t.attempted = windows + refreshes + queries;
  t.failed = windows_failed + refresh_failed + query_failed;
  std::printf("failed operations: %lld of %lld (windows %lld/%lld, refreshes "
              "%lld/%lld, queries %lld/%lld)\n",
              static_cast<long long>(t.failed),
              static_cast<long long>(t.attempted),
              static_cast<long long>(windows_failed),
              static_cast<long long>(windows),
              static_cast<long long>(refresh_failed),
              static_cast<long long>(refreshes),
              static_cast<long long>(query_failed),
              static_cast<long long>(queries));
  return t;
}

// The output checks: the timed world's signal digest, a repetition of the
// same seed and (where the workload runs more than one thread or shard) a
// 1x1 run must agree on the digest after the check windows, and the two
// telemetry-on runs on the semantic counters.
bool outputs_agree(const WorldResult& timed, const WorldResult& repeat,
                   const WorldResult& serial,
                   std::vector<std::string>& errors) {
  bool ok = true;
  for (const WorldResult* r : {&timed, &repeat, &serial}) {
    if (!r->check_reached) {
      errors.push_back("a check world never reached its check window");
      return false;
    }
  }
  if (timed.digest_at_check.value != repeat.digest_at_check.value ||
      timed.digest_at_check.count != repeat.digest_at_check.count) {
    errors.push_back("signal digest differs between repetitions of a seed");
    ok = false;
  }
  if (serial.digest_at_check.value != repeat.digest_at_check.value ||
      serial.digest_at_check.count != repeat.digest_at_check.count) {
    errors.push_back("signal digest differs from the 1x1 run");
    ok = false;
  }
  if (repeat.semantic_at_check.size() < 3 ||
      repeat.semantic_at_check != serial.semantic_at_check) {
    errors.push_back("semantic counters differ between check runs");
    ok = false;
  }
  std::printf("output checks: %s (digest %016llx over %lld signals in the "
              "first %d windows; semantic counters %zu bytes)\n",
              ok ? "pass" : "FAIL",
              static_cast<unsigned long long>(repeat.digest_at_check.value),
              static_cast<long long>(repeat.digest_at_check.count),
              kCheckWindows,
              repeat.semantic_at_check.size());
  return ok;
}

RunOptions base_options(const Workload& wl, const Args& args) {
  RunOptions opt;
  opt.workload = &wl;
  opt.engine_threads = wl.engine_threads;
  opt.engine_shards = wl.engine_shards;
  opt.daemon = wl.live;
  opt.scratch = args.scratch;
  return opt;
}

// Telemetry-on replay of the first check windows of world 0, without the
// serving stack or checkpoints (the refresh hook still runs).
WorldResult check_run(const Workload& wl, const Args& args, int threads,
                      int shards) {
  RunOptions opt = base_options(wl, args);
  opt.seed = world_seed(args.seed, 0);
  opt.engine_threads = threads;
  opt.engine_shards = shards;
  opt.daemon = false;
  opt.telemetry = true;
  opt.windows = kCheckWindows;
  opt.check_at = kCheckWindows;
  return run_world(opt);
}

// The number of worlds a run measures depends on --seconds and the workload
// alone, never on how fast the build runs, so two builds given the same
// flags measure exactly the same worlds (world k on world_seed(seed, k)).
// `share` is the part of --seconds the worlds may fill (the traced run
// builds each world twice).
int worlds_per_run(const Workload& wl, const Args& args, double share) {
  const int fit = static_cast<int>(args.seconds * share / wl.world_seconds);
  return std::clamp(fit, kMinWorlds, kMaxWorlds);
}

// The two check replays are untimed, so they run side by side.
std::pair<WorldResult, WorldResult> check_runs(const Workload& wl,
                                               const Args& args) {
  WorldResult serial;
  std::exception_ptr failure;
  std::thread worker([&] {
    try {
      serial = check_run(wl, args, 1, 1);
    } catch (...) {
      failure = std::current_exception();
    }
  });
  WorldResult repeat;
  try {
    repeat = check_run(wl, args, wl.engine_threads, wl.engine_shards);
  } catch (...) {
    worker.join();
    throw;
  }
  worker.join();
  if (failure) std::rethrow_exception(failure);
  return {std::move(repeat), std::move(serial)};
}

void print_live_summary(const Workload& wl,
                        const std::vector<WorldResult>& runs) {
  if (!wl.live) return;
  std::int64_t refreshes = 0, changed = 0, queries = 0;
  for (const WorldResult& r : runs) {
    refreshes += r.refreshes;
    changed += r.refreshes_changed;
    queries += static_cast<std::int64_t>(r.query_ms.size());
  }
  const std::vector<double> q = query_latencies(runs);
  const double tail = tail_percentile(q.size());
  std::printf("refresh hit rate: %.4f (%lld changed of %lld refreshes)\n",
              ratio(static_cast<double>(changed),
                    static_cast<double>(refreshes)),
              static_cast<long long>(changed),
              static_cast<long long>(refreshes));
  std::printf("queries: %lld at %.0f/s open loop; from due: p50 %.4f ms, "
              "p%g %.4f ms (%lld beyond)\n",
              static_cast<long long>(queries), wl.query_rate, median(q),
              tail, percentile(q, tail),
              static_cast<long long>(beyond(q.size(), tail)));
}

// ---- --trace 0: end-to-end metrics ----

int run_untraced(const Workload& wl, const Args& args, int worlds) {
  SpeedReference reference;
  std::vector<WorldResult> timed;
  for (int k = 0; k < worlds; ++k) {
    RunOptions opt = base_options(wl, args);
    opt.seed = world_seed(args.seed, k);
    opt.windows = kWorldWindows;
    opt.check_at = k == 0 ? kCheckWindows : 0;
    opt.reference = &reference;
    timed.push_back(run_world(opt));
    const WorldResult& r = timed.back();
    std::printf("world %d (seed %llu): %zu pairs, set-up %.3f s, %zu windows "
                "in %.3f s, window p50 %.3f ms, reference slice %.4f ms\n",
                k, static_cast<unsigned long long>(r.seed), r.pairs,
                r.setup_s(), r.window_ms.size(), r.elapsed_s,
                median(r.window_ms), median(r.reference_ms));
  }
  // Peak memory of the timed worlds, before the check replays add theirs.
  const double peak_mb = peak_rss_mb();
  const auto [repeat, serial] = check_runs(wl, args);

  Report report;
  const bool agree = outputs_agree(timed[0], repeat, serial, report.errors);
  Tally t = tally(timed);
  for (const WorldResult* r : {&repeat, &serial}) {
    t.errors.insert(t.errors.end(), r->errors.begin(), r->errors.end());
  }

  const std::vector<double> windows = pooled(timed, &WorldResult::window_ms);
  const double tail = tail_percentile(windows.size());
  std::printf("window tail: p%g %.4f ms of %zu windows (%lld beyond)\n",
              tail, percentile(windows, tail), windows.size(),
              static_cast<long long>(beyond(windows.size(), tail)));
  print_live_summary(wl, timed);
  const Timings wall = timings(timed, false);
  const Timings at_reference = timings(timed, true);
  std::printf("wall clock: windows_per_s %.4f, window_ms_p50 %.4f, setup_s "
              "%.4f; reference slice median %.4f ms, %.4f ms at the "
              "reference speed\n",
              wall.windows_per_s, wall.window_ms_p50, wall.setup_s,
              median(pooled(timed, &WorldResult::reference_ms)),
              kReferenceSliceMs);

  std::printf("metrics (timings at the reference speed):\n");
  report.add("windows_per_s", at_reference.windows_per_s, "windows/s");
  report.add("window_ms_p50", at_reference.window_ms_p50, "ms");
  report.add("setup_s", at_reference.setup_s, "s");
  report.add("peak_rss_mb", peak_mb, "MB");

  for (const std::string& e : t.errors) report.errors.push_back(e);
  for (const std::string& e : report.errors) {
    std::printf("error: %s\n", e.c_str());
  }
  const bool correct = agree && t.failed == 0 && report.errors.empty();
  report.print_json(correct, t.attempted, t.failed);
  return 0;
}

// ---- --trace 1: per-layer metrics ----

struct Deltas {
  std::map<std::string, double> value, sum, count;
};

Deltas registry_deltas(const std::vector<WorldResult>& runs) {
  Deltas d;
  for (const WorldResult& r : runs) {
    for (const auto& [key, v] : r.after.value) {
      const auto it = r.before.value.find(key);
      d.value[key] += v - (it == r.before.value.end() ? 0.0 : it->second);
    }
    for (const auto& [key, v] : r.after.sum) {
      const auto it = r.before.sum.find(key);
      d.sum[key] += v - (it == r.before.sum.end() ? 0.0 : it->second);
    }
    for (const auto& [key, v] : r.after.count) {
      const auto it = r.before.count.find(key);
      d.count[key] += v - (it == r.before.count.end() ? 0.0 : it->second);
    }
  }
  return d;
}

double get(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

// Writes each traced window's split so the benchmark's own test can check
// that close + hook + residual add up to the window's wall time.
void write_window_parts(const std::string& path,
                        const std::vector<WorldResult>& traced) {
  std::ofstream out(path);
  out << std::setprecision(17) << "[";
  bool first = true;
  for (std::size_t k = 0; k < traced.size(); ++k) {
    const WorldResult& r = traced[k];
    for (std::size_t i = 0; i < r.window_ms.size(); ++i) {
      const double residual = r.window_ms[i] - r.close_ms[i] - r.hook_ms[i];
      out << (first ? "" : ",\n") << "{\"world\": " << k
          << ", \"window_ms\": " << r.window_ms[i]
          << ", \"close_ms\": " << r.close_ms[i]
          << ", \"hook_ms\": " << r.hook_ms[i]
          << ", \"residual_ms\": " << residual << "}";
      first = false;
    }
  }
  out << "]\n";
}

int run_traced(const Workload& wl, const Args& args, int world_count) {
  SpeedReference reference;
  std::vector<WorldResult> untraced;
  std::vector<WorldResult> traced;
  for (int k = 0; k < world_count; ++k) {
    RunOptions opt = base_options(wl, args);
    opt.seed = world_seed(args.seed, k);
    opt.windows = kWorldWindows;
    opt.check_at = k == 0 ? kCheckWindows : 0;
    opt.reference = &reference;
    opt.traced = true;
    traced.push_back(run_world(opt));
    // The untraced twin replays exactly the same windows, so the overhead
    // compares like with like.
    opt.traced = false;
    untraced.push_back(run_world(opt));
    std::printf("world %d (seed %llu): traced %zu windows in %.3f s, "
                "untraced %zu windows in %.3f s\n",
                k, static_cast<unsigned long long>(opt.seed),
                traced.back().window_ms.size(), traced.back().elapsed_s,
                untraced.back().window_ms.size(), untraced.back().elapsed_s);
  }
  const WorldResult serial = check_run(wl, args, 1, 1);
  const double worlds = static_cast<double>(traced.size());

  Report report;
  const bool agree =
      outputs_agree(untraced[0], traced[0], serial, report.errors);
  std::vector<WorldResult> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  Tally t = tally(all);
  t.errors.insert(t.errors.end(), serial.errors.begin(), serial.errors.end());

  // Per-window split.
  double windows = 0.0, window_ms = 0.0, close_ms = 0.0, hook_ms = 0.0;
  for (const WorldResult& r : traced) {
    for (std::size_t i = 0; i < r.window_ms.size(); ++i) {
      windows += 1.0;
      window_ms += r.window_ms[i];
      close_ms += r.close_ms[i];
      hook_ms += r.hook_ms[i];
      if (r.close_ms[i] + r.hook_ms[i] > r.window_ms[i] + 1e-3) {
        report.errors.push_back("window parts exceed the window wall time");
      }
    }
  }
  const double residual_ms = window_ms - close_ms - hook_ms;
  write_window_parts(args.scratch + "/window-parts-" + wl.name + ".json",
                     traced);

  const Deltas d = registry_deltas(traced);
  double elapsed_s = 0.0;
  // Probe values are means over the traced worlds, counts included.
  LayerProbes p;
  double traces = 0.0, routing_events = 0.0;
  std::vector<double> construct, warmup, init;
  double match_ms = 0.0, publish_ms = 0.0, plan_ms = 0.0, refresh_us = 0.0;
  std::int64_t publishes = 0, plans = 0, refreshes = 0, changed = 0;
  std::vector<double> rtt, late;
  std::int64_t query_failures = 0;
  for (const WorldResult& r : traced) {
    elapsed_s += r.elapsed_s;
    construct.push_back(r.construct_ms);
    warmup.push_back(r.warmup_ms);
    init.push_back(r.init_corpus_ms);
    match_ms += r.match_ms / worlds;
    publish_ms += r.publish_ms;
    publishes += r.publishes;
    plan_ms += r.plan_ms;
    plans += r.plans;
    refresh_us += r.refresh_us;
    refreshes += r.refreshes + r.refresh_failures;
    changed += r.refreshes_changed;
    const double n = worlds;
    p.issue_us += r.probes.issue_us / n;
    p.hops_per_trace += r.probes.hops_per_trace / n;
    traces += static_cast<double>(r.probes.traces) / n;
    p.tracemap_ingest_us += r.probes.tracemap_ingest_us / n;
    p.tracemap_process_us += r.probes.tracemap_process_us / n;
    p.engine_public_trace_us += r.probes.engine_public_trace_us / n;
    p.routing_apply_us += r.probes.routing_apply_us / n;
    routing_events += static_cast<double>(r.probes.routing_events) / n;
    p.bgp_on_event_us += r.probes.bgp_on_event_us / n;
    p.bgp_records_per_event += r.probes.bgp_records_per_event / n;
    p.engine_bgp_record_us += r.probes.engine_bgp_record_us / n;
    p.serve_handle_us += r.probes.serve_handle_us / n;
  }
  // Query latencies, like the window tail, come from the untraced twins.
  for (const WorldResult& r : untraced) {
    rtt.insert(rtt.end(), r.query_rtt_us.begin(), r.query_rtt_us.end());
    late.insert(late.end(), r.generator_late_ms.begin(),
                r.generator_late_ms.end());
    query_failures += r.query_failures;
  }
  const std::vector<double> queries = query_latencies(untraced);

  // Layer shares of traced window time (printed, and recorded per workload
  // in BENCHMARK.json's "why").
  const double issue_ingest_ms =
      (p.issue_us + p.engine_public_trace_us) * wl.public_rate / 1e3;
  std::printf("traced window split over %.0f windows: close %.1f%%, hook "
              "%.1f%%, residual %.1f%% (of %.3f ms/window)\n",
              windows, 100.0 * ratio(close_ms, window_ms),
              100.0 * ratio(hook_ms, window_ms),
              100.0 * ratio(residual_ms, window_ms), ratio(window_ms, windows));
  std::printf("traceroute issue + engine ingest at %d traces/window: %.3f "
              "ms/window, %.1f%% of window time\n",
              wl.public_rate, issue_ingest_ms,
              100.0 * ratio(issue_ingest_ms, ratio(window_ms, windows)));
  print_live_summary(wl, untraced);

  std::printf("metrics:\n");
  report.add("eval.construct_ms", median(construct), "ms");
  report.add("eval.warmup_ms", median(warmup), "ms");
  report.add("eval.init_corpus_ms", median(init), "ms");
  report.add("eval.window_ms", ratio(window_ms, windows), "ms");
  // Tails come from the untraced twins: tracing must not inflate them.
  const std::vector<double> twin_windows =
      pooled(untraced, &WorldResult::window_ms);
  const double window_tail = tail_percentile(twin_windows.size());
  std::printf("  (window tail: p%g of %zu untraced windows, %lld beyond)\n",
              window_tail, twin_windows.size(),
              static_cast<long long>(
                  beyond(twin_windows.size(), window_tail)));
  report.add("eval.window_ms_tail", percentile(twin_windows, window_tail),
             "ms");
  report.add("eval.sim_residual_ms", ratio(residual_ms, windows), "ms");
  report.add("eval.match_ms", match_ms, "ms");
  QualityTally q;
  for (const WorldResult& r : traced) {
    q.correct += r.quality.correct;
    q.signals += r.quality.signals;
    q.covered += r.quality.covered;
    q.changes += r.quality.changes;
  }
  std::printf("  (graded the first %d windows of %zu worlds: %.0f of %lld "
              "signals precise, %.0f of %lld changes covered)\n",
              kWorldWindows, traced.size(), q.correct,
              static_cast<long long>(q.signals), q.covered,
              static_cast<long long>(q.changes));
  report.add("eval.precision", ratio(q.correct, static_cast<double>(q.signals)),
             "ratio");
  report.add("eval.coverage", ratio(q.covered, static_cast<double>(q.changes)),
             "ratio");
  // The end-to-end timings on the wall clock, from the untraced twins, and
  // the machine speed they were scaled by.
  const Timings wall = timings(untraced, false);
  report.add("eval.wall.windows_per_s", wall.windows_per_s, "windows/s");
  report.add("eval.wall.window_ms_p50", wall.window_ms_p50, "ms");
  report.add("eval.wall.setup_s", wall.setup_s, "s");
  report.add("eval.reference_slice_ms",
             median(pooled(untraced, &WorldResult::reference_ms)), "ms");

  auto per_window = [&](double v) { return ratio(v, windows); };
  report.add("signals.close_ms",
             per_window(get(d.sum, "rrr_engine_window_close_us")) / 1e3, "ms");
  for (const char* tech : kTechniques) {
    report.add(std::string("signals.close_ms.") + tech,
               per_window(get(d.sum, series_key("rrr_monitor_close_us",
                                                "technique", tech))) /
                   1e3,
               "ms");
  }
  for (const char* tech : kTechniques) {
    report.add(std::string("signals.close_items.") + tech,
               per_window(get(d.sum, series_key("rrr_monitor_close_items",
                                                "technique", tech))),
               "items/window");
  }
  const std::pair<const char*, const char*> phases[] = {
      {"signals.dispatch_ms", "rrr_engine_dispatch_us"},
      {"signals.absorb_ms", "rrr_engine_absorb_us"},
      {"signals.absorb_wait_ms", "rrr_engine_absorb_wait_us"},
      {"signals.merge_ms", "rrr_engine_merge_us"},
      {"signals.register_ms", "rrr_engine_register_us"},
  };
  for (const auto& [name, series] : phases) {
    report.add(name, per_window(get(d.sum, series)) / 1e3, "ms");
  }
  double shard_max = 0.0, shard_total = 0.0;
  for (int s = 0; s < wl.engine_shards; ++s) {
    const double v = get(
        d.sum, series_key("rrr_shard_close_us", "shard", std::to_string(s)));
    shard_max = std::max(shard_max, v);
    shard_total += v;
  }
  report.add("signals.shard_skew",
             ratio(shard_max, shard_total / wl.engine_shards), "ratio");

  report.add("signals.on_public_trace_us", p.engine_public_trace_us, "us");
  report.add("signals.on_bgp_record_us", p.engine_bgp_record_us, "us");
  report.add("signals.plan_refreshes_ms", ratio(plan_ms, plans), "ms");
  report.add("signals.refresh_pair_us", ratio(refresh_us, refreshes), "us");
  report.add("signals.refresh_hit_rate",
             ratio(static_cast<double>(changed),
                   static_cast<double>(refreshes)),
             "ratio");

  report.add("signals.records_absorbed",
             per_window(get(d.value, "rrr_bgp_records_absorbed_total")),
             "1/window");
  double emitted = 0.0, dropped_unhealthy = 0.0;
  for (const char* tech : kTechniques) {
    const double v = get(
        d.value, series_key("rrr_signals_emitted_total", "technique", tech));
    emitted += v;
    dropped_unhealthy += get(
        d.value, series_key("rrr_signals_dropped_unhealthy_feed_total",
                            "technique", tech));
    report.add(std::string("signals.emitted.") + tech, per_window(v),
               "1/window");
  }
  for (const char* tech : kTechniques) {
    report.add(std::string("signals.potentials_opened.") + tech,
               per_window(get(d.value, series_key("rrr_potentials_opened_total",
                                                  "technique", tech))),
               "1/window");
  }
  report.add("signals.revocations",
             per_window(get(d.value, "rrr_revocations_total")), "1/window");
  const double suppressed =
      get(d.value, "rrr_signals_suppressed_cooldown_total");
  const double raw = emitted + suppressed + dropped_unhealthy +
                     get(d.value, "rrr_signals_dropped_refreshed_total");
  std::printf("  (cooldown-suppressed %.0f of %.0f raw signals)\n", suppressed,
              raw);
  report.add("signals.cooldown_suppressed_ratio", ratio(suppressed, raw),
             "ratio");

  report.add("traceroute.issue_us", p.issue_us, "us");
  report.add("traceroute.hops_per_trace", p.hops_per_trace, "hops");
  report.add("traceroute.traces", traces, "1/world");
  report.add("tracemap.ingest_us", p.tracemap_ingest_us, "us");
  report.add("tracemap.process_us", p.tracemap_process_us, "us");
  report.add("routing.apply_us", p.routing_apply_us, "us");
  report.add("routing.events", routing_events, "1/world");
  report.add("bgp.on_event_us", p.bgp_on_event_us, "us");
  report.add("bgp.records_per_event", p.bgp_records_per_event, "records");

  report.add("serve.publish_ms", ratio(publish_ms, publishes), "ms");
  report.add("serve.handle_us", p.serve_handle_us, "us");
  report.add("serve.query_us", median(rtt), "us");
  report.add("serve.queries", static_cast<double>(queries.size()) / worlds,
             "1/world");
  report.add("serve.query_failures",
             static_cast<double>(query_failures) / worlds, "1/world");
  report.add("serve.generator_late_ms", mean(late), "ms");
  report.add("serve.query_ms_p50", median(queries), "ms");
  report.add("serve.query_ms_tail",
             percentile(queries, tail_percentile(queries.size())),
             "ms");

  report.add("store.checkpoint_write_ms",
             ratio(get(d.sum, "rrr_checkpoint_write_us"),
                   get(d.count, "rrr_checkpoint_write_us")) /
                 1e3,
             "ms");
  double snapshot_bytes = 0.0;
  for (const WorldResult& r : traced) {
    snapshot_bytes += get(r.after.value, "rrr_checkpoint_snapshot_bytes") /
                      worlds;
  }
  report.add("store.snapshot_bytes", snapshot_bytes, "bytes");
  report.add("store.wal_ops",
             per_window(get(d.value, "rrr_checkpoint_wal_ops_total")),
             "1/window");

  report.add("runtime.pool_wait_ms",
             per_window(get(d.sum, "rrr_pool_task_wait_us")) / 1e3, "ms");
  report.add("runtime.pool_run_ms",
             per_window(get(d.sum, "rrr_pool_task_run_us")) / 1e3, "ms");
  report.add("runtime.pool_tasks",
             per_window(get(d.value, "rrr_pool_tasks_total")), "1/window");
  report.add("runtime.pool_utilization",
             ratio(get(d.value, "rrr_pool_busy_us_total"),
                   elapsed_s * 1e6 * wl.engine_threads),
             "ratio");

  report.add("obs.trace_overhead",
             1.0 - ratio(timings(traced, false).windows_per_s,
                         wall.windows_per_s),
             "ratio");

  for (const std::string& e : t.errors) report.errors.push_back(e);
  for (const std::string& e : report.errors) {
    std::printf("error: %s\n", e.c_str());
  }
  const bool correct = agree && t.failed == 0 && report.errors.empty();
  report.print_json(correct, t.attempted, t.failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  refuse_unfit_build();
  const Workload& wl = *find_workload(args.workload);
  try {
    validate(wl);
  } catch (const std::exception& error) {
    refuse(error.what());
  }
  std::error_code ec;
  std::filesystem::create_directories(args.scratch, ec);
  if (ec) refuse("cannot create scratch directory " + args.scratch);

  std::printf("rrr_perfbench: workload %s, seed %llu, %d s, trace %d\n",
              wl.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  std::printf("build: %s, compiler %s, nproc %u\n", PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, std::thread::hardware_concurrency());
  // The traced run builds a traced world and its untraced twin per world.
  const int worlds = worlds_per_run(wl, args, args.trace ? 0.5 : 1.0);
  std::printf("shape: %d pairs, %d public traces/window, engine %dx%d "
              "(threads x shards), %d worlds of %d windows\n",
              wl.pairs, wl.public_rate, wl.engine_threads, wl.engine_shards,
              worlds, kWorldWindows);
  std::fflush(stdout);
  try {
    return args.trace ? run_traced(wl, args, worlds)
                      : run_untraced(wl, args, worlds);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "rrr_perfbench: %s\n", error.what());
    return 1;
  }
}
