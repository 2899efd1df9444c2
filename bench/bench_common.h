// Shared helpers for the experiment harnesses in bench/: flag parsing,
// standard world configurations, and the fan-out runner that spreads
// independent World instances (seed replicates, parameter points) over a
// thread pool.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "eval/report.h"
#include "eval/world.h"
#include "serve/service.h"
#include "netbase/parse.h"
#include "netbase/rng.h"
#include "obs/export.h"
#include "obs/http_export.h"
#include "obs/trace.h"
#include "runtime/parallel.h"

namespace rrr::bench {

// A misconfigured harness must not run on a fallback: it names the setting
// (a flag such as "--pairs", or an environment variable) and what is wrong
// with it, and exits with status 2.
[[noreturn]] inline void exit_misconfigured(const std::string& setting,
                                            const std::string& problem) {
  std::cerr << setting << ": " << problem << "\n";
  std::exit(2);
}

// The setting got a value that does not parse (or none at all).
[[noreturn]] inline void reject_setting(const std::string& setting,
                                        const std::string& value) {
  exit_misconfigured(setting, value.empty() ? "missing value"
                                            : "cannot parse \"" + value + "\"");
}

// Parses the whole of `value` as a number (netbase/parse.h), or rejects
// `setting`.
template <typename T>
T parse_setting(const std::string& setting, const std::string& value) {
  std::optional<T> out = rrr::parse_number<T>(value);
  if (!out) reject_setting(setting, value);
  return *out;
}

// Splits a `separator`-separated list, dropping empty items.
inline std::vector<std::string> split_list(const std::string& text,
                                           char separator = ',') {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(text);
  while (std::getline(in, item, separator)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// The flag names each shared helper below reads. A harness builds its Flags
// from the groups of the helpers it calls plus a list of its own names, and
// declares a group only when it honors every flag in it.
using FlagNames = std::span<const std::string_view>;
// retrospective_params().
inline constexpr std::string_view kWorldFlags[] = {
    "days", "pairs", "dests", "public-rate", "probes", "seed",
    "engine-threads", "engine-shards"};
// The run's two output files: write_stats_json() at stats_json_path() and
// maybe_write_trace(). Declared only by harnesses that write both.
inline constexpr std::string_view kOutputFlags[] = {"stats-json",
                                                    "trace-out"};
// apply_fault_flags(), which retrospective_params() calls.
inline constexpr std::string_view kFeedFaultFlags[] = {"fault-plan",
                                                       "feed-health"};
// apply_io_fault_flags(). Declared only by harnesses whose worlds do store
// IO (checkpoint or resume).
inline constexpr std::string_view kIoFaultFlags[] = {"io-fault-plan",
                                                     "io-retry"};
// fanout_threads().
inline constexpr std::string_view kFanOutFlags[] = {"threads"};
// ScopedObsServer.
inline constexpr std::string_view kObsServerFlags[] = {"serve",
                                                       "serve-linger"};

// Minimal flag parser: --name value or --name=value; bools as --name. The
// constructor exits 2, naming every --name outside the declared groups, so
// a misspelled or retired flag never runs on a default. A value-taking
// flag given without a value, or with one that does not parse in full,
// exits 2 when read (reject_setting). Reading a name the harness did not
// declare returns the fallback: it cannot be on the command line.
class Flags {
 public:
  Flags(int argc, char** argv, std::initializer_list<FlagNames> declared) {
    for (FlagNames group : declared) {
      declared_.insert(declared_.end(), group.begin(), group.end());
    }
    std::string unknown;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const std::string_view flag = arg.substr(0, arg.find('='));
      if (flag.rfind("--", 0) == 0 && !declares(flag.substr(2))) {
        if (!unknown.empty()) unknown += ' ';
        unknown += flag;
      }
      args_.emplace_back(arg);
    }
    if (!unknown.empty()) exit_misconfigured(unknown, "unknown flag");
  }

  bool declares(std::string_view name) const {
    return std::find(declared_.begin(), declared_.end(), name) !=
           declared_.end();
  }

  long long get_int(const std::string& name, long long fallback) const {
    std::string value;
    return find(name, value) ? parse_setting<long long>("--" + name, value)
                             : fallback;
  }
  double get_double(const std::string& name, double fallback) const {
    std::string value;
    return find(name, value) ? parse_setting<double>("--" + name, value)
                             : fallback;
  }
  bool get_bool(const std::string& name) const {
    std::string value;
    return find(name, value);
  }
  std::string get_str(const std::string& name,
                      const std::string& fallback) const {
    std::string value;
    if (!find(name, value)) return fallback;
    if (value.empty()) reject_setting("--" + name, value);
    return value;
  }

 private:
  bool find(const std::string& name, std::string& value) const {
    std::string flag = "--" + name;
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == flag) {
        value = i + 1 < args_.size() && args_[i + 1].rfind("--", 0) != 0
                    ? args_[i + 1]
                    : "";
        return true;
      }
      if (args_[i].rfind(flag + "=", 0) == 0) {
        value = args_[i].substr(flag.size() + 1);
        return true;
      }
    }
    return false;
  }

  std::vector<std::string_view> declared_;
  std::vector<std::string> args_;
};

// Telemetry knobs: `--stats-json <path>` (kOutputFlags) turns the engine's
// telemetry on and writes the collected stats there; the RRR_STATS
// environment variable force-enables collection without a file.
inline bool stats_enabled(const Flags& flags) {
  return flags.get_bool("stats-json") || obs::env_enabled();
}
inline std::string stats_json_path(const Flags& flags) {
  return flags.get_str("stats-json", "");
}

// Flight-recorder knobs (DESIGN.md §13): `--trace-out <path>`
// (kOutputFlags) turns the trace recorder on and writes the Chrome
// trace-event JSON there after the run; the RRR_TRACE environment variable
// force-enables recording without a file (the trace is still reachable via
// --serve).
inline bool trace_enabled(const Flags& flags) {
  return flags.get_bool("trace-out") || obs::trace_env_enabled();
}
inline std::string trace_out_path(const Flags& flags) {
  return flags.get_str("trace-out", "");
}

// One run's collected telemetry, ready for the shared JSON writer.
struct RunStats {
  std::string label;
  std::string stats;     // cumulative snapshot (JSON metric array)
  std::string semantic;  // semantic-domain-only snapshot (JSON metric array)
  std::string windows;   // sparse per-window series (JSON array)
  std::string trace;     // flight-recorder export (Chrome trace JSON)
};

// Process memory footprint from /proc/self/status, in kB: current resident
// set (VmRSS) and lifetime peak (VmHWM). Zero when the field is missing
// (non-Linux). Captured into the stats envelope so memory regressions show
// up in the same artifact the CI perf step already uploads.
struct MemoryUsage {
  long long rss_kb = 0;
  long long peak_rss_kb = 0;
};

inline MemoryUsage read_memory_usage() {
  MemoryUsage usage;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      usage.rss_kb = std::atoll(line.c_str() + 6);
    } else if (line.rfind("VmHWM:", 0) == 0) {
      usage.peak_rss_kb = std::atoll(line.c_str() + 6);
    }
  }
  return usage;
}

// Snapshot a world's telemetry under `label`; empty JSON when telemetry is
// off (the writer still emits the run, keeping run indices aligned).
inline RunStats capture_stats(const std::string& label,
                              const eval::World& world) {
  return RunStats{label, world.stats_json(), world.semantic_stats_json(),
                  world.stats_series_json(), world.trace_json()};
}

// Writes the primary run's flight-recorder export to --trace-out. Fan-out
// harnesses pass replicate 0's trace; the other replicates record too (the
// knob is per-world) but only the primary is written, keeping one file per
// invocation.
inline void maybe_write_trace(const Flags& flags, const std::string& trace,
                              std::ostream& log) {
  std::string path = trace_out_path(flags);
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    log << "trace-out: cannot open " << path << "\n";
    return;
  }
  out << trace << "\n";
  log << "trace-out: wrote " << trace.size() << " bytes to " << path << "\n";
}

// The one stats file writer every harness shares: a versioned envelope of
// per-run objects, each holding the final cumulative snapshot and the
// per-window series.
inline void write_stats_json(const std::string& path,
                             const std::vector<RunStats>& runs,
                             std::ostream& log) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    log << "stats-json: cannot open " << path << "\n";
    return;
  }
  MemoryUsage memory = read_memory_usage();
  out << "{\"schema\":\"rrr-stats-v1\",\"memory\":{\"rss_kb\":"
      << memory.rss_kb << ",\"peak_rss_kb\":" << memory.peak_rss_kb
      << "},\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) out << ",";
    out << "{\"label\":\"" << obs::json_escape(runs[i].label)
        << "\",\"stats\":" << (runs[i].stats.empty() ? "[]" : runs[i].stats)
        << ",\"semantic\":"
        << (runs[i].semantic.empty() ? "[]" : runs[i].semantic)
        << ",\"windows\":"
        << (runs[i].windows.empty() ? "[]" : runs[i].windows) << "}";
  }
  out << "]}\n";
  log << "stats-json: wrote " << runs.size() << " run(s) to " << path
      << "\n";
}

// Feed-fault knobs: `--fault-plan <spec>` takes a full plan spec
// (fault::FaultPlan::parse syntax, e.g.
// "collector_blackout=0.3,blackout_start=96,blackout_windows=24"), and the
// RRR_FAULT_PLAN environment variable supplies the same spec when the flag
// is absent; `--feed-health` turns on the engine's quarantine tracker. A
// spec that does not parse exits 2. A harness that does not declare
// kFeedFaultFlags (fig_fault_sweep, which plans each arm itself) reads
// neither the flags nor the variable.
inline void apply_fault_flags(const Flags& flags, eval::WorldParams& params) {
  if (!flags.declares("fault-plan")) return;
  std::string source = "--fault-plan";
  std::string spec = flags.get_str("fault-plan", "");
  if (spec.empty()) {
    const char* env = std::getenv("RRR_FAULT_PLAN");
    if (env != nullptr) {
      source = "RRR_FAULT_PLAN";
      spec = env;
    }
  }
  if (!spec.empty()) {
    std::optional<fault::FaultPlan> parsed = fault::FaultPlan::parse(spec);
    if (!parsed) reject_setting(source, spec);
    params.fault_plan = *parsed;
  }
  if (flags.get_bool("feed-health")) params.feed_health.enabled = true;
}

// Storage-fault knobs (DESIGN.md §14), read only where kIoFaultFlags is
// declared: `--io-fault-plan <spec>` injects storage faults into every store
// IO (fault::IoFaultPlan::parse syntax, e.g. "torn=0.05,enospc=0.02,seed=7";
// RRR_IO_FAULT_PLAN supplies the spec when the flag is absent), and
// `--io-retry <spec>` configures the transient-error retry policy
// (store::RetryPolicy::parse, e.g. "attempts=4,base_us=100"). A spec that
// does not parse exits 2. Returns the first setting that configured store
// IO, or an empty string when none did, so a harness can reject one that no
// store IO would read.
inline std::string apply_io_fault_flags(const Flags& flags,
                                        eval::WorldParams& params) {
  if (!flags.declares("io-fault-plan")) return "";
  std::string applied;
  std::string source = "--io-fault-plan";
  std::string spec = flags.get_str("io-fault-plan", "");
  if (spec.empty()) {
    const char* env = std::getenv("RRR_IO_FAULT_PLAN");
    if (env != nullptr) {
      source = "RRR_IO_FAULT_PLAN";
      spec = env;
    }
  }
  if (!spec.empty()) {
    std::optional<fault::IoFaultPlan> parsed = fault::IoFaultPlan::parse(spec);
    if (!parsed) reject_setting(source, spec);
    params.io_fault_plan = *parsed;
    applied = source;
  }
  std::string retry = flags.get_str("io-retry", "");
  if (!retry.empty()) {
    std::optional<store::RetryPolicy> parsed = store::RetryPolicy::parse(retry);
    if (!parsed) reject_setting("--io-retry", retry);
    params.io_retry = *parsed;
    if (applied.empty()) applied = "--io-retry";
  }
  return applied;
}

// The standard retrospective-evaluation world (§5.1), scaled down from the
// paper's 223k pairs to laptop size; flags override.
inline eval::WorldParams retrospective_params(const Flags& flags) {
  eval::WorldParams params;
  params.days = static_cast<int>(flags.get_int("days", 18));
  params.corpus_pair_target =
      static_cast<int>(flags.get_int("pairs", 1200));
  params.corpus_dest_count = static_cast<int>(flags.get_int("dests", 36));
  params.public_traces_per_window =
      static_cast<int>(flags.get_int("public-rate", 800));
  params.platform.num_probes =
      static_cast<int>(flags.get_int("probes", 700));
  params.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  params.topology.num_transit = 48;
  params.topology.num_stub = 200;
  params.engine_threads = static_cast<int>(flags.get_int("engine-threads", 1));
  params.engine_shards = static_cast<int>(flags.get_int("engine-shards", 1));
  // A live /metrics endpoint is useless without a registry behind it, so
  // --serve implies telemetry even when --stats-json is absent.
  params.telemetry =
      stats_enabled(flags) || flags.get_int("serve", -1) >= 0;
  params.trace = trace_enabled(flags);
  apply_fault_flags(flags, params);
  return params;
}

// Live endpoint for a running bench: `--serve PORT` starts the loopback
// HTTP server (obs/http_export.h) for the process lifetime. It answers the
// introspection routes (/metrics, /healthz, /stats.json, /trace.json) and
// the staleness query service's /v1 family (serve/service.h), which reads
// the snapshot the attached world publishes at each window boundary.
// `--serve-linger N` keeps it up N extra seconds after the run so a scraper
// polling mid-run always gets one last look; without --serve it exits 2.
// The handlers read whichever World is currently attached — harnesses
// attach the primary replicate for the duration of its run (WorldLease
// below), and routes answer with empty-but-valid documents while no world
// is attached (before the first window, between replicates, during the
// linger).
class ScopedObsServer {
 public:
  ScopedObsServer(const Flags& flags, std::ostream& log) : log_(&log) {
    const long long port = flags.get_int("serve", -1);
    if (port < 0) {
      if (flags.get_bool("serve-linger")) {
        exit_misconfigured("--serve-linger", "needs --serve");
      }
      return;
    }
    linger_seconds_ = static_cast<int>(flags.get_int("serve-linger", 0));
    service_ = std::make_unique<serve::StalenessService>();
    obs::HttpHandlers handlers;
    // The service is built before the server thread starts and outlives it
    // (declaration order below), so no lock here: handle() copies the
    // published snapshot pointer under the service's own lock.
    handlers.api = [this](const std::string& target) {
      return service_->handle(target);
    };
    handlers.metrics_text = [this] {
      std::lock_guard<std::mutex> lock(mu_);
      return world_ != nullptr ? world_->stats_prometheus() : std::string();
    };
    handlers.stats_json = [this] {
      std::lock_guard<std::mutex> lock(mu_);
      return world_ != nullptr ? world_->stats_json() : std::string("[]");
    };
    handlers.trace_json = [this] {
      std::lock_guard<std::mutex> lock(mu_);
      return world_ != nullptr
                 ? world_->trace_json()
                 : std::string(
                       "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
    };
    try {
      server_ = std::make_unique<obs::HttpServer>(static_cast<int>(port),
                                                  std::move(handlers));
      log << "serve: listening on 127.0.0.1:" << server_->port() << "\n";
    } catch (const std::exception& error) {
      log << "serve: " << error.what() << " — endpoint disabled\n";
      service_.reset();
    }
  }

  ~ScopedObsServer() {
    if (server_ != nullptr && linger_seconds_ > 0) {
      *log_ << "serve: lingering " << linger_seconds_ << " s ("
            << server_->requests_served() << " request(s) served)\n";
      std::this_thread::sleep_for(std::chrono::seconds(linger_seconds_));
    }
  }

  ScopedObsServer(const ScopedObsServer&) = delete;
  ScopedObsServer& operator=(const ScopedObsServer&) = delete;

  bool active() const { return server_ != nullptr; }
  int port() const { return server_ != nullptr ? server_->port() : -1; }
  // Null unless the server bound.
  serve::StalenessService* serving() { return service_.get(); }

  void attach(const eval::World* world) {
    std::lock_guard<std::mutex> lock(mu_);
    world_ = world;
  }
  void detach(const eval::World* world) {
    std::lock_guard<std::mutex> lock(mu_);
    if (world_ == world) world_ = nullptr;
  }

 private:
  mutable std::mutex mu_;
  const eval::World* world_ = nullptr;  // guarded by mu_
  // Declared before server_: the server thread calls into the service, so
  // the service must outlive it (members destroy in reverse order).
  std::unique_ptr<serve::StalenessService> service_;
  std::unique_ptr<obs::HttpServer> server_;
  int linger_seconds_ = 0;
  std::ostream* log_;
};

// RAII attach/detach of one World to the live endpoint: the primary
// replicate constructs a lease around its World for the scope of its run,
// so the endpoint never serves a pointer to a destroyed world. The lease
// also wires the world's window boundary to the query service, and unwires
// on release — queries after the lease keep answering from the last
// published snapshot, which owns every byte it needs (see
// serve/snapshot.h).
class WorldLease {
 public:
  WorldLease(ScopedObsServer& server, eval::World* world)
      : server_(&server), world_(world) {
    server_->attach(world_);
    world_->attach_serving(server_->serving());
  }
  ~WorldLease() {
    world_->attach_serving(nullptr);
    server_->detach(world_);
  }
  WorldLease(const WorldLease&) = delete;
  WorldLease& operator=(const WorldLease&) = delete;

 private:
  ScopedObsServer* server_;
  eval::World* world_;
};

// Parallelism for bench fan-outs: --threads wins, otherwise the hardware,
// capped by the task count (an idle worker is pure overhead here).
inline int fanout_threads(const Flags& flags, std::size_t tasks) {
  long long requested = flags.get_int("threads", 0);
  int threads = requested > 0
                    ? static_cast<int>(requested)
                    : static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  if (static_cast<std::size_t>(threads) > tasks) {
    threads = static_cast<int>(tasks);
  }
  return threads;
}

// The i-th replicate seed of a sweep. Replicate 0 keeps the base seed so a
// single-task fan-out reproduces the historical single-run output exactly;
// later replicates draw from pre-split Rng streams (never a shared one).
inline std::uint64_t replicate_seed(std::uint64_t base, std::size_t i) {
  return i == 0 ? base : Rng(base).split(i).seed();
}

// Runs one independent task per label on a pool and returns results in task
// order (output is therefore identical whatever the parallelism). Each task
// builds its own World — nothing is shared across tasks, so no locking and
// no cross-task RNG. Prints the thread count up front and per-task wall
// times at the end.
template <typename Result, typename Fn>
std::vector<Result> fan_out(int threads,
                            const std::vector<std::string>& labels, Fn&& task,
                            std::ostream& log) {
  runtime::ThreadPool pool(threads);
  log << "fan-out: " << labels.size() << " task(s) on "
      << pool.thread_count() << " thread(s)\n";
  std::vector<Result> results(labels.size());
  std::vector<double> wall_seconds(labels.size(), 0.0);
  runtime::parallel_for(
      &pool, labels.size(),
      [&](std::size_t i) {
        auto begin = std::chrono::steady_clock::now();
        results[i] = task(i);
        wall_seconds[i] =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          begin)
                .count();
      },
      /*grain=*/1);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    log << "  [" << labels[i] << "] "
        << eval::TableWriter::fmt(wall_seconds[i], 2) << " s\n";
  }
  return results;
}

}  // namespace rrr::bench
