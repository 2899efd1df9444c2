#include "runner.h"

#include <atomic>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "eval/metrics.h"
#include "obs/http_export.h"
#include "serve/http_client.h"
#include "serve/service.h"

namespace perfbench {
namespace {

using rrr::TimePoint;
using rrr::signals::StalenessSignal;

// Open-loop /v1 client: query i is due at start + i / rate whether or not
// the previous one has returned, and its latency runs from when it was due,
// so a stall also delays every query queued behind it. Rotates over the
// targets. A query fails on a connect error, a non-200 status or a body
// that does not parse.
class LoadGenerator {
 public:
  LoadGenerator(int port, std::vector<std::string> targets, double rate)
      : port_(port), targets_(std::move(targets)), period_s_(1.0 / rate) {
    thread_ = std::thread([this] { loop(); });
  }
  ~LoadGenerator() { stop(); }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  // Joins the client; results are readable afterwards.
  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> latency_ms;  // from due; failures are +inf
  std::vector<double> rtt_us;      // send to reply, successes only
  std::vector<double> late_ms;     // how late each send left
  std::int64_t failures = 0;

 private:
  void loop() {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; !stop_.load(std::memory_order_relaxed); ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(i) * period_s_));
      std::this_thread::sleep_until(due);
      if (stop_.load(std::memory_order_relaxed)) break;
      const Clock::time_point sent = Clock::now();
      bool ok = false;
      try {
        std::optional<rrr::serve::HttpResult> reply =
            rrr::serve::http_get(port_, targets_[i % targets_.size()]);
        ok = reply && reply->status == 200 && json_valid(reply->body);
      } catch (const std::exception&) {
        ok = false;
      }
      const Clock::time_point done = Clock::now();
      late_ms.push_back(ms_between(due, sent));
      if (ok) {
        latency_ms.push_back(ms_between(due, done));
        rtt_us.push_back(ms_between(sent, done) * 1e3);
      } else {
        ++failures;
        latency_ms.push_back(std::numeric_limits<double>::infinity());
      }
    }
  }

  int port_;
  std::vector<std::string> targets_;
  double period_s_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after every member it reads
};

// The five documented /v1 targets, anchored on a real corpus pair.
std::vector<std::string> api_targets(const rrr::tr::PairKey& pair) {
  const std::string q = "src=" + std::to_string(pair.probe) +
                        "&dst=" + pair.dst.to_string();
  return {
      "/v1/verdict?" + q,
      "/v1/signals?" + q + "&limit=8",
      "/v1/pairs?limit=50",
      "/v1/pairs?freshness=stale&limit=50",
      "/v1/refresh-queue?k=20",
  };
}

// Grades the signals of the first `windows` corpus windows against the
// ground-truth changes inside the same span (Table 2's "All" row).
QualityTally grade(rrr::eval::World& world,
                   const std::vector<StalenessSignal>& sigs,
                   std::int64_t windows) {
  const TimePoint horizon =
      world.corpus_t0() + windows * world.window_seconds();
  std::vector<rrr::eval::ChangeEvent> changes;
  for (const rrr::eval::ChangeEvent& change : world.ground_truth().changes()) {
    if (change.time < horizon) changes.push_back(change);
  }
  rrr::eval::StalenessOracle oracle;
  oracle.ground_truth = &world.ground_truth();
  oracle.corpus_t0 = world.corpus_t0();
  oracle.refresh_times = world.recalibration_times();
  rrr::eval::SignalMatcher matcher(sigs, changes, {}, &oracle);
  const rrr::eval::Table2Result table = matcher.table2();
  QualityTally tally;
  tally.signals = table.all.signal_count;
  tally.correct =
      std::round(table.all.precision * static_cast<double>(tally.signals));
  tally.changes = table.total_changes;
  tally.covered =
      std::round(table.all.cov_all * static_cast<double>(tally.changes));
  return tally;
}

}  // namespace

WorldResult run_world(const RunOptions& opt) {
  namespace fs = std::filesystem;
  const Workload& wl = *opt.workload;
  WorldResult r;
  r.seed = opt.seed;

  rrr::eval::WorldParams params = world_params(wl, opt.seed);
  params.engine_threads = opt.engine_threads;
  params.engine_shards = opt.engine_shards;
  params.telemetry = opt.telemetry || opt.traced;
  params.trace = opt.traced;
  if (opt.daemon) {
    params.checkpoint_dir = opt.scratch + "/ckpt-" + wl.name + "-" +
                            std::to_string(opt.seed);
    fs::remove_all(params.checkpoint_dir);
    params.checkpoint_every = wl.checkpoint_every;
  }

  if (opt.reference != nullptr) {
    for (int i = 0; i < kSetupSlices; ++i) {
      r.reference_ms.push_back(opt.reference->slice_ms());
    }
  }
  SpanLog spans(opt.traced);
  std::unique_ptr<rrr::eval::World> owner;
  {
    ScopedSpan span(spans, "construct");
    const Clock::time_point t0 = Clock::now();
    owner = std::make_unique<rrr::eval::World>(params);
    r.construct_ms = ms_since(t0);
  }
  rrr::eval::World& world = *owner;
  {
    ScopedSpan span(spans, "warmup");
    const Clock::time_point t0 = Clock::now();
    world.run_until(world.corpus_t0());
    r.warmup_ms = ms_since(t0);
  }
  {
    ScopedSpan span(spans, "init_corpus");
    const Clock::time_point t0 = Clock::now();
    r.pairs = world.initialize_corpus();
    r.init_corpus_ms = ms_since(t0);
  }
  const std::vector<rrr::tr::PairKey> pair_list = world.ground_truth().pairs();
  const std::set<rrr::tr::PairKey> corpus(pair_list.begin(), pair_list.end());
  const std::vector<std::string> targets = api_targets(pair_list.front());

  // Serving stack. Declaration order is destruction order reversed: the
  // client stops before the server, the server before the service it calls.
  std::unique_ptr<rrr::serve::StalenessService> service;
  std::unique_ptr<rrr::obs::HttpServer> server;
  std::unique_ptr<LoadGenerator> client;
  if (opt.daemon) {
    ScopedSpan span(spans, "server_start");
    const Clock::time_point t0 = Clock::now();
    service = std::make_unique<rrr::serve::StalenessService>();
    rrr::obs::HttpHandlers handlers;
    rrr::serve::StalenessService* svc = service.get();
    handlers.api = [svc](const std::string& target) {
      return svc->handle(target);
    };
    server = std::make_unique<rrr::obs::HttpServer>(0, std::move(handlers));
    r.server_ms = ms_since(t0);
  }

  // Per-window state the hook fills in.
  const std::int64_t first_window = world.completed_windows();
  SignalDigest digest;
  std::vector<StalenessSignal> graded;
  bool window_ok = false;
  bool hook_ran = false;
  double hook_ms = 0.0;
  rrr::eval::World::Hooks hooks;
  hooks.on_signals = [&](std::int64_t window, TimePoint window_end,
                         std::vector<StalenessSignal>&& sigs) {
    ScopedSpan hook_span(spans, "hook", window);
    const Clock::time_point t0 = Clock::now();
    hook_ran = true;
    // Output check: every signal names a corpus pair, a known technique
    // and a time inside the windows closed so far.
    for (const StalenessSignal& s : sigs) {
      if (corpus.count(s.pair) == 0 || s.time > window_end ||
          s.window > window || static_cast<int>(s.technique) > 5) {
        window_ok = false;
      }
    }
    digest.fold(window, sigs);
    if (opt.traced) graded.insert(graded.end(), sigs.begin(), sigs.end());
    if (service != nullptr) {
      ScopedSpan span(spans, "serve_publish", window);
      const Clock::time_point p0 = Clock::now();
      service->on_window(world.engine(), window, window_end, sigs);
      r.publish_ms += ms_since(p0);
      ++r.publishes;
    }
    const int budget =
        wl.live ? refreshes_due(wl, window - first_window) : 0;
    if (budget > 0) {
      std::vector<rrr::tr::PairKey> plan;
      {
        ScopedSpan span(spans, "plan_refreshes", window);
        const Clock::time_point p0 = Clock::now();
        plan = world.plan_refreshes(budget);
        r.plan_ms += ms_since(p0);
        ++r.plans;
      }
      for (const rrr::tr::PairKey& pair : plan) {
        ScopedSpan span(spans, "refresh_pair", window);
        const Clock::time_point p0 = Clock::now();
        try {
          const rrr::signals::RefreshOutcome outcome =
              world.refresh_pair(pair, window_end);
          ++r.refreshes;
          if (outcome.change != rrr::tracemap::ChangeKind::kNone) {
            ++r.refreshes_changed;
          }
        } catch (const std::exception& error) {
          ++r.refresh_failures;
          r.errors.push_back(std::string("refresh: ") + error.what());
        }
        r.refresh_us += ms_since(p0) * 1e3;
      }
    }
    hook_ms = ms_since(t0);
  };

  // Traced worlds split each window into engine close, hook and residual;
  // the close comes from the engine's own rrr_engine_window_close_us.
  rrr::obs::Histogram* close_hist = nullptr;
  if (opt.traced && world.metrics_mutable() != nullptr) {
    close_hist = &world.metrics_mutable()->histogram(
        "rrr_engine_window_close_us", rrr::obs::duration_buckets_us());
    r.before = read_registry(world.metrics());
  }

  const std::int64_t last_window =
      (world.end() - world.start()) / world.window_seconds();
  double excluded_s = 0.0;  // check snapshots taken inside the phase
  const Clock::time_point phase_start = Clock::now();
  while (world.completed_windows() < last_window) {
    const std::int64_t done = world.completed_windows() - first_window;
    if (done >= opt.windows) break;

    const std::int64_t expected = world.completed_windows() + 1;
    const TimePoint next = world.start() + expected * world.window_seconds();
    window_ok = true;
    hook_ran = false;
    hook_ms = 0.0;
    const double close_before = close_hist ? close_hist->sum() : 0.0;
    bool threw = false;
    Clock::time_point w0;
    {
      ScopedSpan span(spans, "window", expected - 1);
      w0 = Clock::now();
      try {
        world.run_until(next, hooks);
      } catch (const std::exception& error) {
        threw = true;
        r.errors.push_back(std::string("window: ") + error.what());
      }
    }
    const double wall_ms = ms_since(w0);
    r.window_ms.push_back(wall_ms);
    if (close_hist != nullptr) {
      r.close_ms.push_back((close_hist->sum() - close_before) / 1e3);
      r.hook_ms.push_back(hook_ms);
    }
    if (threw || !hook_ran || !window_ok ||
        world.completed_windows() != expected) {
      ++r.windows_failed;
      if (!threw) r.errors.push_back("window output check failed");
      if (threw) break;  // the world's state is no longer trustworthy
    }
    if (opt.daemon && client == nullptr) {
      // The first snapshot is published; a client started earlier would
      // only collect 404s for pairs no snapshot holds yet.
      client = std::make_unique<LoadGenerator>(server->port(), targets,
                                               wl.query_rate);
    }
    if (opt.check_at > 0 && done + 1 == opt.check_at) {
      const Clock::time_point c0 = Clock::now();
      r.digest_at_check = digest;
      r.semantic_at_check = world.semantic_stats_json();
      r.check_reached = true;
      excluded_s += ms_since(c0) / 1e3;
    }
    if (opt.reference != nullptr && (done + 1) % kWindowsPerSlice == 0) {
      const Clock::time_point s0 = Clock::now();
      r.reference_ms.push_back(opt.reference->slice_ms());
      excluded_s += ms_since(s0) / 1e3;
    }
  }
  r.elapsed_s =
      std::chrono::duration<double>(Clock::now() - phase_start).count() -
      excluded_s;
  if (client != nullptr) {
    client->stop();
    r.query_ms = std::move(client->latency_ms);
    r.query_rtt_us = std::move(client->rtt_us);
    r.generator_late_ms = std::move(client->late_ms);
    r.query_failures = client->failures;
  }
  if (opt.traced) {
    r.after = read_registry(world.metrics());
    {
      ScopedSpan span(spans, "match");
      const Clock::time_point t0 = Clock::now();
      r.quality = grade(world, graded,
                        static_cast<std::int64_t>(r.window_ms.size()));
      r.match_ms = ms_since(t0);
    }
    r.probes = run_probes(world, service.get(), targets, spans);
    if (world.tracer() != nullptr) {
      spans.export_to(*world.tracer());
      const std::string path = opt.scratch + "/trace-" + wl.name + ".json";
      std::ofstream(path) << world.trace_json() << "\n";
    }
  }
  client.reset();
  server.reset();
  owner.reset();
  if (opt.daemon) fs::remove_all(params.checkpoint_dir);
  return r;
}

}  // namespace perfbench
