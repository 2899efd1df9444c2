// The benchmark's three workloads. All use fig11's topology and archive mode
// (no free recalibration); they differ in corpus size, public feed rate,
// engine knobs and what the benchmark does at each window boundary.
#include <stdexcept>

#include "bench.h"
#include "netbase/rng.h"

namespace perfbench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> out;

    // Large corpus, thin public feed: the BGP monitors' window close does
    // most of the work, so close-path, detector and pool changes show here
    // and simulator changes must not.
    Workload bgp;
    bgp.name = "bgp_corpus";
    bgp.pairs = 4000;
    bgp.public_rate = 50;
    bgp.engine_threads = 4;
    bgp.engine_shards = 4;
    // Its window time varies most between topologies, so it gets the most
    // worlds per run.
    bgp.world_seconds = 2.0;
    out.push_back(bgp);

    // Small corpus, public feed at World's ceiling: traceroute issue and
    // engine ingest do most of the work, so prober, forwarding and tracemap
    // changes show here and close-path changes must not.
    Workload trace;
    trace.name = "trace_feed";
    trace.pairs = 300;
    trace.public_rate = 900;
    trace.world_seconds = 4.0;
    out.push_back(trace);

    // fig11 run like the documented daemon: the only workload that runs
    // serve, store and the refresh planner, mixing engine writes (refresh,
    // WAL appends) with reads (publish, /v1 queries).
    Workload live;
    live.name = "live_service";
    live.pairs = 1200;
    live.public_rate = 800;
    live.engine_threads = 2;
    live.engine_shards = 2;
    live.world_seconds = 5.5;
    live.live = true;
    // fig07_live_eval's default daily budget: corpus pairs / 25.
    live.refreshes_per_day = live.pairs / 25;
    live.checkpoint_every = 96;
    live.query_rate = 200.0;
    out.push_back(live);
    return out;
  }();
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void validate(const Workload& w) {
  // World::run_until spaces public slots max(900 / rate, 1) s apart, so a
  // rate above one trace per second of the window is silently capped.
  const int ceiling = static_cast<int>(rrr::kBaseWindowSeconds);
  if (w.public_rate < 1 || w.public_rate > ceiling) {
    throw std::invalid_argument(w.name + ": public rate " +
                                std::to_string(w.public_rate) +
                                " outside 1.." + std::to_string(ceiling) +
                                " traces per window");
  }
  if (w.pairs < 1 || w.engine_threads < 1 || w.engine_shards < 1 ||
      w.world_seconds <= 0.0) {
    throw std::invalid_argument(w.name + ": malformed workload shape");
  }
  if (w.live && (w.refreshes_per_day < 1 || w.checkpoint_every < 1 ||
                 w.query_rate <= 0.0)) {
    throw std::invalid_argument(w.name + ": live knobs must be positive");
  }
}

int refreshes_due(const Workload& w, std::int64_t window) {
  const std::int64_t per_day = rrr::kSecondsPerDay / rrr::kBaseWindowSeconds;
  const auto spent = [&](std::int64_t windows) {
    return windows * w.refreshes_per_day / per_day;
  };
  return static_cast<int>(spent(window + 1) - spent(window));
}

rrr::eval::WorldParams world_params(const Workload& w, std::uint64_t seed) {
  rrr::eval::WorldParams p;
  // fig11's topology and platform (bench::retrospective_params + fig11).
  p.topology.num_transit = 48;
  p.topology.num_stub = 200;
  p.platform.num_probes = 700;
  p.platform.probe_death_per_day = 0.006;
  p.corpus_dest_count = 36;
  p.recalibration_interval_windows = 0;  // archive mode
  // fig11's default length, of which a world runs the first kWorldWindows
  // windows; one warm-up day keeps set-up short.
  p.days = 14;
  p.warmup_days = 1;
  p.seed = seed;
  p.corpus_pair_target = w.pairs;
  p.public_traces_per_window = w.public_rate;
  p.engine_threads = w.engine_threads;
  p.engine_shards = w.engine_shards;
  return p;
}

std::uint64_t world_seed(std::uint64_t run_seed, int k) {
  return k == 0 ? run_seed
                : rrr::Rng(run_seed).split(static_cast<std::uint64_t>(k))
                      .seed();
}

}  // namespace perfbench
