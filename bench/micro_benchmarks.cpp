// Micro-benchmarks for the performance-critical building blocks: longest
// prefix matching, outlier detectors, route computation, forwarding
// resolution, public traceroute issue and ingest, traceroute processing,
// the engine's whole public-trace ingest, intern-table lookups and corpus
// refresh. Whole-window cost, BGP records
// and signals included, is perfbench's to measure (perfbench/README.md).
#include <benchmark/benchmark.h>

#include "detect/detector.h"
#include "eval/world.h"
#include "netbase/intern.h"
#include "netbase/radix_trie.h"
#include "netbase/rng.h"
#include "routing/control_plane.h"
#include "topology/builder.h"
#include "tracemap/pipeline.h"
#include "traceroute/platform.h"

namespace {

using namespace rrr;

topo::Topology& shared_topology() {
  static topo::Topology topology = [] {
    topo::TopologyParams params;
    params.seed = 1234;
    return topo::build_topology(params);
  }();
  return topology;
}

void BM_RadixTrieLookup(benchmark::State& state) {
  RadixTrie<int> trie;
  Rng rng(1);
  std::vector<Ipv4> probes;
  for (int i = 0; i < 4096; ++i) {
    auto ip = Ipv4(static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30)));
    trie.insert(Prefix(ip, static_cast<std::uint8_t>(
                               rng.uniform_int(8, 24))),
                i);
    probes.push_back(ip);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.lookup(probes[i++ & 4095]));
  }
}
BENCHMARK(BM_RadixTrieLookup);

void BM_ModifiedZScoreUpdate(benchmark::State& state) {
  detect::ModifiedZScoreDetector detector;
  Rng rng(2);
  for (int i = 0; i < 96; ++i) detector.update(rng.uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.update(rng.uniform()));
  }
}
BENCHMARK(BM_ModifiedZScoreUpdate);

void BM_BitmapUpdate(benchmark::State& state) {
  detect::BitmapDetector detector;
  Rng rng(3);
  for (int i = 0; i < 40; ++i) detector.update(rng.uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.update(rng.uniform()));
  }
}
BENCHMARK(BM_BitmapUpdate);

void BM_RouteComputation(benchmark::State& state) {
  topo::Topology& topology = shared_topology();
  routing::RoutingState rs(topology);
  std::size_t origin = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::compute_routes(
        topology, rs, static_cast<topo::AsIndex>(origin)));
    origin = (origin + 17) % topology.as_count();
  }
}
BENCHMARK(BM_RouteComputation);

void BM_ForwardingResolve(benchmark::State& state) {
  topo::Topology& topology = shared_topology();
  static routing::ControlPlane cp(topology, 5);
  Rng rng(6);
  std::vector<std::pair<topo::AsIndex, Ipv4>> queries;
  for (int i = 0; i < 512; ++i) {
    auto src = static_cast<topo::AsIndex>(rng.index(topology.as_count()));
    auto dst = static_cast<topo::AsIndex>(rng.index(topology.as_count()));
    queries.emplace_back(
        src, Ipv4(topo::as_block(dst).network().value() + 1));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [src, dst] = queries[i++ & 511];
    benchmark::DoNotOptimize(cp.resolver().resolve(
        src, topology.as_at(src).pops.front(), dst, i));
  }
}
BENCHMARK(BM_ForwardingResolve);

// World's public traceroute feed in miniature: 4096 (probe, destination,
// flow variant) triples drawn like World::issue_public_trace draws them —
// probes from half the regular probes, 120 host destinations (half in the
// anchors' ASes, half in random ASes), variants 0-15 — issued one second
// apart, so every measurement keys a fresh per-trace Rng.
struct PublicFeed {
  struct Shot {
    tr::ProbeId probe;
    Ipv4 dst;
    int variant;
  };

  PublicFeed()
      : cp(shared_topology(), 9),
        platform(cp, tr::ProberParams{}, tr::PlatformParams{}) {
    topo::Topology& topology = shared_topology();
    Rng rng(10);
    std::vector<tr::ProbeId> probes;
    for (std::size_t i = 0; i < platform.regular_probes().size(); i += 2) {
      probes.push_back(platform.regular_probes()[i]);
    }
    std::vector<Ipv4> dests;
    for (int i = 0; i < 120; ++i) {
      const auto& anchors = platform.anchors();
      topo::AsIndex as =
          i % 2 == 0 ? platform.probe(anchors[(i / 2) % anchors.size()]).as
                     : static_cast<topo::AsIndex>(
                           rng.index(topology.as_count()));
      dests.push_back(topology.allocate_host_ip(as));
    }
    for (int i = 0; i < 4096; ++i) {
      const tr::ProbeId probe = probes[rng.index(probes.size())];
      const Ipv4 dst = dests[rng.index(dests.size())];
      shots.push_back(
          Shot{probe, dst, static_cast<int>(rng.uniform_int(0, 15))});
    }
  }

  tr::Traceroute issue(std::size_t i) {
    const Shot& shot = shots[i & 4095];
    return platform.issue(shot.probe, shot.dst,
                          TimePoint(static_cast<std::int64_t>(i)),
                          shot.variant);
  }

  routing::ControlPlane cp;
  tr::Platform platform;
  std::vector<Shot> shots;
};

PublicFeed& public_feed() {
  static PublicFeed feed;
  return feed;
}

// One public traceroute: forwarding resolution plus the prober's per-trace
// Rng and per-hop draws.
void BM_PublicTraceIssue(benchmark::State& state) {
  PublicFeed& feed = public_feed();
  std::size_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(feed.issue(i++));
}
BENCHMARK(BM_PublicTraceIssue);

// The feed's 4096 shots, each issued once.
const std::vector<tr::Traceroute>& feed_traces() {
  static const std::vector<tr::Traceroute> traces = [] {
    std::vector<tr::Traceroute> issued;
    for (std::size_t i = 0; i < 4096; ++i) {
      issued.push_back(public_feed().issue(i));
    }
    return issued;
  }();
  return traces;
}

// What the engine does first with each public traceroute: learn its hop
// triples and process it, on a patcher warmed with the feed's 4096 shots.
void BM_TraceIngest(benchmark::State& state) {
  const std::vector<tr::Traceroute>& traces = feed_traces();
  static tracemap::ProcessingContext processing(shared_topology(), {});
  for (const tr::Traceroute& trace : traces) processing.ingest(trace);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(processing.ingest(traces[i++ & 4095]));
  }
}
BENCHMARK(BM_TraceIngest);

// Processing alone — patch, per-hop annotation, AS path and borders — of
// the same traces, on a patcher warmed as BM_TraceIngest warms its own.
void BM_TraceProcessing(benchmark::State& state) {
  const std::vector<tr::Traceroute>& traces = feed_traces();
  static tracemap::ProcessingContext processing(shared_topology(), {});
  for (const tr::Traceroute& trace : traces) processing.ingest(trace);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(processing.process(traces[i++ & 4095]));
  }
}
BENCHMARK(BM_TraceProcessing);

// The two primitives the interning refactor put on the per-record path:
// content→id lookup of an already-interned AS path (the steady state — new
// content is rare by design) and id→content resolution (one acquire-load).
void BM_InternLookup(benchmark::State& state) {
  Interner::ScopedInstance interner;
  Rng rng(7);
  std::vector<AsPath> paths;
  std::vector<PathId> ids;
  for (int i = 0; i < 1024; ++i) {
    AsPath path;
    int hops = static_cast<int>(rng.uniform_int(2, 6));
    for (int h = 0; h < hops; ++h) {
      path.push_back(Asn(static_cast<std::uint32_t>(
          rng.uniform_int(64500, 64500 + 200))));
    }
    paths.push_back(path);
    ids.push_back(interner.get().path_id(path));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    PathId id = interner.get().path_id(paths[i & 1023]);
    benchmark::DoNotOptimize(id);
    benchmark::DoNotOptimize(&interner.get().path(ids[i & 1023]));
    ++i;
  }
}
BENCHMARK(BM_InternLookup);

// A perfbench world (perfbench/workload.cpp): fig11's topology and
// platform over 36 destinations in archive mode, one warm-up day, seed 1,
// with the workload's corpus size, public feed rate and engine (threads =
// shards).
eval::WorldParams perfbench_world(int pairs, int public_rate, int engine) {
  eval::WorldParams p;
  p.topology.num_transit = 48;
  p.topology.num_stub = 200;
  p.platform.num_probes = 700;
  p.platform.probe_death_per_day = 0.006;
  p.corpus_dest_count = 36;
  p.recalibration_interval_windows = 0;
  p.days = 14;
  p.warmup_days = 1;
  p.seed = 1;
  p.corpus_pair_target = pairs;
  p.public_traces_per_window = public_rate;
  p.engine_threads = engine;
  p.engine_shards = engine;
  return p;
}

// A trace_feed-shaped world (300 pairs, 900 public traces a window, engine
// 1x1) after its warm-up day, corpus initialization and one day of
// windows, with 4096 public-feed shots, drawn the way
// World::issue_public_trace draws them, issued in the next window.
struct IngestWorld {
  IngestWorld() : world(perfbench_world(300, 900, 1)) {
    world.run_until(world.corpus_t0());
    world.initialize_corpus();
    const TimePoint now = world.corpus_t0() + kSecondsPerDay;
    world.run_until(now);
    Rng rng(12);
    const auto& probes = world.public_probes();
    const auto& dests = world.public_dests();
    while (traces.size() < 4096) {
      const tr::ProbeId probe = probes[rng.index(probes.size())];
      if (!world.platform().probe(probe).active) continue;
      const Ipv4 dst = dests[rng.index(dests.size())];
      const int variant = static_cast<int>(rng.uniform_int(0, 15));
      traces.push_back(world.platform().issue(
          probe, dst, now + static_cast<std::int64_t>(traces.size() / 8),
          variant));
    }
  }

  eval::World world;
  std::vector<tr::Traceroute> traces;
};

// One Engine::on_public_trace on that world: learn the trace's triples,
// process it, and feed the subpath, border and IXP monitors their
// corpus-subscribed series.
void BM_EngineIngest(benchmark::State& state) {
  static IngestWorld live;
  signals::Engine& engine = live.world.engine();
  std::size_t i = 0;
  for (auto _ : state) engine.on_public_trace(live.traces[i++ & 4095]);
}
BENCHMARK(BM_EngineIngest);

// A bgp_corpus-shaped world (4000 pairs, 50 public traces a window, engine
// 4x4) after its warm-up day and corpus initialization, with one fresh
// traceroute per pair issued a window later.
struct RefreshCorpus {
  RefreshCorpus() : world(perfbench_world(4000, 50, 4)) {
    world.run_until(world.corpus_t0());
    world.initialize_corpus();
    const TimePoint t = world.corpus_t0() + world.window_seconds();
    for (const tr::PairKey& pair : world.ground_truth().pairs()) {
      fresh.push_back(world.issue_corpus_traceroute(pair, t));
    }
  }

  eval::World world;
  std::vector<tr::Traceroute> fresh;
};

// One Engine::apply_refresh, cycling through the corpus as recalibration
// does: grade the pair's potentials, unwatch it and watch the fresh trace.
void BM_CorpusRefresh(benchmark::State& state) {
  static RefreshCorpus corpus;
  signals::Engine& engine = corpus.world.engine();
  std::size_t i = 0;
  for (auto _ : state) {
    const tr::Traceroute& trace = corpus.fresh[i++ % corpus.fresh.size()];
    benchmark::DoNotOptimize(engine.apply_refresh(
        corpus.world.platform().probe(trace.probe), trace));
  }
}
BENCHMARK(BM_CorpusRefresh);

}  // namespace

BENCHMARK_MAIN();
