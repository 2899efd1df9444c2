// Micro-benchmarks for the performance-critical building blocks: longest
// prefix matching, outlier detectors, route computation, forwarding
// resolution, traceroute processing and intern-table lookups. Whole-window
// cost, BGP records and signals included, is perfbench's to measure
// (perfbench/README.md).
#include <benchmark/benchmark.h>

#include "detect/detector.h"
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

void BM_TraceProcessing(benchmark::State& state) {
  topo::Topology& topology = shared_topology();
  static routing::ControlPlane cp(topology, 7);
  static tr::Platform platform(cp, tr::ProberParams{},
                               tr::PlatformParams{});
  static tracemap::ProcessingContext processing(topology, {});
  Rng rng(8);
  std::vector<tr::Traceroute> traces;
  for (int i = 0; i < 256; ++i) {
    tr::ProbeId probe = platform.regular_probes()[rng.index(
        platform.regular_probes().size())];
    auto dst_as =
        static_cast<topo::AsIndex>(rng.index(topology.as_count()));
    traces.push_back(platform.issue(
        probe, Ipv4(topo::as_block(dst_as).network().value() + 1),
        TimePoint(static_cast<std::int64_t>(i) * 900), i & 0xF));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(processing.process(traces[i++ & 255]));
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

}  // namespace

BENCHMARK_MAIN();
