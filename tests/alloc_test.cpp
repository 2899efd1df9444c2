// The allocation budget of a public traceroute. Platform::issue allocates
// only the returned trace's hops, and Engine::on_public_trace allocates
// nothing in steady state: the prober resolves into a path it keeps, the
// engine processes into a trace it keeps, and every lookup on the way is a
// flat-table probe. A counting global operator new tallies the heap
// allocations of each call; the world runs one engine thread, so the
// counts are deterministic.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "eval/world.h"

namespace {

std::atomic<std::uint64_t> allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

// Out of line: a free() inlined where the block's operator new is visible
// reads to GCC as a mismatched pair (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

// Every replaceable unaligned form (a sanitizer runtime replaces them all),
// so that each allocation is counted and every block is freed by the
// allocator that made it.
void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

namespace rrr::eval {
namespace {

constexpr std::size_t kShots = 4096;

TEST(AllocationBudget, PublicTraceIssueAndIngest) {
  WorldParams params;
  params.days = 2;
  params.warmup_days = 1;
  params.corpus_pair_target = 200;
  params.corpus_dest_count = 12;
  params.public_dest_count = 50;
  params.public_traces_per_window = 300;
  params.platform.num_probes = 200;
  params.topology.num_transit = 24;
  params.topology.num_stub = 80;
  params.seed = 5;
  World world(params);
  world.run_until(world.corpus_t0());
  ASSERT_GT(world.initialize_corpus(), 0u);
  // A few windows past corpus init, so every buffer has seen a full load.
  const TimePoint now = world.corpus_t0() + 8 * world.window_seconds();
  world.run_until(now);

  // Public-feed shots drawn the way World::issue_public_trace draws them,
  // spread over the next window.
  struct Shot {
    tr::ProbeId probe;
    Ipv4 dst;
    int variant;
    TimePoint t;
  };
  std::vector<Shot> shots;
  Rng rng(6);
  const auto& probes = world.public_probes();
  const auto& dests = world.public_dests();
  while (shots.size() < kShots) {
    const tr::ProbeId probe = probes[rng.index(probes.size())];
    if (!world.platform().probe(probe).active) continue;
    const auto at = static_cast<std::int64_t>(shots.size());
    shots.push_back(Shot{
        probe, dests[rng.index(dests.size())],
        static_cast<int>(rng.uniform_int(0, 15)),
        now + at * world.window_seconds() / static_cast<std::int64_t>(kShots)});
  }
  std::vector<tr::Traceroute> traces;
  traces.reserve(kShots);

  const std::uint64_t before_issue = allocations.load();
  for (const Shot& shot : shots) {
    traces.push_back(
        world.platform().issue(shot.probe, shot.dst, shot.t, shot.variant));
  }
  const std::uint64_t issued = allocations.load() - before_issue;

  signals::Engine& engine = world.engine();
  const std::uint64_t before_ingest = allocations.load();
  for (const tr::Traceroute& trace : traces) engine.on_public_trace(trace);
  const std::uint64_t ingested = allocations.load() - before_ingest;

  const double per_issue = static_cast<double>(issued) / kShots;
  const double per_ingest = static_cast<double>(ingested) / kShots;
  std::printf("allocations per trace: Platform::issue %.4f, "
              "Engine::on_public_trace %.4f\n",
              per_issue, per_ingest);
  EXPECT_LE(per_issue, 1.0);
  EXPECT_LE(per_ingest, 0.05);
}

}  // namespace
}  // namespace rrr::eval
