// Tests for the flight recorder (src/obs/trace.h) and the HTTP
// introspection endpoint (src/obs/http_export.h): ring wraparound and drop
// accounting, the bounded recorder's eviction policy, concurrent writers
// against a concurrent drainer (runs under `ctest -L tsan`), a golden
// Chrome trace-event export with a pinned wall anchor, live-endpoint
// round-trips, and the traced-run byte-identity contract (tracing is
// kRuntime-only and must not move semantic output).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "eval/world.h"
#include "netbase/intern.h"
#include "obs/export.h"
#include "obs/http_export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rrr::obs {
namespace {

TraceEvent make_span(const char* name, const char* category,
                     std::int64_t start_ns, std::int64_t dur_ns,
                     std::int64_t window = -1,
                     const char* arg_name = nullptr, std::int64_t arg = 0) {
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.phase = TracePhase::kSpan;
  event.start_ns = start_ns;
  event.dur_ns = dur_ns;
  event.window = window;
  event.arg_name = arg_name;
  event.arg = arg;
  return event;
}

TEST(TraceRing, PushDrainPreservesOrderAndRejectsWhenFull) {
  TraceRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.try_push(make_span("e", "t", i, 1)));
  }
  EXPECT_FALSE(ring.try_push(make_span("overflow", "t", 99, 1)));

  std::vector<std::int64_t> starts;
  EXPECT_EQ(ring.drain([&](const TraceEvent& e) {
    starts.push_back(e.start_ns);
  }), 4u);
  EXPECT_EQ(starts, (std::vector<std::int64_t>{0, 1, 2, 3}));
  // Drained slots are reusable.
  EXPECT_TRUE(ring.try_push(make_span("again", "t", 5, 1)));
  EXPECT_EQ(ring.drain([](const TraceEvent&) {}), 1u);
}

TEST(TraceRecorder, FullRingDropsAreCountedPerReason) {
  TraceParams params;
  params.ring_capacity = 8;
  TraceRecorder recorder(params);
  MetricsRegistry registry;
  recorder.set_metrics(registry);

  // 20 pushes into an 8-slot ring with no drain in between: 8 retained,
  // 12 dropped at the ring.
  for (int i = 0; i < 20; ++i) {
    recorder.record(make_span("e", "t", i, 1));
  }
  recorder.drain();
  EXPECT_EQ(recorder.event_count(), 8u);
  EXPECT_EQ(recorder.dropped(), 12);
  EXPECT_EQ(registry
                .counter("rrr_trace_events_total", {}, Domain::kRuntime)
                .value(),
            8);
  EXPECT_EQ(registry
                .counter("rrr_trace_events_dropped_total",
                         {{"reason", "ring"}}, Domain::kRuntime)
                .value(),
            12);
  EXPECT_EQ(registry
                .counter("rrr_trace_events_dropped_total",
                         {{"reason", "recorder"}}, Domain::kRuntime)
                .value(),
            0);

  // After a drain the ring is empty again; further pushes are retained and
  // the drop watermark does not double-count earlier losses.
  for (int i = 0; i < 4; ++i) {
    recorder.record(make_span("e2", "t", 100 + i, 1));
  }
  recorder.drain();
  EXPECT_EQ(recorder.event_count(), 12u);
  EXPECT_EQ(recorder.dropped(), 12);
}

TEST(TraceRecorder, BoundedStoreEvictsOldestAndCounts) {
  TraceParams params;
  params.ring_capacity = 64;
  params.recorder_capacity = 10;
  params.wall_anchor_us = 0;  // exported ts == start_ns / 1000
  TraceRecorder recorder(params);
  MetricsRegistry registry;
  recorder.set_metrics(registry);

  for (std::int64_t i = 0; i < 30; ++i) {
    recorder.record(make_span("e", "t", i * 1'000'000, 1));
    recorder.drain();
  }
  EXPECT_EQ(recorder.event_count(), 10u);
  EXPECT_EQ(recorder.dropped(), 20);
  EXPECT_EQ(registry
                .counter("rrr_trace_events_dropped_total",
                         {{"reason", "recorder"}}, Domain::kRuntime)
                .value(),
            20);
  // The survivors are the *newest* events (starts 20ms..29ms); the oldest
  // were evicted.
  std::string json = recorder.json();
  EXPECT_EQ(json.find("\"ts\":0,"), std::string::npos);
  EXPECT_EQ(json.find("\"ts\":19000,"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":20000,"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":29000,"), std::string::npos);
}

TEST(TraceRecorder, GoldenChromeTraceExport) {
  TraceParams params;
  params.wall_anchor_us = 1000000;  // pinned: output is byte-stable
  TraceRecorder recorder(params);
  recorder.name_this_thread("driver");

  recorder.record(make_span("dispatch", "close", 2'000'000, 1'500'000,
                            /*window=*/3, "records", 42));
  TraceEvent storm;
  storm.name = "fault_replay_storm";
  storm.category = "fault";
  storm.phase = TracePhase::kInstant;
  storm.start_ns = 4'000'000;
  storm.arg_name = "records";
  storm.arg = 7;
  recorder.record(storm);
  recorder.record(make_span("window", "window", 1'000'000, 5'000'000,
                            /*window=*/3));
  recorder.drain();

  // Events sorted by start time; metadata first; ts = anchor + start/1000.
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"driver\"}},"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1001000,\"dur\":5000,"
      "\"name\":\"window\",\"cat\":\"window\",\"args\":{\"window\":3}},"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1002000,\"dur\":1500,"
      "\"name\":\"dispatch\",\"cat\":\"close\","
      "\"args\":{\"window\":3,\"records\":42}},"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":1004000,\"s\":\"t\","
      "\"name\":\"fault_replay_storm\",\"cat\":\"fault\","
      "\"args\":{\"records\":7}}"
      "]}";
  EXPECT_EQ(recorder.json(), expected);
  // json() does not drain: a second call sees the same document.
  EXPECT_EQ(recorder.json(), expected);
}

TEST(TraceSpan, NullRecorderIsANoOpAndLiveOneRecords) {
  { TraceSpan span(nullptr, "noop", "test"); }  // must not crash

  TraceRecorder recorder;
  { TraceSpan span(&recorder, "work", "test", /*window=*/5, "items", 17); }
  recorder.instant("mark", "test");
  recorder.drain();
  EXPECT_EQ(recorder.event_count(), 2u);
  std::string json = recorder.json();
  EXPECT_NE(json.find("\"name\":\"work\""), std::string::npos);
  EXPECT_NE(json.find("\"items\":17"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"mark\""), std::string::npos);
}

TEST(TraceEnv, TraceEnvEnabledKnob) {
  ::unsetenv("RRR_TRACE");
  EXPECT_FALSE(trace_env_enabled());
  ::setenv("RRR_TRACE", "0", 1);
  EXPECT_FALSE(trace_env_enabled());
  ::setenv("RRR_TRACE", "", 1);
  EXPECT_FALSE(trace_env_enabled());
  ::setenv("RRR_TRACE", "1", 1);
  EXPECT_TRUE(trace_env_enabled());
  ::unsetenv("RRR_TRACE");
}

// Concurrent producers on their own rings, a drainer folding them into the
// store mid-flight, and a reader exporting JSON — the exact shape of a
// traced sharded close with a live /trace.json scrape (runs under TSAN).
TEST(Concurrency, WritersDrainAndExportRace) {
  TraceParams params;
  params.ring_capacity = 1 << 12;
  TraceRecorder recorder(params);
  MetricsRegistry registry;
  recorder.set_metrics(registry);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> done{false};

  std::thread drainer([&] {
    while (!done.load(std::memory_order_acquire)) {
      recorder.drain();
      std::string json = recorder.json();
      ASSERT_FALSE(json.empty());
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceSpan span(&recorder, "task", "pool", /*window=*/i);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_release);
  drainer.join();
  recorder.drain();

  // Conservation: every push either landed in the store or was counted.
  const auto total = static_cast<std::int64_t>(kThreads) * kPerThread;
  EXPECT_EQ(static_cast<std::int64_t>(recorder.event_count()) +
                recorder.dropped(),
            total);
}

// Minimal HTTP client for the loopback endpoint tests.
std::string http_get(int port, const std::string& request_text) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    ADD_FAILURE() << "connect failed";
    return "";
  }
  const char* data = request_text.c_str();
  std::size_t remaining = request_text.size();
  while (remaining > 0) {
    ssize_t sent = ::send(fd, data, remaining, 0);
    if (sent <= 0) break;
    data += sent;
    remaining -= static_cast<std::size_t>(sent);
  }
  std::string response;
  char buf[4096];
  ssize_t got;
  while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return response;
}

TEST(HttpServer, ServesAllRoutesOnEphemeralPort) {
  HttpHandlers handlers;
  handlers.metrics_text = [] {
    return std::string("rrr_test_total 1\n");
  };
  handlers.stats_json = [] { return std::string("[{\"ok\":true}]"); };
  handlers.trace_json = [] {
    return std::string("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
  };
  HttpServer server(0, std::move(handlers));
  ASSERT_GT(server.port(), 0);

  std::string health = http_get(server.port(),
                                "GET /healthz HTTP/1.1\r\n"
                                "Host: localhost\r\n\r\n");
  EXPECT_NE(health.find("200"), std::string::npos);
  EXPECT_NE(health.find("ok\n"), std::string::npos);

  std::string metrics = http_get(server.port(),
                                 "GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("rrr_test_total 1"), std::string::npos);

  std::string stats = http_get(server.port(),
                               "GET /stats.json HTTP/1.1\r\n\r\n");
  EXPECT_NE(stats.find("application/json"), std::string::npos);
  EXPECT_NE(stats.find("[{\"ok\":true}]"), std::string::npos);

  std::string trace = http_get(server.port(),
                               "GET /trace.json HTTP/1.1\r\n\r\n");
  EXPECT_NE(trace.find("traceEvents"), std::string::npos);

  std::string missing = http_get(server.port(),
                                 "GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_NE(missing.find("404"), std::string::npos);

  std::string post = http_get(server.port(),
                              "POST /metrics HTTP/1.1\r\n"
                              "Content-Length: 0\r\n\r\n");
  EXPECT_NE(post.find("405"), std::string::npos);

  EXPECT_EQ(server.requests_served(), 6);
}

TEST(HttpServer, HandlerExceptionsAndShutdownAreClean) {
  {
    HttpHandlers handlers;  // all empty: routes 404, /healthz defaults
    HttpServer server(0, std::move(handlers));
    std::string health =
        http_get(server.port(), "GET /healthz HTTP/1.1\r\n\r\n");
    EXPECT_NE(health.find("ok\n"), std::string::npos);
    std::string metrics =
        http_get(server.port(), "GET /metrics HTTP/1.1\r\n\r\n");
    EXPECT_NE(metrics.find("404"), std::string::npos);
  }  // destructor joins without a pending request — must not hang
}

TEST(HttpServer, OversizeRequestHeadGets431) {
  HttpHandlers handlers;
  HttpLimits limits;
  limits.max_request_bytes = 128;
  HttpServer server(0, std::move(handlers), limits);
  std::string padded = "GET /healthz HTTP/1.1\r\nX-Pad: " +
                       std::string(512, 'a') + "\r\n\r\n";
  std::string response = http_get(server.port(), padded);
  EXPECT_NE(response.find("431"), std::string::npos);
  EXPECT_NE(response.find("128"), std::string::npos);  // limit is echoed

  // A request within the limit still succeeds on the same server.
  std::string health =
      http_get(server.port(), "GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(health.find("200"), std::string::npos);
}

TEST(HttpServer, SlowLorisHitsTheReadDeadlineWith408) {
  HttpHandlers handlers;
  HttpLimits limits;
  limits.read_deadline_ms = 150;
  HttpServer server(0, std::move(handlers), limits);

  // Open a connection, send an incomplete request head, and never finish:
  // the server must answer 408 at the deadline instead of blocking its
  // accept loop on the dribbling client forever.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char partial[] = "GET /healthz HTTP/1.1\r\n";
  ASSERT_GT(::send(fd, partial, sizeof(partial) - 1, 0), 0);
  std::string response;
  char buf[1024];
  ssize_t got;
  while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fd);
  EXPECT_NE(response.find("408"), std::string::npos);

  // The deadline only cut off the stuck connection, not the server: a
  // well-formed request on a fresh connection still succeeds.
  std::string health =
      http_get(server.port(), "GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(health.find("200"), std::string::npos);
}

// The contract the live endpoint + flight recorder must not break: a fully
// traced run produces byte-identical *semantic* output to a plain run of
// the same world (tracing is kRuntime-domain only).
TEST(TracedWorld, SemanticOutputByteIdenticalWithTracingOn) {
  eval::WorldParams params;
  params.days = 2;
  params.warmup_days = 1;
  params.corpus_pair_target = 80;
  params.corpus_dest_count = 8;
  params.public_dest_count = 30;
  params.public_traces_per_window = 80;
  params.platform.num_probes = 120;
  params.topology.num_transit = 24;
  params.topology.num_stub = 80;
  params.seed = 20200642;
  params.engine_threads = 2;
  params.engine_shards = 2;
  params.telemetry = true;

  auto run = [](eval::WorldParams run_params) {
    Interner::ScopedInstance interner;
    eval::World world(run_params);
    world.run_until(world.corpus_t0());
    world.initialize_corpus();
    world.run_until(world.end());
    return world.semantic_stats_json();
  };

  eval::WorldParams traced = params;
  traced.trace = true;

  std::string plain = run(params);
  std::string with_trace = run(traced);
  EXPECT_EQ(plain, with_trace);
  EXPECT_NE(plain.find("rrr_"), std::string::npos);
}

// A traced world actually records the close-path taxonomy: window spans,
// per-shard closes, the serial table absorb, and the merge.
TEST(TracedWorld, RecordsWindowAndClosePathSpans) {
  eval::WorldParams params;
  params.days = 2;
  params.warmup_days = 1;
  params.corpus_pair_target = 80;
  params.corpus_dest_count = 8;
  params.public_dest_count = 30;
  params.public_traces_per_window = 80;
  params.platform.num_probes = 120;
  params.topology.num_transit = 24;
  params.topology.num_stub = 80;
  params.seed = 20200642;
  params.engine_threads = 2;
  params.engine_shards = 2;
  params.trace = true;

  Interner::ScopedInstance interner;
  eval::World world(params);
  world.run_until(world.corpus_t0());
  world.initialize_corpus();
  world.run_until(world.end());

  ASSERT_NE(world.tracer(), nullptr);
  std::string json = world.trace_json();
  for (const char* needle :
       {"\"name\":\"window\"", "\"name\":\"dispatch\"",
        "\"name\":\"shard_close\"", "\"name\":\"merge\"",
        "\"name\":\"absorb\"",
        "\"name\":\"task\"", "\"cat\":\"close\"",
        "\"name\":\"thread_name\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  // Tracing off: the accessor still returns a loadable empty document.
  eval::WorldParams off = params;
  off.trace = false;
  eval::World plain(off);
  EXPECT_EQ(plain.trace_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
}

}  // namespace
}  // namespace rrr::obs
