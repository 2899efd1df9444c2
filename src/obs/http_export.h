// Minimal in-tree HTTP introspection server — the first crack in the
// batch-only wall. A running bench passes `--serve PORT` and gets a
// live, loopback-only endpoint:
//
//   GET /metrics     Prometheus text exposition 0.0.4 (scrape target)
//   GET /healthz     "ok\n" while the process is serving
//   GET /stats.json  the same rrr-stats JSON the batch artifact gets
//   GET /trace.json  the flight recorder (everything through the last
//                    window-boundary drain)
//
// Deliberately tiny: POSIX sockets + poll, one thread, one request per
// connection ("Connection: close"), GET only, bound to 127.0.0.1. No
// external dependencies, no TLS, no keep-alive — it is an introspection
// hatch, not a web server. Handlers are std::functions evaluated per
// request on the server thread, so everything they touch must be
// thread-safe against the run thread (MetricsRegistry snapshots and
// TraceRecorder::json both lock internally).
//
// Because connections are served serially, one misbehaving client could
// otherwise starve every other scraper. Two guards bound each request
// (HttpLimits): a per-connection read deadline — a client that dribbles
// bytes slower than the deadline (slow-loris) gets "408 Request Timeout"
// and the socket back — and a maximum request-head size, past which the
// client gets "431 Request Header Fields Too Large" instead of a parse of
// whatever half-request fit the old fixed buffer.
//
// Port 0 asks the kernel for an ephemeral port (tests); `port()` reports
// the bound one. The destructor wakes the poll loop via a self-pipe and
// joins — no orphaned threads, no blocking accept to interrupt.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>

namespace rrr::obs {

// One routed response: status code, content type, body. The server maps
// the code to its reason phrase when writing the status line.
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

// Reason phrase for the status codes this server emits (200, 400, 404,
// 405, 408, 431, 500; anything else answers as 500).
const char* http_status_phrase(int status);

// Content callbacks for each route; an empty function 404s the route.
struct HttpHandlers {
  std::function<std::string()> metrics_text;  // GET /metrics
  std::function<std::string()> stats_json;    // GET /stats.json
  std::function<std::string()> trace_json;    // GET /trace.json
  std::function<std::string()> healthz;       // GET /healthz (default "ok\n")
  // Generic routed handler, consulted before the fixed routes with the
  // full request target (path plus any ?query). Returning nullopt falls
  // through to the fixed routes above; any HttpResponse — including an
  // error status — is written as-is. This is how the staleness query
  // service (src/serve) mounts its /v1 family without obs depending on it.
  std::function<std::optional<HttpResponse>(const std::string& target)> api;
};

// Abuse guards for one connection. The defaults are far above anything a
// legitimate scraper produces; tests shrink them to exercise the 408/431
// paths without waiting.
struct HttpLimits {
  // Total budget for receiving the request head, in milliseconds. A
  // client still mid-request when it expires gets 408.
  int read_deadline_ms = 2000;
  // Maximum request-head bytes before "\r\n\r\n". Exceeding it gets 431.
  std::size_t max_request_bytes = 8192;
};

class HttpServer {
 public:
  // Binds 127.0.0.1:port (0 = ephemeral) and starts the serving thread.
  // Throws std::runtime_error when the socket cannot be bound.
  HttpServer(int port, HttpHandlers handlers, HttpLimits limits = {});
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  int port() const { return port_; }
  // Requests served so far (any route, including 404s).
  std::int64_t requests_served() const;

 private:
  void serve_loop();
  void handle_connection(int fd);

  HttpHandlers handlers_;
  HttpLimits limits_;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: [0] polled, [1] written to stop
  int port_ = 0;
  std::thread thread_;
  std::atomic<std::int64_t> requests_{0};
};

}  // namespace rrr::obs
