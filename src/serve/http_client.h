// Minimal blocking HTTP/1.1 GET client for the loopback serving endpoint.
//
// Exists for the in-tree consumers of src/obs's server — perfbench's
// open-loop /v1 client and the serving and trace tests — so they all speak
// the same (tiny) dialect the server emits: one request per connection,
// Content-Length framing, Connection: close.
// It is intentionally not a general HTTP client.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace rrr::serve {

struct HttpResult {
  int status = 0;        // parsed from the status line
  std::string body;      // bytes after the blank line
};

// One GET round-trip against 127.0.0.1:`port`. `target` is the full
// request target including any query string ("/v1/pairs?limit=5").
// Returns nullopt on connect/IO failure or an unparseable response;
// HTTP-level errors (400/404/...) come back as a populated HttpResult.
std::optional<HttpResult> http_get(int port, const std::string& target);

}  // namespace rrr::serve
