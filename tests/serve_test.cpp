// The staleness query service (serve/): snapshot publication, route
// grammar (with a seeded fuzz), golden JSON bodies, the HTTP path
// end-to-end, reader/driver concurrency (the TSAN targets), and the
// serving-attached determinism contract across the shard grid.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <iterator>
#include <string_view>
#include <thread>

#include "eval/world.h"
#include "netbase/rng.h"
#include "obs/http_export.h"
#include "serve/http_client.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace rrr::serve {
namespace {

tr::PairKey pair_of(std::uint32_t probe, const char* dst) {
  return tr::PairKey{probe, Ipv4::parse(dst).value()};
}

signals::StalenessSignal signal_of(const tr::PairKey& pair,
                                   signals::Technique technique,
                                   std::int64_t window, std::int64_t seconds,
                                   std::size_t border_index,
                                   std::int64_t span_seconds) {
  signals::StalenessSignal s;
  s.pair = pair;
  s.technique = technique;
  s.window = window;
  s.time = TimePoint(seconds);
  s.border_index = border_index;
  s.span_seconds = span_seconds;
  return s;
}

// Three-pair synthetic world, one published window: a stale pair with two
// signals, a fresh pair, an unknown pair. Pair order here is already
// sorted, matching what pair_states() hands the service.
void publish_sample(StalenessService& service) {
  const tr::PairKey stale = pair_of(7, "10.0.0.1");
  const tr::PairKey unknown = pair_of(7, "10.0.0.2");
  const tr::PairKey fresh = pair_of(9, "10.0.0.2");
  std::vector<signals::PairStateView> states = {
      {stale, tr::Freshness::kStale, 3, 2},
      {unknown, tr::Freshness::kUnknown, 1, 0},
      {fresh, tr::Freshness::kFresh, 0, 0},
  };
  std::vector<signals::StalenessSignal> sigs = {
      signal_of(stale, signals::Technique::kBgpCommunity, 5, 4500,
                signals::kWholePath, 900),
      signal_of(stale, signals::Technique::kTraceBorder, 5, 4500, 2, 3600),
  };
  service.on_window(states, /*table_epoch=*/42, /*window=*/5,
                    TimePoint(4500), sigs);
}

std::string body_of(const StalenessService& service,
                    const std::string& target, int expect_status) {
  std::optional<obs::HttpResponse> response = service.handle(target);
  EXPECT_TRUE(response.has_value()) << target;
  if (!response) return "";
  EXPECT_EQ(response->status, expect_status) << target;
  EXPECT_EQ(response->content_type, "application/json") << target;
  return response->body;
}

TEST(SnapshotPublisher, StartsEmptyAndSwapsWholeSnapshots) {
  SnapshotPublisher publisher;
  SnapshotPtr initial = publisher.read();
  ASSERT_NE(initial, nullptr);
  EXPECT_EQ(initial->version, 0u);
  EXPECT_EQ(initial->window, -1);
  EXPECT_TRUE(initial->pairs.empty());

  auto next = std::make_shared<ServingSnapshot>();
  next->version = 1;
  next->window = 9;
  publisher.publish(next);
  EXPECT_EQ(publisher.read()->window, 9);
  // A reader holding the old snapshot keeps a valid object.
  EXPECT_EQ(initial->window, -1);
}

TEST(SnapshotFind, BinarySearchHitsAndMisses) {
  StalenessService service;
  publish_sample(service);
  SnapshotPtr snap = service.snapshot();
  ASSERT_EQ(snap->pairs.size(), 3u);
  EXPECT_NE(snap->find(pair_of(7, "10.0.0.1")), nullptr);
  EXPECT_NE(snap->find(pair_of(9, "10.0.0.2")), nullptr);
  EXPECT_EQ(snap->find(pair_of(8, "10.0.0.1")), nullptr);
  EXPECT_EQ(snap->find(pair_of(7, "10.0.0.3")), nullptr);
}

TEST(ServeRoutes, EmptyWorldGoldenBodies) {
  StalenessService service;
  EXPECT_EQ(body_of(service, "/v1/pairs", 200),
            "{\"schema\":\"rrr-serve-v1\",\"version\":0,\"window\":-1,"
            "\"time\":0,\"table_epoch\":0,\"corpus\":0,\"counts\":{"
            "\"fresh\":0,\"stale\":0,\"unknown\":0},\"pairs\":[],"
            "\"returned\":0}\n");
  EXPECT_EQ(body_of(service, "/v1/refresh-queue", 200),
            "{\"schema\":\"rrr-serve-v1\",\"version\":0,\"window\":-1,"
            "\"time\":0,\"table_epoch\":0,\"k\":20,\"stale_total\":0,"
            "\"queue\":[]}\n");
  EXPECT_EQ(body_of(service, "/v1/verdict?src=1&dst=10.0.0.1", 404),
            "{\"error\":\"unknown pair: src=1 dst=10.0.0.1\","
            "\"status\":404}\n");
  EXPECT_EQ(body_of(service, "/v1/signals?src=1&dst=10.0.0.1", 404),
            "{\"error\":\"unknown pair: src=1 dst=10.0.0.1\","
            "\"status\":404}\n");
}

TEST(ServeRoutes, PopulatedGoldenBodies) {
  StalenessService service;
  publish_sample(service);
  EXPECT_EQ(
      body_of(service, "/v1/verdict?src=7&dst=10.0.0.1", 200),
      "{\"schema\":\"rrr-serve-v1\",\"version\":1,\"window\":5,"
      "\"time\":4500,\"table_epoch\":42,"
      "\"pair\":{\"probe\":7,\"dst\":\"10.0.0.1\"},"
      "\"freshness\":\"stale\",\"watched_window\":3,\"active_signals\":2,"
      "\"stale_since_window\":5,\"signals_total\":2,"
      "\"last_signal\":{\"window\":5,\"time\":4500,"
      "\"technique\":\"border\",\"border_index\":2,"
      "\"span_seconds\":3600}}\n");
  EXPECT_EQ(
      body_of(service, "/v1/signals?src=7&dst=10.0.0.1", 200),
      "{\"schema\":\"rrr-serve-v1\",\"version\":1,\"window\":5,"
      "\"time\":4500,\"table_epoch\":42,"
      "\"pair\":{\"probe\":7,\"dst\":\"10.0.0.1\"},\"history_cap\":32,"
      "\"signals_total\":2,\"dropped\":0,\"signals\":["
      "{\"window\":5,\"time\":4500,\"technique\":\"community\","
      "\"border_index\":-1,\"span_seconds\":900},"
      "{\"window\":5,\"time\":4500,\"technique\":\"border\","
      "\"border_index\":2,\"span_seconds\":3600}]}\n");
  EXPECT_EQ(
      body_of(service, "/v1/pairs", 200),
      "{\"schema\":\"rrr-serve-v1\",\"version\":1,\"window\":5,"
      "\"time\":4500,\"table_epoch\":42,\"corpus\":3,"
      "\"counts\":{\"fresh\":1,\"stale\":1,\"unknown\":1},\"pairs\":["
      "{\"probe\":7,\"dst\":\"10.0.0.1\",\"freshness\":\"stale\","
      "\"watched_window\":3,\"active_signals\":2,"
      "\"stale_since_window\":5,\"signals_total\":2},"
      "{\"probe\":7,\"dst\":\"10.0.0.2\",\"freshness\":\"unknown\","
      "\"watched_window\":1,\"active_signals\":0,"
      "\"stale_since_window\":-1,\"signals_total\":0},"
      "{\"probe\":9,\"dst\":\"10.0.0.2\",\"freshness\":\"fresh\","
      "\"watched_window\":0,\"active_signals\":0,"
      "\"stale_since_window\":-1,\"signals_total\":0}],"
      "\"returned\":3}\n");
  EXPECT_EQ(
      body_of(service, "/v1/refresh-queue?k=2", 200),
      "{\"schema\":\"rrr-serve-v1\",\"version\":1,\"window\":5,"
      "\"time\":4500,\"table_epoch\":42,\"k\":2,\"stale_total\":1,"
      "\"queue\":[{\"rank\":1,\"probe\":7,\"dst\":\"10.0.0.1\","
      "\"stale_since_window\":5,\"active_signals\":2,\"signals_total\":2,"
      "\"last_technique\":\"border\"}]}\n");
}

TEST(ServeRoutes, FiltersAndLimits) {
  StalenessService service;
  publish_sample(service);
  // freshness filter keeps only matching verdicts; returned reflects it.
  std::string stale_only = body_of(service, "/v1/pairs?freshness=stale", 200);
  EXPECT_NE(stale_only.find("\"returned\":1"), std::string::npos);
  EXPECT_EQ(stale_only.find("\"freshness\":\"fresh\""), std::string::npos);
  // limit truncates but counts still describe the whole corpus.
  std::string limited = body_of(service, "/v1/pairs?limit=1", 200);
  EXPECT_NE(limited.find("\"corpus\":3"), std::string::npos);
  EXPECT_NE(limited.find("\"returned\":1"), std::string::npos);
  // signals limit keeps the newest events and reports the drop.
  std::string one = body_of(service, "/v1/signals?src=7&dst=10.0.0.1&limit=1",
                            200);
  EXPECT_NE(one.find("\"dropped\":1"), std::string::npos);
  EXPECT_EQ(one.find("\"technique\":\"community\""), std::string::npos);
  EXPECT_NE(one.find("\"technique\":\"border\""), std::string::npos);
  // limit=0 is valid: empty page, full bookkeeping.
  std::string none = body_of(service, "/v1/pairs?limit=0", 200);
  EXPECT_NE(none.find("\"pairs\":[]"), std::string::npos);
}

TEST(ServeRoutes, MalformedQueryRejectionTable) {
  StalenessService service;
  publish_sample(service);
  struct Case {
    const char* target;
    int status;
    const char* message;  // substring of the error body
  };
  const Case cases[] = {
      {"/v1/verdict", 400, "missing required parameter: src"},
      {"/v1/verdict?src=7", 400, "missing required parameter: dst"},
      {"/v1/verdict?src=7&dst=10.0.0.1&x=1", 400,
       "unknown query parameter: x"},
      {"/v1/verdict?src=-1&dst=10.0.0.1", 400, "src is not a probe id"},
      {"/v1/verdict?src=99999999999&dst=10.0.0.1", 400,
       "src is not a probe id"},
      {"/v1/verdict?src=7&dst=banana", 400,
       "dst is not a dotted-quad address"},
      {"/v1/verdict?src=7&src=8&dst=10.0.0.1", 400,
       "duplicate query parameter: src"},
      {"/v1/pairs?freshness=wibble", 400,
       "freshness must be fresh|stale|unknown"},
      {"/v1/pairs?limit=abc", 400, "limit is not a non-negative integer"},
      {"/v1/pairs?limit=-3", 400, "limit is not a non-negative integer"},
      {"/v1/pairs?limit=1&limit=2", 400, "duplicate query parameter: limit"},
      {"/v1/pairs?k=3", 400, "unknown query parameter: k"},
      {"/v1/pairs?=5", 400, "empty key"},
      {"/v1/pairs?&", 400, "empty query parameter"},
      {"/v1/refresh-queue?k", 400, "query parameter without '='"},
      {"/v1/refresh-queue?k=abc", 400, "k is not a non-negative integer"},
      {"/v1/refresh-queue?k=10001", 400, "k is not a non-negative integer"},
      {"/v1/nope", 404, "unknown /v1 route: /v1/nope"},
  };
  for (const Case& c : cases) {
    std::string body = body_of(service, c.target, c.status);
    EXPECT_NE(body.find(c.message), std::string::npos)
        << c.target << " -> " << body;
  }
  // Bare "?" is not an error: no parameters at all.
  EXPECT_EQ(service.handle("/v1/pairs?")->status, 200);
  // Paths outside /v1 fall through to the server's fixed routes.
  EXPECT_FALSE(service.handle("/healthz").has_value());
  EXPECT_FALSE(service.handle("/stats.json").has_value());
  EXPECT_FALSE(service.handle("/").has_value());
}

TEST(ServeRoutes, HistoryRingBoundsEvidence) {
  StalenessService service;
  const tr::PairKey pair = pair_of(3, "10.1.0.1");
  std::vector<signals::PairStateView> states = {
      {pair, tr::Freshness::kStale, 0, 1}};
  // 40 windows against the 32-event ring: the oldest 8 drop.
  for (std::int64_t w = 0; w < 40; ++w) {
    std::vector<signals::StalenessSignal> sigs = {signal_of(
        pair, signals::Technique::kBgpAsPath, w, 900 * (w + 1),
        signals::kWholePath, 900)};
    service.on_window(states, 0, w, TimePoint(900 * (w + 1)), sigs);
  }
  SnapshotPtr snap = service.snapshot();
  const PairVerdict* verdict = snap->find(pair);
  ASSERT_NE(verdict, nullptr);
  EXPECT_EQ(verdict->signals_total, 40u);
  ASSERT_EQ(verdict->history.size(), 32u);
  EXPECT_EQ(verdict->history.front().window, 8);
  EXPECT_EQ(verdict->history.back().window, 39);
  // stale_since pins the first signal of the episode even though the ring
  // dropped it: it was stamped while the evidence was still present.
  EXPECT_EQ(verdict->stale_since_window, 0);
  std::string body = body_of(service, "/v1/signals?src=3&dst=10.1.0.1", 200);
  EXPECT_NE(body.find("\"dropped\":8"), std::string::npos);
}

TEST(ServeRoutes, StaleEpisodeClearsOnFreshness) {
  StalenessService service;
  const tr::PairKey pair = pair_of(3, "10.1.0.1");
  std::vector<signals::StalenessSignal> sigs = {signal_of(
      pair, signals::Technique::kBgpAsPath, 1, 900, signals::kWholePath,
      900)};
  std::vector<signals::PairStateView> stale = {
      {pair, tr::Freshness::kStale, 0, 1}};
  service.on_window(stale, 0, 1, TimePoint(900), sigs);
  EXPECT_EQ(service.snapshot()->find(pair)->stale_since_window, 1);
  // Refreshed: the episode ends; a later episode re-stamps.
  std::vector<signals::PairStateView> fresh = {
      {pair, tr::Freshness::kFresh, 2, 0}};
  service.on_window(fresh, 0, 2, TimePoint(1800), {});
  EXPECT_EQ(service.snapshot()->find(pair)->stale_since_window, -1);
  std::vector<signals::StalenessSignal> again = {signal_of(
      pair, signals::Technique::kTraceSubpath, 3, 2700, signals::kWholePath,
      900)};
  service.on_window(stale, 0, 3, TimePoint(2700), again);
  EXPECT_EQ(service.snapshot()->find(pair)->stale_since_window, 3);
  EXPECT_EQ(service.snapshot()->version, 3u);
  EXPECT_EQ(service.windows_published(), 3u);
}

TEST(ServeRoutes, RefreshQueueRanksStalestFirst) {
  StalenessService service;
  const tr::PairKey oldest = pair_of(1, "10.0.0.1");
  const tr::PairKey busiest = pair_of(2, "10.0.0.1");
  const tr::PairKey newest = pair_of(3, "10.0.0.1");
  // Window 1: `oldest` goes stale.
  std::vector<signals::PairStateView> w1 = {
      {oldest, tr::Freshness::kStale, 0, 1},
      {busiest, tr::Freshness::kFresh, 0, 0},
      {newest, tr::Freshness::kFresh, 0, 0},
  };
  service.on_window(
      w1, 0, 1, TimePoint(900),
      {signal_of(oldest, signals::Technique::kBgpAsPath, 1, 900,
                 signals::kWholePath, 900)});
  // Window 2: the other two go stale; `busiest` has more active signals.
  std::vector<signals::PairStateView> w2 = {
      {oldest, tr::Freshness::kStale, 0, 1},
      {busiest, tr::Freshness::kStale, 0, 3},
      {newest, tr::Freshness::kStale, 0, 1},
  };
  service.on_window(
      w2, 0, 2, TimePoint(1800),
      {signal_of(busiest, signals::Technique::kBgpBurst, 2, 1800,
                 signals::kWholePath, 900),
       signal_of(newest, signals::Technique::kColocation, 2, 1800,
                 signals::kWholePath, 900)});
  SnapshotPtr snap = service.snapshot();
  ASSERT_EQ(snap->refresh_queue.size(), 3u);
  EXPECT_EQ(snap->pairs[snap->refresh_queue[0]].pair, oldest);   // stalest
  EXPECT_EQ(snap->pairs[snap->refresh_queue[1]].pair, busiest);  // more active
  EXPECT_EQ(snap->pairs[snap->refresh_queue[2]].pair, newest);
}

TEST(ServeHttp, EndToEndOverRealSocket) {
  StalenessService service;
  publish_sample(service);
  obs::HttpHandlers handlers;
  handlers.api = [&service](const std::string& target) {
    return service.handle(target);
  };
  obs::HttpServer server(0, std::move(handlers));

  // Routed body over the wire == the in-process body, status preserved.
  std::optional<HttpResult> ok =
      http_get(server.port(), "/v1/verdict?src=7&dst=10.0.0.1");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, 200);
  EXPECT_EQ(ok->body, service.handle("/v1/verdict?src=7&dst=10.0.0.1")->body);

  std::optional<HttpResult> bad =
      http_get(server.port(), "/v1/verdict?src=x&dst=10.0.0.1");
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->status, 400);

  std::optional<HttpResult> missing =
      http_get(server.port(), "/v1/verdict?src=1&dst=9.9.9.9");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);

  // Fixed routes still work next to the api handler.
  std::optional<HttpResult> healthz = http_get(server.port(), "/healthz");
  ASSERT_TRUE(healthz.has_value());
  EXPECT_EQ(healthz->status, 200);
  EXPECT_EQ(healthz->body, "ok\n");

  std::optional<HttpResult> nothing = http_get(server.port(), "/nothing");
  ASSERT_TRUE(nothing.has_value());
  EXPECT_EQ(nothing->status, 404);
}

// Strict JSON recognizer (RFC 8259) for the fuzz loop below: one value,
// whitespace around it, strings of valid UTF-8 with legal escapes.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    space();
    if (!value(0)) return false;
    space();
    return pos_ == text_.size();
  }

 private:
  bool value(int depth) {
    if (depth > 32 || pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return container(depth, '}', true);
      case '[': return container(depth, ']', false);
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool container(int depth, char close, bool object) {
    ++pos_;
    space();
    if (take(close)) return true;
    do {
      space();
      if (object) {
        if (pos_ >= text_.size() || text_[pos_] != '"' || !string()) {
          return false;
        }
        space();
        if (!take(':')) return false;
        space();
      }
      if (!value(depth + 1)) return false;
      space();
    } while (take(','));
    return take(close);
  }

  bool string() {
    ++pos_;
    while (pos_ < text_.size()) {
      const auto c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char escape = text_[pos_++];
        if (escape == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_++]))) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(escape) ==
                   std::string_view::npos) {
          return false;
        }
      } else if (c >= 0x80) {
        // A UTF-8 lead byte and its continuation bytes.
        const int tail = c >= 0xC2 && c <= 0xDF   ? 1
                         : c >= 0xE0 && c <= 0xEF ? 2
                         : c >= 0xF0 && c <= 0xF4 ? 3
                                                  : -1;
        if (tail < 0) return false;
        for (int i = 0; i < tail; ++i) {
          if (pos_ >= text_.size() ||
              (static_cast<unsigned char>(text_[pos_++]) & 0xC0) != 0x80) {
            return false;
          }
        }
      }
    }
    return false;
  }

  bool number() {
    take('-');
    if (take('0')) {
    } else if (!digits()) {
      return false;
    }
    if (take('.') && !digits()) return false;
    if (take('e') || take('E')) {
      if (!take('+')) take('-');
      if (!digits()) return false;
    }
    return true;
  }

  bool digits() {
    const std::size_t begin = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > begin;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool take(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  void space() {
    while (pos_ < text_.size() &&
           std::string_view(" \t\r\n").find(text_[pos_]) !=
               std::string_view::npos) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// Seeded fuzz of the /v1 query grammar: known and unknown routes and keys,
// the sample's pairs and strangers, huge, negative and malformed numbers,
// empty values, repeated '&' and '=', and random bytes spliced in. A /v1
// target always gets 200, 400 or 404 with a JSON body and never throws;
// anything else falls through (nullopt) to the server's fixed routes.
TEST(ServeRoutes, FuzzedTargetsGetAStatusAndAJsonBody) {
  StalenessService service;
  publish_sample(service);
  const char* const paths[] = {
      "/v1/pairs", "/v1/verdict", "/v1/signals", "/v1/refresh-queue", "/v1",
      "/v1/",      "/v1/pair",    "/v1/pairs/",  "/v1//verdict",
      "/v1/verdict/7"};
  const char* const keys[] = {"src", "dst", "limit", "freshness", "k",
                              "",    "x",   "SRC",   "limit ",    "dst[]"};
  const char* const values[] = {
      "7",        "9",
      "3",        "0",
      "-1",       "-0",
      "+7",       "007",
      "4294967295", "4294967296",
      "18446744073709551615", "18446744073709551616",
      "99999999999999999999999999", "1e3",
      "nan",      "0x10",
      "10.0.0.1", "10.0.0.2",
      "10.1.0.1", "255.255.255.255",
      "256.0.0.1", "10.0.0",
      "10.0.0.1.5", "",
      "stale",    "fresh",
      "unknown",  "STALE",
      "%20",      " 7"};
  Rng rng(20201027);
  int answered = 0;
  for (int i = 0; i < 12000; ++i) {
    std::string target = paths[rng.index(std::size(paths))];
    if (rng.bernoulli(0.9)) target += '?';
    for (std::int64_t t = 0, n = rng.uniform_int(0, 5); t < n; ++t) {
      if (t > 0) target += rng.bernoulli(0.1) ? "&&" : "&";
      target += keys[rng.index(std::size(keys))];
      target += std::string(rng.bernoulli(0.8) ? 1 : rng.index(3), '=');
      target += values[rng.index(std::size(values))];
    }
    if (rng.bernoulli(0.2)) {
      std::string junk;
      for (std::int64_t n = rng.uniform_int(1, 8); n > 0; --n) {
        junk += static_cast<char>(rng.uniform_int(0, 255));
      }
      target.insert(rng.index(target.size() + 1), junk);
    }

    const std::string label = ::testing::PrintToString(target);
    std::optional<obs::HttpResponse> response;
    try {
      response = service.handle(target);
    } catch (const std::exception& error) {
      ADD_FAILURE() << label << ": threw " << error.what();
      continue;
    }
    const std::string path = target.substr(0, target.find('?'));
    const bool v1 = path.rfind("/v1/", 0) == 0 || path == "/v1";
    ASSERT_EQ(response.has_value(), v1) << label;
    if (!response) continue;
    ++answered;
    EXPECT_TRUE(response->status == 200 || response->status == 400 ||
                response->status == 404)
        << label << ": status " << response->status;
    EXPECT_EQ(response->content_type, "application/json") << label;
    EXPECT_TRUE(JsonChecker(response->body).valid())
        << label << ": body " << ::testing::PrintToString(response->body);
  }
  EXPECT_GE(answered, 10000);
}

// TSAN target: HTTP readers resolve routes on live sockets while the
// driver publishes new snapshots as fast as it can. Any missing release/
// acquire edge between on_window and handle shows up here.
TEST(ServeConcurrency, QueryDuringWindowCloseIsRaceFree) {
  StalenessService service;
  publish_sample(service);
  obs::HttpHandlers handlers;
  handlers.api = [&service](const std::string& target) {
    return service.handle(target);
  };
  obs::HttpServer server(0, std::move(handlers));

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::atomic<std::int64_t> served{0};
  const char* targets[] = {
      "/v1/pairs?limit=100",
      "/v1/verdict?src=7&dst=10.0.0.1",
      "/v1/signals?src=7&dst=10.0.0.1",
      "/v1/refresh-queue?k=5",
  };
  // Two socket readers plus two direct-handle readers: the socket pair
  // exercises the full HTTP path, the direct pair maximizes pressure on
  // the publish/read edge itself.
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::optional<HttpResult> result =
            http_get(server.port(), targets[r]);
        if (result && result->status == 200) {
          served.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int r = 2; r < 4; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::optional<obs::HttpResponse> response =
            service.handle(targets[r]);
        if (response && response->status == 200) {
          served.fetch_add(1, std::memory_order_relaxed);
        }
        // Hold a snapshot across publishes; it must stay valid.
        SnapshotPtr held = service.snapshot();
        if (held->window >= 0 && held->pairs.empty()) {
          ADD_FAILURE() << "published snapshot lost its pairs";
        }
      }
    });
  }

  // Driver: publish at least 200 windows of evolving state, and keep
  // publishing until every reader pool has been served (one core can run
  // the driver to completion before a reader finishes a single request).
  const tr::PairKey stale = pair_of(7, "10.0.0.1");
  const tr::PairKey unknown = pair_of(7, "10.0.0.2");
  const tr::PairKey fresh = pair_of(9, "10.0.0.2");
  for (std::int64_t w = 6; w < 206 || (served.load() < 8 && w < 200000);
       ++w) {
    std::vector<signals::PairStateView> states = {
        {stale, tr::Freshness::kStale, 3, 2},
        {unknown, tr::Freshness::kUnknown, 1, 0},
        {fresh,
         w % 2 == 0 ? tr::Freshness::kFresh : tr::Freshness::kStale, 0,
         w % 2 == 0 ? 0u : 1u},
    };
    std::vector<signals::StalenessSignal> sigs = {signal_of(
        stale, signals::Technique::kBgpAsPath, w, 900 * w,
        signals::kWholePath, 900)};
    service.on_window(states, static_cast<std::uint64_t>(w), w,
                      TimePoint(900 * w), sigs);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_GE(service.windows_published(), 201u);
  EXPECT_GE(served.load(), 8);
}

// Determinism contract: attaching the serving layer to a World (with a
// reader hammering it) moves no byte of the semantic signal stream or of
// the semantic telemetry, at any (shards x threads) point: every served run
// matches the unserved 1x1 run.
TEST(ServeWorld, AttachingServiceDoesNotMoveTheSignalStream) {
  eval::WorldParams params;
  params.days = 2;
  params.warmup_days = 1;
  params.corpus_pair_target = 120;
  params.corpus_dest_count = 10;
  params.public_dest_count = 40;
  params.public_traces_per_window = 100;
  params.platform.num_probes = 120;
  params.topology.num_transit = 24;
  params.topology.num_stub = 80;
  params.seed = 11;
  params.telemetry = true;

  struct Output {
    std::string stream;
    std::string semantic;
  };
  auto run = [&](bool serve, int shards, int threads) {
    eval::WorldParams point = params;
    point.engine_shards = shards;
    point.engine_threads = threads;
    eval::World world(point);
    StalenessService service;
    std::atomic<bool> stop{false};
    std::thread reader;
    if (serve) {
      world.attach_serving(&service);
      reader = std::thread([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          (void)service.handle("/v1/pairs?limit=20");
          (void)service.handle("/v1/refresh-queue?k=5");
        }
      });
    }
    Output out;
    eval::World::Hooks hooks;
    hooks.on_signals = [&](std::int64_t window, TimePoint,
                           std::vector<signals::StalenessSignal>&& sigs) {
      for (const signals::StalenessSignal& s : sigs) {
        out.stream += std::to_string(window) + ":" + s.to_string() + "\n";
      }
    };
    world.run_all(hooks);
    out.semantic = world.semantic_stats_json();
    if (serve) {
      stop.store(true, std::memory_order_relaxed);
      reader.join();
      EXPECT_GT(service.windows_published(), 0u);
      // The final snapshot mirrors the engine's corpus, and its refresh
      // queue holds exactly the pairs it reported stale. (The engine's own
      // stale set can shrink after the last window publishes — the daily
      // recalibration runs after the boundary — so compare within the
      // snapshot, not against the post-run engine.)
      SnapshotPtr snap = service.snapshot();
      EXPECT_EQ(snap->pairs.size(), world.engine().pair_states().size());
      EXPECT_EQ(snap->refresh_queue.size(), snap->stale);
    }
    return out;
  };

  const Output without = run(false, 1, 1);
  EXPECT_FALSE(without.stream.empty());
  EXPECT_NE(without.semantic, "[]");
  for (const auto& [shards, threads] :
       {std::pair{1, 1}, std::pair{2, 2}, std::pair{4, 2}}) {
    const std::string label =
        std::to_string(shards) + "x" + std::to_string(threads);
    const Output with = run(true, shards, threads);
    EXPECT_EQ(without.stream, with.stream) << label;
    EXPECT_EQ(without.semantic, with.semantic) << label;
  }
}

}  // namespace
}  // namespace rrr::serve
