#include "serve/service.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "netbase/parse.h"
#include "obs/export.h"
#include "signals/engine_obs.h"
#include "signals/engine.h"

namespace rrr::serve {
namespace {

// Per-pair signal-history bound: the evidence ring keeps the newest
// kHistoryCap events; older ones only bump the dropped count.
constexpr std::size_t kHistoryCap = 32;
// /v1/refresh-queue?k default when the query omits k.
constexpr int kDefaultQueueK = 20;
// Hard ceiling on one /v1/pairs response (limit is clamped to it); the
// serving layer is an operator hatch, not a bulk-export path.
constexpr std::size_t kMaxPage = 10000;

// ---------------------------------------------------------------------------
// Query-string parsing. Deliberately strict: the /v1 family is a typed API,
// so anything outside the documented grammar — a token without '=', an
// empty or duplicated or unknown key, a value that fails its type — gets
// "400 Bad Request" with the offending token named, never a guess.
// Percent-escapes are not part of the grammar (no documented value needs
// them), so '%' is rejected like any other malformed byte.
// ---------------------------------------------------------------------------

struct Query {
  std::vector<std::pair<std::string, std::string>> params;

  const std::string* get(const std::string& key) const {
    for (const auto& [k, v] : params) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

// Parses "k=v&k2=v2" into `out`; returns an error message on the first
// grammar violation, empty string on success.
std::string parse_query(const std::string& raw, Query& out) {
  std::size_t pos = 0;
  while (pos <= raw.size()) {
    std::size_t amp = raw.find('&', pos);
    if (amp == std::string::npos) amp = raw.size();
    std::string token = raw.substr(pos, amp - pos);
    pos = amp + 1;
    if (token.empty()) {
      if (raw.empty()) break;  // bare "?" — no parameters
      return "empty query parameter";
    }
    std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return "query parameter without '=': " + token;
    }
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    if (key.empty()) return "query parameter with empty key: " + token;
    if (out.get(key) != nullptr) return "duplicate query parameter: " + key;
    out.params.emplace_back(std::move(key), std::move(value));
    if (pos > raw.size()) break;
  }
  return "";
}

// Rejects keys outside `allowed`; returns the offender or empty.
std::string unknown_key(const Query& query,
                        std::initializer_list<const char*> allowed) {
  for (const auto& [k, v] : query.params) {
    bool ok = false;
    for (const char* a : allowed) ok = ok || k == a;
    if (!ok) return k;
  }
  return "";
}

// Error messages echo the offending request bytes. The /v1 grammar is
// ASCII, so a byte outside it is escaped by value (\u00XX): the body stays
// valid UTF-8 JSON whatever the request carried.
std::string error_body(int status, const std::string& message) {
  std::string escaped;
  for (char c : obs::json_escape(message)) {
    if (static_cast<unsigned char>(c) < 0x80) {
      escaped += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned char>(c));
      escaped += buf;
    }
  }
  return "{\"error\":\"" + escaped + "\",\"status\":" +
         std::to_string(status) + "}\n";
}

obs::HttpResponse bad_request(const std::string& message) {
  return {400, "application/json", error_body(400, message)};
}

obs::HttpResponse not_found(const std::string& message) {
  return {404, "application/json", error_body(404, message)};
}

// ---------------------------------------------------------------------------
// JSON assembly. All numbers are plain decimal; strings are the fixed
// label slugs (freshness_label, signals::technique_label) plus dotted-quad
// addresses — nothing needs escaping, but json_escape guards the error
// path above anyway. Key order is fixed so bodies are byte-stable
// (the golden tests and tools/check_serving_api.py rely on it).
// ---------------------------------------------------------------------------

void append_envelope(std::string& out, const ServingSnapshot& snap) {
  out += "\"schema\":\"rrr-serve-v1\",\"version\":";
  out += std::to_string(snap.version);
  out += ",\"window\":";
  out += std::to_string(snap.window);
  out += ",\"time\":";
  out += std::to_string(snap.time_seconds);
  out += ",\"table_epoch\":";
  out += std::to_string(snap.table_epoch);
}

void append_pair_key(std::string& out, const tr::PairKey& pair) {
  out += "{\"probe\":";
  out += std::to_string(pair.probe);
  out += ",\"dst\":\"";
  out += pair.dst.to_string();
  out += "\"}";
}

void append_signal_event(std::string& out, const SignalEvent& event) {
  out += "{\"window\":";
  out += std::to_string(event.window);
  out += ",\"time\":";
  out += std::to_string(event.time_seconds);
  out += ",\"technique\":\"";
  out += signals::technique_label(event.technique);
  out += "\",\"border_index\":";
  out += event.border_index == signals::kWholePath
             ? "-1"
             : std::to_string(event.border_index);
  out += ",\"span_seconds\":";
  out += std::to_string(event.span_seconds);
  out += "}";
}

void append_verdict_fields(std::string& out, const PairVerdict& verdict) {
  out += "\"freshness\":\"";
  out += freshness_label(verdict.freshness);
  out += "\",\"watched_window\":";
  out += std::to_string(verdict.watched_window);
  out += ",\"active_signals\":";
  out += std::to_string(verdict.active_signals);
  out += ",\"stale_since_window\":";
  out += std::to_string(verdict.stale_since_window);
  out += ",\"signals_total\":";
  out += std::to_string(verdict.signals_total);
}

}  // namespace

void StalenessService::on_window(
    const signals::Engine& engine, std::int64_t window, TimePoint window_end,
    const std::vector<signals::StalenessSignal>& window_signals) {
  on_window(engine.pair_states(), engine.table_epoch(), window, window_end,
            window_signals);
}

void StalenessService::on_window(
    const std::vector<signals::PairStateView>& states,
    std::uint64_t table_epoch, std::int64_t window, TimePoint window_end,
    const std::vector<signals::StalenessSignal>& window_signals) {
  // Fold the window's registered signals into the per-pair evidence rings.
  for (const signals::StalenessSignal& signal : window_signals) {
    PairTrack& track = tracks_[signal.pair];
    ++track.total;
    if (track.history.size() >= kHistoryCap) {
      track.history.erase(track.history.begin());
    }
    track.history.push_back(SignalEvent{signal.window, signal.time.seconds(),
                                        signal.technique, signal.border_index,
                                        signal.span_seconds});
  }

  // Materialize the immutable view. `states` arrives sorted by pair (the
  // engine merges shards canonically), which find() relies on.
  auto snap = std::make_shared<ServingSnapshot>();
  snap->version = windows_published_.load(std::memory_order_relaxed) + 1;
  snap->window = window;
  snap->time_seconds = window_end.seconds();
  snap->table_epoch = table_epoch;
  snap->history_cap = kHistoryCap;
  snap->pairs.reserve(states.size());
  for (const signals::PairStateView& state : states) {
    PairTrack& track = tracks_[state.pair];
    // Stale-episode bookkeeping: entering stale stamps the episode with the
    // window of the newest signal (falling back to the current window when
    // the transition came from a resume); leaving stale clears it.
    if (state.freshness == tr::Freshness::kStale) {
      if (track.stale_since < 0) {
        track.stale_since =
            track.history.empty() ? window : track.history.back().window;
      }
    } else {
      track.stale_since = -1;
    }
    PairVerdict verdict;
    verdict.pair = state.pair;
    verdict.freshness = state.freshness;
    verdict.watched_window = state.watched_window;
    verdict.active_signals = state.active_signals;
    verdict.stale_since_window = track.stale_since;
    verdict.signals_total = track.total;
    verdict.history = track.history;
    switch (state.freshness) {
      case tr::Freshness::kFresh: ++snap->fresh; break;
      case tr::Freshness::kStale: ++snap->stale; break;
      case tr::Freshness::kUnknown: ++snap->unknown; break;
    }
    snap->pairs.push_back(std::move(verdict));
  }

  // Refresh-priority queue: every stale pair, stalest episode first; ties
  // break toward more corroborating evidence, then pair order. Fully
  // deterministic — no RNG, unlike the engine's budgeted plan_refreshes —
  // so the queue is a pure function of the snapshot.
  for (std::uint32_t i = 0; i < snap->pairs.size(); ++i) {
    if (snap->pairs[i].freshness == tr::Freshness::kStale) {
      snap->refresh_queue.push_back(i);
    }
  }
  std::sort(snap->refresh_queue.begin(), snap->refresh_queue.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const PairVerdict& va = snap->pairs[a];
              const PairVerdict& vb = snap->pairs[b];
              if (va.stale_since_window != vb.stale_since_window) {
                return va.stale_since_window < vb.stale_since_window;
              }
              if (va.active_signals != vb.active_signals) {
                return va.active_signals > vb.active_signals;
              }
              if (va.signals_total != vb.signals_total) {
                return va.signals_total > vb.signals_total;
              }
              return va.pair < vb.pair;
            });

  publisher_.publish(std::move(snap));
  windows_published_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<obs::HttpResponse> StalenessService::handle(
    const std::string& target) const {
  const std::size_t qmark = target.find('?');
  const std::string path = target.substr(0, qmark);
  if (path.rfind("/v1/", 0) != 0 && path != "/v1") return std::nullopt;

  Query query;
  if (qmark != std::string::npos) {
    std::string error = parse_query(target.substr(qmark + 1), query);
    if (!error.empty()) return bad_request(error);
  }
  SnapshotPtr snap = publisher_.read();

  auto parse_pair = [&](tr::PairKey& pair) -> std::optional<obs::HttpResponse> {
    const std::string* src = query.get("src");
    const std::string* dst = query.get("dst");
    if (src == nullptr) return bad_request("missing required parameter: src");
    if (dst == nullptr) return bad_request("missing required parameter: dst");
    std::optional<tr::ProbeId> probe = parse_number<tr::ProbeId>(*src);
    if (!probe) return bad_request("src is not a probe id: " + *src);
    std::optional<Ipv4> ip = Ipv4::parse(*dst);
    if (!ip) return bad_request("dst is not a dotted-quad address: " + *dst);
    pair.probe = *probe;
    pair.dst = *ip;
    return std::nullopt;
  };
  auto parse_limit = [&](std::size_t fallback)
      -> std::pair<std::size_t, std::optional<obs::HttpResponse>> {
    const std::string* limit = query.get("limit");
    if (limit == nullptr) return {fallback, std::nullopt};
    std::optional<std::uint64_t> value =
        parse_number<std::uint64_t>(*limit);
    if (!value) {
      return {0, bad_request("limit is not a non-negative integer: " + *limit)};
    }
    return {static_cast<std::size_t>(
                std::min<std::uint64_t>(*value, kMaxPage)),
            std::nullopt};
  };

  if (path == "/v1/verdict") {
    if (std::string key = unknown_key(query, {"src", "dst"}); !key.empty()) {
      return bad_request("unknown query parameter: " + key);
    }
    tr::PairKey pair;
    if (auto error = parse_pair(pair)) return *error;
    return verdict_response(*snap, pair);
  }
  if (path == "/v1/signals") {
    if (std::string key = unknown_key(query, {"src", "dst", "limit"});
        !key.empty()) {
      return bad_request("unknown query parameter: " + key);
    }
    tr::PairKey pair;
    if (auto error = parse_pair(pair)) return *error;
    auto [limit, error] = parse_limit(kHistoryCap);
    if (error) return *error;
    return signals_response(*snap, pair, limit);
  }
  if (path == "/v1/pairs") {
    if (std::string key = unknown_key(query, {"freshness", "limit"});
        !key.empty()) {
      return bad_request("unknown query parameter: " + key);
    }
    std::optional<tr::Freshness> filter;
    if (const std::string* value = query.get("freshness")) {
      if (*value == "fresh") filter = tr::Freshness::kFresh;
      else if (*value == "stale") filter = tr::Freshness::kStale;
      else if (*value == "unknown") filter = tr::Freshness::kUnknown;
      else return bad_request("freshness must be fresh|stale|unknown, got: " +
                              *value);
    }
    auto [limit, error] = parse_limit(kMaxPage);
    if (error) return *error;
    return pairs_response(*snap, filter, limit);
  }
  if (path == "/v1/refresh-queue") {
    if (std::string key = unknown_key(query, {"k"}); !key.empty()) {
      return bad_request("unknown query parameter: " + key);
    }
    int k = kDefaultQueueK;
    if (const std::string* value = query.get("k")) {
      std::optional<std::size_t> parsed =
          parse_number<std::size_t>(*value, 0, kMaxPage);
      if (!parsed) {
        return bad_request("k is not a non-negative integer within " +
                           std::to_string(kMaxPage) + ": " + *value);
      }
      k = static_cast<int>(*parsed);
    }
    return queue_response(*snap, k);
  }
  return not_found("unknown /v1 route: " + path);
}

obs::HttpResponse StalenessService::verdict_response(
    const ServingSnapshot& snap, const tr::PairKey& pair) const {
  const PairVerdict* verdict = snap.find(pair);
  if (verdict == nullptr) {
    return not_found("unknown pair: src=" + std::to_string(pair.probe) +
                     " dst=" + pair.dst.to_string());
  }
  std::string body = "{";
  append_envelope(body, snap);
  body += ",\"pair\":";
  append_pair_key(body, verdict->pair);
  body += ",";
  append_verdict_fields(body, *verdict);
  body += ",\"last_signal\":";
  if (verdict->history.empty()) {
    body += "null";
  } else {
    append_signal_event(body, verdict->history.back());
  }
  body += "}\n";
  return {200, "application/json", std::move(body)};
}

obs::HttpResponse StalenessService::signals_response(
    const ServingSnapshot& snap, const tr::PairKey& pair,
    std::size_t limit) const {
  const PairVerdict* verdict = snap.find(pair);
  if (verdict == nullptr) {
    return not_found("unknown pair: src=" + std::to_string(pair.probe) +
                     " dst=" + pair.dst.to_string());
  }
  const std::vector<SignalEvent>& history = verdict->history;
  const std::size_t count = std::min(limit, history.size());
  std::string body = "{";
  append_envelope(body, snap);
  body += ",\"pair\":";
  append_pair_key(body, verdict->pair);
  body += ",\"history_cap\":";
  body += std::to_string(snap.history_cap);
  body += ",\"signals_total\":";
  body += std::to_string(verdict->signals_total);
  body += ",\"dropped\":";
  body += std::to_string(verdict->signals_total - count);
  body += ",\"signals\":[";
  // Newest `count` events, oldest of them first (chronological order).
  for (std::size_t i = history.size() - count; i < history.size(); ++i) {
    if (i != history.size() - count) body += ",";
    append_signal_event(body, history[i]);
  }
  body += "]}\n";
  return {200, "application/json", std::move(body)};
}

obs::HttpResponse StalenessService::pairs_response(
    const ServingSnapshot& snap, std::optional<tr::Freshness> filter,
    std::size_t limit) const {
  std::string body = "{";
  append_envelope(body, snap);
  body += ",\"corpus\":";
  body += std::to_string(snap.pairs.size());
  body += ",\"counts\":{\"fresh\":";
  body += std::to_string(snap.fresh);
  body += ",\"stale\":";
  body += std::to_string(snap.stale);
  body += ",\"unknown\":";
  body += std::to_string(snap.unknown);
  body += "},\"pairs\":[";
  std::size_t returned = 0;
  for (const PairVerdict& verdict : snap.pairs) {
    if (filter && verdict.freshness != *filter) continue;
    if (returned >= limit) break;
    if (returned > 0) body += ",";
    body += "{\"probe\":";
    body += std::to_string(verdict.pair.probe);
    body += ",\"dst\":\"";
    body += verdict.pair.dst.to_string();
    body += "\",";
    append_verdict_fields(body, verdict);
    body += "}";
    ++returned;
  }
  body += "],\"returned\":";
  body += std::to_string(returned);
  body += "}\n";
  return {200, "application/json", std::move(body)};
}

obs::HttpResponse StalenessService::queue_response(const ServingSnapshot& snap,
                                                   int k) const {
  std::string body = "{";
  append_envelope(body, snap);
  body += ",\"k\":";
  body += std::to_string(k);
  body += ",\"stale_total\":";
  body += std::to_string(snap.refresh_queue.size());
  body += ",\"queue\":[";
  const std::size_t count =
      std::min<std::size_t>(static_cast<std::size_t>(k),
                            snap.refresh_queue.size());
  for (std::size_t rank = 0; rank < count; ++rank) {
    const PairVerdict& verdict = snap.pairs[snap.refresh_queue[rank]];
    if (rank > 0) body += ",";
    body += "{\"rank\":";
    body += std::to_string(rank + 1);
    body += ",\"probe\":";
    body += std::to_string(verdict.pair.probe);
    body += ",\"dst\":\"";
    body += verdict.pair.dst.to_string();
    body += "\",\"stale_since_window\":";
    body += std::to_string(verdict.stale_since_window);
    body += ",\"active_signals\":";
    body += std::to_string(verdict.active_signals);
    body += ",\"signals_total\":";
    body += std::to_string(verdict.signals_total);
    body += ",\"last_technique\":";
    if (verdict.history.empty()) {
      body += "null";
    } else {
      body += "\"";
      body += signals::technique_label(verdict.history.back().technique);
      body += "\"";
    }
    body += "}";
  }
  body += "]}\n";
  return {200, "application/json", std::move(body)};
}

}  // namespace rrr::serve
