// StalenessService: the query/serving layer (DESIGN.md §15, docs/API.md).
//
// Turns the batch engine into staleness-as-a-service: at every window
// boundary the driver hands the service the just-closed window's state
// (per-pair verdicts, the window's signals, the table epoch); the service
// folds them into its builder state, materializes an immutable
// ServingSnapshot, and publishes it with one pointer swap. HTTP readers
// resolve the /v1 route family against the snapshot they copied. The
// publisher's lock covers only that pointer copy or swap, so a reader and a
// window close wait on each other for at most one reference-count update.
//
//   GET /v1/pairs          corpus-wide verdict listing (+filter/limit)
//   GET /v1/verdict        one pair's verdict
//   GET /v1/signals        one pair's bounded signal history
//   GET /v1/refresh-queue  top-k stale pairs, stalest first
//
// Threading contract: on_window runs on the driver thread only, in the
// serial section between window closes (eval::World calls it right after
// advance_to). handle() and snapshot() are safe from any thread at any
// time. The service holds no pointer into the engine or the world — every
// byte it serves lives in snapshots it built — so it may outlive both.
//
// Determinism: the service only *reads* engine state (pair_states(),
// table epoch) and consumes the already-registered signal stream. It draws
// no randomness and never feeds anything back, so a run with serving
// attached emits a byte-identical semantic stream (pinned by
// tests/serve_test.cpp and the fig_serving_sweep grid).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/http_export.h"
#include "serve/snapshot.h"
#include "signals/signal.h"

namespace rrr::signals {
class Engine;
struct PairStateView;
}  // namespace rrr::signals

namespace rrr::serve {

struct ServiceParams {
  // Per-pair signal-history bound: the evidence ring keeps the newest
  // `history_cap` events; older ones only bump the dropped count.
  std::size_t history_cap = 32;
  // /v1/refresh-queue?k default when the query omits k.
  int default_queue_k = 20;
  // Hard ceiling on one /v1/pairs response (limit is clamped to it); the
  // serving layer is an operator hatch, not a bulk-export path.
  std::size_t max_page = 10000;
};

class StalenessService {
 public:
  explicit StalenessService(ServiceParams params = {});

  // --- materialization (driver thread, serial section) ---
  // Engine-facing hook: snapshots the engine's per-pair state and the
  // window's registered signals, publishes a new ServingSnapshot.
  void on_window(const signals::Engine& engine, std::int64_t window,
                 TimePoint window_end,
                 const std::vector<signals::StalenessSignal>& window_signals);
  // Core hook the engine variant forwards to; public so tests and other
  // drivers can materialize from handcrafted state.
  void on_window(const std::vector<signals::PairStateView>& states,
                 std::uint64_t table_epoch, std::int64_t window,
                 TimePoint window_end,
                 const std::vector<signals::StalenessSignal>& window_signals);

  // --- readers (any thread) ---
  // Current snapshot: one pointer copy under the publisher's lock.
  SnapshotPtr snapshot() const { return publisher_.read(); }
  // Routes one request target ("/v1/verdict?src=3&dst=10.0.0.1"). Returns
  // nullopt for paths outside the /v1 family (the HTTP server falls
  // through to its fixed routes); /v1 paths always get a response —
  // 200 with a JSON body, 400 on a malformed query, 404 on unknown
  // pair/route. Plugs into obs::HttpHandlers::api.
  std::optional<obs::HttpResponse> handle(const std::string& target) const;

  std::uint64_t windows_published() const {
    return windows_published_.load(std::memory_order_relaxed);
  }
  const ServiceParams& params() const { return params_; }

 private:
  // Builder state, touched by on_window only (driver thread).
  struct PairTrack {
    std::vector<SignalEvent> history;  // oldest -> newest, bounded
    std::uint64_t total = 0;
    std::int64_t stale_since = -1;  // current stale episode; -1 when not
  };

  obs::HttpResponse verdict_response(const ServingSnapshot& snap,
                                     const tr::PairKey& pair) const;
  obs::HttpResponse signals_response(const ServingSnapshot& snap,
                                     const tr::PairKey& pair,
                                     std::size_t limit) const;
  obs::HttpResponse pairs_response(const ServingSnapshot& snap,
                                   std::optional<tr::Freshness> filter,
                                   std::size_t limit) const;
  obs::HttpResponse queue_response(const ServingSnapshot& snap, int k) const;

  ServiceParams params_;
  SnapshotPublisher publisher_;
  std::map<tr::PairKey, PairTrack> tracks_;
  std::atomic<std::uint64_t> windows_published_{0};
};

}  // namespace rrr::serve
