// One world's life in the benchmark: set-up, the timed phase one window at
// a time, the quality grading, and (traced runs) the post-run layer probes.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bench.h"

namespace rrr::serve {
class StalenessService;
}  // namespace rrr::serve

namespace perfbench {

struct RunOptions {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  int engine_threads = 1;
  int engine_shards = 1;
  // Telemetry registry on (semantic counters for the output checks).
  bool telemetry = false;
  // Registry + flight recorder on, benchmark spans recorded, per-window
  // close/hook split, precision/coverage grading, post-run probes.
  bool traced = false;
  // live_service's daemon surface: query service, HTTP server, open-loop
  // client and checkpoints. Check worlds run the same refresh hook without
  // it.
  bool daemon = false;
  // Windows the timed phase closes (fewer only if one fails).
  int windows = 0;
  // Snapshot the digest (and, with telemetry, the semantic counters) after
  // this many windows; 0 = never.
  int check_at = 0;
  // Directory for checkpoints and trace files (inside the checkout).
  std::string scratch;
  // Samples the machine's speed before set-up and between windows; null
  // leaves the world unsampled (the output-check replays).
  SpeedReference* reference = nullptr;
};

// Precision/coverage numerators and denominators of Table 2's "All" row.
struct QualityTally {
  double correct = 0.0;
  std::int64_t signals = 0;
  double covered = 0.0;
  std::int64_t changes = 0;
};

// Post-run probes of the world-side layers (probes.cpp).
struct LayerProbes {
  double issue_us = 0.0;
  double hops_per_trace = 0.0;
  std::int64_t traces = 0;
  double tracemap_ingest_us = 0.0;
  double tracemap_process_us = 0.0;
  double engine_public_trace_us = 0.0;
  double routing_apply_us = 0.0;
  std::int64_t routing_events = 0;
  double bgp_on_event_us = 0.0;
  double bgp_records_per_event = 0.0;
  double engine_bgp_record_us = 0.0;
  double serve_handle_us = 0.0;
};

struct WorldResult {
  std::uint64_t seed = 0;
  std::size_t pairs = 0;
  // set-up
  double construct_ms = 0.0;
  double warmup_ms = 0.0;
  double init_corpus_ms = 0.0;
  double server_ms = 0.0;
  double setup_s() const {
    return (construct_ms + warmup_ms + init_corpus_ms + server_ms) / 1e3;
  }
  // timed phase
  std::vector<double> window_ms;
  double elapsed_s = 0.0;
  std::int64_t windows_failed = 0;
  std::vector<std::string> errors;
  // Reference slices (bench.h SpeedReference) and the factor that takes
  // this world's times to the reference speed.
  std::vector<double> reference_ms;
  double speed_scale() const {
    return reference_ms.empty()
               ? 1.0
               : std::pow(kReferenceSliceMs / median(reference_ms),
                          kSpeedExponent);
  }
  // traced: per-window split (close + hook + residual == window)
  std::vector<double> close_ms;
  std::vector<double> hook_ms;
  // output checks
  SignalDigest digest_at_check;
  std::string semantic_at_check;
  bool check_reached = false;
  // quality
  QualityTally quality;
  double match_ms = 0.0;
  // live_service
  std::int64_t refreshes = 0;
  std::int64_t refreshes_changed = 0;
  std::int64_t refresh_failures = 0;
  double publish_ms = 0.0;
  std::int64_t publishes = 0;
  double plan_ms = 0.0;
  std::int64_t plans = 0;
  double refresh_us = 0.0;
  std::vector<double> query_ms;  // from due; a failed query is +inf
  std::vector<double> query_rtt_us;
  std::vector<double> generator_late_ms;
  std::int64_t query_failures = 0;
  // traced: registry over the timed phase, and the probes
  RegistryValues before;
  RegistryValues after;
  LayerProbes probes;
  double windows_per_s() const {
    return elapsed_s > 0.0 ? static_cast<double>(window_ms.size()) / elapsed_s
                           : 0.0;
  }
};

WorldResult run_world(const RunOptions& options);

// Runs the post-run probes on a world whose timed phase is over (they
// mutate it). `service` is null outside live_service.
LayerProbes run_probes(rrr::eval::World& world,
                       const rrr::serve::StalenessService* service,
                       const std::vector<std::string>& targets,
                       SpanLog& spans);

}  // namespace perfbench
