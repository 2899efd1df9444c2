// Structured trace spans for the staleness engine: an always-compiled,
// runtime-gated flight recorder that turns one run into a browsable
// timeline (Chrome trace-event / Perfetto JSON).
//
// Recording model
// ---------------
//   * Every recording thread owns a lock-free single-producer/single-
//     consumer ring of fixed-size POD TraceEvent slots. The hot path is:
//     two steady-clock reads (span begin/end), one relaxed index load, one
//     slot store, one release index store — zero allocation, zero locks.
//     When tracing is off, instrumentation sites hold a *null*
//     TraceRecorder pointer and the whole path is one branch (the same
//     cost model as obs/metrics.h).
//   * A serial drain point — the window boundary — moves ring contents
//     into a bounded in-memory flight recorder. A full ring drops the
//     newest events, an over-capacity flight recorder evicts the oldest;
//     both are counted (`rrr_trace_events_dropped_total{reason=...}`), so
//     a timeline is never silently partial.
//   * Event names, categories, and arg names must be string *literals*
//     (static storage): the ring stores the pointers, not copies. That is
//     what keeps the recording path allocation-free.
//
// Clock discipline: every span duration is measured on SpanClock
// (std::chrono::steady_clock — see obs/metrics.h); wall time enters only
// as the single exported-timestamp anchor captured at recorder
// construction, so exported `ts` values line up with wall-clock logs while
// durations stay monotonic.
//
// Determinism: tracing is kRuntime-domain only. It reads clocks and writes
// its own buffers; it never touches RNG streams, semantic counters, or
// engine state, so the semantic snapshot stays byte-identical across the
// (shards × threads × fault) grid with tracing on — asserted by
// tests/determinism_test.cpp and tests/trace_test.cpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace rrr::obs {

// What kind of mark a TraceEvent is on the timeline.
enum class TracePhase : std::uint8_t {
  kSpan = 0,     // complete slice: [t_start, t_start + dur)
  kInstant = 1,  // point event (dur ignored)
};

// One recorded event. POD on purpose: ring slots are reused in place.
// `name` / `category` / `arg_name` must point at string literals.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  TracePhase phase = TracePhase::kSpan;
  std::int64_t start_ns = 0;  // since the recorder's steady-clock epoch
  std::int64_t dur_ns = 0;
  // The engine window the event belongs to, -1 when not window-scoped.
  std::int64_t window = -1;
  // Optional numeric payload, rendered as {arg_name: arg} in the export.
  const char* arg_name = nullptr;
  std::int64_t arg = 0;
};

struct TraceParams {
  // Per-thread ring capacity in events (rounded up to a power of two).
  // Sized so one window's worth of spans — phases, per-shard closes, pool
  // tasks — fits between two boundary drains with a wide margin.
  std::size_t ring_capacity = 8192;
  // Flight-recorder bound: total retained events across all threads. At
  // ~64 bytes/event the default keeps the recorder under ~16 MiB.
  std::size_t recorder_capacity = 1 << 18;
  // Exported-timestamp anchor in wall-clock microseconds; -1 captures
  // system_clock::now() at construction. Tests pin it for golden output.
  std::int64_t wall_anchor_us = -1;
};

// Lock-free SPSC ring of TraceEvents: the owning thread pushes, the drain
// point (serialized by the recorder's mutex) consumes. Capacity is a power
// of two; a full ring rejects the push (the caller counts the drop).
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity_pow2);

  // Producer side (owning thread only).
  bool try_push(const TraceEvent& event);

  // Consumer side (one drainer at a time). Invokes `fn(event)` for every
  // buffered event in push order; returns how many were consumed.
  template <typename Fn>
  std::size_t drain(Fn&& fn) {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t n = static_cast<std::size_t>(head - tail);
    for (; tail != head; ++tail) {
      fn(slots_[static_cast<std::size_t>(tail) & mask_]);
    }
    // Release: slot reads above happen-before the producer's reuse of them
    // (the producer acquire-loads tail_ before overwriting a slot).
    tail_.store(tail, std::memory_order_release);
    return n;
  }

  std::size_t capacity() const { return slots_.size(); }

 private:
  std::vector<TraceEvent> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};  // next write index (producer)
  std::atomic<std::uint64_t> tail_{0};  // next read index (consumer)
};

// The per-run trace sink. Construct one per World (alongside the
// MetricsRegistry); instrumentation sites hold a pointer that is null when
// tracing is off.
class TraceRecorder {
 public:
  explicit TraceRecorder(TraceParams params = {});
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // --- hot path (any thread) ---
  // Buffers one event into the calling thread's ring; start_ns/dur_ns must
  // already be filled in (TraceSpan does this). Drops, counted, when the
  // ring is full.
  void record(const TraceEvent& event);
  // Convenience: a point event stamped "now".
  void instant(const char* name, const char* category,
               std::int64_t window = -1, const char* arg_name = nullptr,
               std::int64_t arg = 0);
  // Nanoseconds since the recorder's steady-clock epoch.
  std::int64_t now_ns() const;

  // --- serial/maintenance path ---
  // Names the calling thread's track in the export (e.g. "driver",
  // "shard-worker"). Allocates; call at setup time, not per event.
  void name_this_thread(const std::string& name);
  // Drain point: moves every ring's buffered events into the bounded
  // flight recorder and rolls drop counts into the metrics. Thread-safe
  // (serialized internally); the engine calls it at window boundaries.
  void drain();
  // Chrome trace-event JSON of the flight recorder contents (one
  // {"traceEvents": [...]} document, events sorted by timestamp). Does NOT
  // drain first, so a live introspection endpoint can call it mid-run and
  // see everything through the last window boundary.
  std::string json() const;

  // --- accounting ---
  std::size_t event_count() const;  // events currently retained
  // Total events dropped so far (full rings + flight-recorder evictions).
  std::int64_t dropped() const;
  // Registers rrr_trace_* series (runtime domain) and keeps them updated
  // at every drain.
  void set_metrics(MetricsRegistry& registry);

 private:
  struct ThreadTrack {
    explicit ThreadTrack(std::size_t capacity) : ring(capacity) {}
    TraceRing ring;
    std::uint32_t tid = 0;
    std::string name;
    // Push failures, owned by the producer thread; drained with the ring.
    std::atomic<std::int64_t> dropped{0};
    std::int64_t dropped_drained = 0;  // consumer-side watermark
  };
  struct StoredEvent {
    TraceEvent event;
    std::uint32_t tid;
  };

  // Slow path of record(): registers (or re-binds) the calling thread.
  ThreadTrack* bind_this_thread();

  const TraceParams params_;
  const std::uint64_t id_;  // process-unique, for the thread-local cache
  SpanClock::time_point epoch_;
  std::int64_t wall_anchor_us_;

  mutable std::mutex mu_;  // guards tracks_, store_, and drop tallies
  std::vector<std::unique_ptr<ThreadTrack>> tracks_;
  std::deque<StoredEvent> store_;
  std::int64_t dropped_ring_ = 0;
  std::int64_t dropped_store_ = 0;
  std::int64_t events_total_ = 0;
  Counter* obs_events_ = nullptr;
  Counter* obs_dropped_ring_ = nullptr;
  Counter* obs_dropped_store_ = nullptr;
};

// RAII span: stamps begin on construction, records on destruction. A null
// recorder skips the clock reads entirely (one branch, like ScopedSpan).
class TraceSpan {
 public:
  TraceSpan(TraceRecorder* recorder, const char* name, const char* category,
            std::int64_t window = -1, const char* arg_name = nullptr,
            std::int64_t arg = 0)
      : recorder_(recorder) {
    if (recorder_ == nullptr) return;
    event_.name = name;
    event_.category = category;
    event_.window = window;
    event_.arg_name = arg_name;
    event_.arg = arg;
    event_.start_ns = recorder_->now_ns();
  }
  ~TraceSpan() {
    if (recorder_ == nullptr) return;
    event_.dur_ns = recorder_->now_ns() - event_.start_ns;
    recorder_->record(event_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceRecorder* recorder_;
  TraceEvent event_;
};

// True when the RRR_TRACE environment variable asks for tracing (set and
// neither empty nor "0") — the force-enable knob mirroring RRR_STATS.
bool trace_env_enabled();

}  // namespace rrr::obs
