#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string_view>

#include "obs/export.h"

namespace rrr::obs {
namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Process-unique recorder ids. The thread-local ring cache is keyed on the
// id, not the recorder address, so a recorder destroyed and another
// allocated at the same address can never alias a stale cache entry.
std::atomic<std::uint64_t> g_next_recorder_id{1};

struct TlsCache {
  std::uint64_t recorder_id = 0;
  void* track = nullptr;  // TraceRecorder::ThreadTrack*, owned by recorder
};
thread_local TlsCache t_cache;

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  out += json_escape(s);
  out += '"';
}

}  // namespace

TraceRing::TraceRing(std::size_t capacity_pow2)
    : slots_(round_up_pow2(std::max<std::size_t>(capacity_pow2, 2))),
      mask_(slots_.size() - 1) {}

bool TraceRing::try_push(const TraceEvent& event) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  // Acquire pairs with the drainer's release store: once tail_ has moved
  // past a slot, its prior contents have been fully read and the slot may
  // be overwritten.
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head - tail >= slots_.size()) return false;  // full: caller counts
  slots_[static_cast<std::size_t>(head) & mask_] = event;
  head_.store(head + 1, std::memory_order_release);
  return true;
}

TraceRecorder::TraceRecorder(TraceParams params)
    : params_(params),
      id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(SpanClock::now()) {
  // The single wall-clock read in the tracing layer: anchors exported
  // timestamps to wall time so traces line up with logs. Durations are
  // steady-clock throughout (see SpanClock in metrics.h).
  wall_anchor_us_ =
      params_.wall_anchor_us >= 0
          ? params_.wall_anchor_us
          : std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count();
}

std::int64_t TraceRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SpanClock::now() - epoch_)
      .count();
}

TraceRecorder::ThreadTrack* TraceRecorder::bind_this_thread() {
  std::lock_guard<std::mutex> lock(mu_);
  tracks_.push_back(std::make_unique<ThreadTrack>(params_.ring_capacity));
  ThreadTrack* track = tracks_.back().get();
  track->tid = static_cast<std::uint32_t>(tracks_.size());
  t_cache.recorder_id = id_;
  t_cache.track = track;
  return track;
}

void TraceRecorder::record(const TraceEvent& event) {
  ThreadTrack* track = t_cache.recorder_id == id_
                           ? static_cast<ThreadTrack*>(t_cache.track)
                           : bind_this_thread();
  if (!track->ring.try_push(event)) {
    track->dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

void TraceRecorder::instant(const char* name, const char* category,
                            std::int64_t window, const char* arg_name,
                            std::int64_t arg) {
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.phase = TracePhase::kInstant;
  event.start_ns = now_ns();
  event.window = window;
  event.arg_name = arg_name;
  event.arg = arg;
  record(event);
}

void TraceRecorder::name_this_thread(const std::string& name) {
  ThreadTrack* track = t_cache.recorder_id == id_
                           ? static_cast<ThreadTrack*>(t_cache.track)
                           : bind_this_thread();
  std::lock_guard<std::mutex> lock(mu_);
  track->name = name;
}

void TraceRecorder::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t drained = 0;
  for (auto& track : tracks_) {
    const std::uint32_t tid = track->tid;
    drained += static_cast<std::int64_t>(
        track->ring.drain([&](const TraceEvent& event) {
          store_.push_back(StoredEvent{event, tid});
        }));
    // Fold producer-side push failures into the recorder tally exactly
    // once per drop.
    const std::int64_t dropped =
        track->dropped.load(std::memory_order_relaxed);
    dropped_ring_ += dropped - track->dropped_drained;
    track->dropped_drained = dropped;
  }
  events_total_ += drained;
  // Flight-recorder bound: keep the newest events, evict the oldest.
  while (store_.size() > params_.recorder_capacity) {
    store_.pop_front();
    ++dropped_store_;
  }
  if (obs_events_ != nullptr) {
    obs_events_->set(events_total_);
    obs_dropped_ring_->set(dropped_ring_);
    obs_dropped_store_->set(dropped_store_);
  }
}

std::string TraceRecorder::json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const StoredEvent*> ordered;
  ordered.reserve(store_.size());
  for (const StoredEvent& stored : store_) ordered.push_back(&stored);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const StoredEvent* a, const StoredEvent* b) {
                     return a->event.start_ns < b->event.start_ns;
                   });
  std::string out;
  out.reserve(ordered.size() * 128 + 1024);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Thread-name metadata events so Perfetto/chrome://tracing label tracks.
  for (const auto& track : tracks_) {
    if (track->name.empty()) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(track->tid);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":";
    append_json_string(out, track->name.c_str());
    out += "}}";
  }
  for (const StoredEvent* stored : ordered) {
    const TraceEvent& event = stored->event;
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"";
    out += event.phase == TracePhase::kInstant ? 'i' : 'X';
    out += "\",\"pid\":1,\"tid\":";
    out += std::to_string(stored->tid);
    out += ",\"ts\":";
    // Chrome trace timestamps are microseconds. Floor the start and the
    // *endpoint* (not the duration): flooring both ends monotonically
    // preserves span nesting, whereas independently floored durations can
    // push an inner span 1 us past its parent.
    out += std::to_string(wall_anchor_us_ + event.start_ns / 1000);
    if (event.phase == TracePhase::kSpan) {
      out += ",\"dur\":";
      out += std::to_string((event.start_ns + event.dur_ns) / 1000 -
                            event.start_ns / 1000);
    } else {
      out += ",\"s\":\"t\"";  // instant scope: thread
    }
    out += ",\"name\":";
    append_json_string(out, event.name != nullptr ? event.name : "?");
    out += ",\"cat\":";
    append_json_string(out,
                       event.category != nullptr ? event.category : "?");
    const bool has_window = event.window >= 0;
    const bool has_arg = event.arg_name != nullptr;
    if (has_window || has_arg) {
      out += ",\"args\":{";
      if (has_window) {
        out += "\"window\":";
        out += std::to_string(event.window);
      }
      if (has_arg) {
        if (has_window) out += ',';
        append_json_string(out, event.arg_name);
        out += ':';
        out += std::to_string(event.arg);
      }
      out += '}';
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_.size();
}

std::int64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_ring_ + dropped_store_;
}

void TraceRecorder::set_metrics(MetricsRegistry& registry) {
  std::lock_guard<std::mutex> lock(mu_);
  obs_events_ = &registry.counter(
      "rrr_trace_events_total", {}, Domain::kRuntime,
      "Trace events drained into the flight recorder");
  obs_dropped_ring_ = &registry.counter(
      "rrr_trace_events_dropped_total", {{"reason", "ring"}},
      Domain::kRuntime, "Trace events lost before export");
  obs_dropped_store_ = &registry.counter(
      "rrr_trace_events_dropped_total", {{"reason", "recorder"}},
      Domain::kRuntime, "Trace events lost before export");
}

bool trace_env_enabled() {
  const char* v = std::getenv("RRR_TRACE");
  return v != nullptr && v[0] != '\0' &&
         !(v[0] == '0' && v[1] == '\0');
}

}  // namespace rrr::obs
