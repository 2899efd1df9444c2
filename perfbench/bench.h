// Shared declarations of the rrr end-to-end benchmark (perfbench/README.md).
//
// The benchmark drives eval::World through one of three workloads and times
// only calls into public functions: the World constructor, run_until one
// window at a time, initialize_corpus, the hooks (plan_refreshes,
// refresh_pair, StalenessService::on_window / handle), and, after the timed
// phase, the world-side layer entry points (probes.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "eval/world.h"
#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}
inline double ms_since(Clock::time_point begin) {
  return ms_between(begin, Clock::now());
}

// Windows each world runs after corpus init: two simulated days. A run
// builds a fixed number of worlds (seeds derived from --seed, count from
// --seconds and Workload::world_seconds), so it averages several topologies
// instead of measuring one, and two builds measure the same worlds.
inline constexpr int kWorldWindows = 192;
// Windows the output-check worlds replay (signal digest + semantic counters
// compared against the timed world): one simulated day, enough for the
// trace monitors, which need most of a day of history, to fire.
inline constexpr int kCheckWindows = 96;

// One named workload: the world shape plus what the benchmark does around
// it.
struct Workload {
  std::string name;
  int pairs = 0;
  int public_rate = 0;  // public traces per 900 s window
  int engine_threads = 1;
  int engine_shards = 1;
  // Sizes a run: it builds --seconds / world_seconds worlds. Set so that a
  // run at BENCHMARK.json's run_seconds lasts 25-50 s on the 4-core box,
  // where one world takes 2-4 s (bgp_corpus), 3-5.5 s (trace_feed) and
  // 4-8 s (live_service).
  double world_seconds = 0.0;
  // live_service only: query service, refresh budget, checkpoints, client.
  bool live = false;
  int refreshes_per_day = 0;  // plan_refreshes budget, spread over the day
  int checkpoint_every = 0;
  double query_rate = 0.0;  // open-loop /v1 queries per second
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);
// Throws std::invalid_argument for a shape World would silently distort
// (run_until caps the public feed at one trace per second of the window).
void validate(const Workload& workload);
// Refreshes the hook spends after the `w`-th window since corpus init: the
// daily budget spread evenly, so every day spends exactly refreshes_per_day.
int refreshes_due(const Workload& workload, std::int64_t w);
rrr::eval::WorldParams world_params(const Workload& workload,
                                    std::uint64_t seed);
// The k-th world seed of a run; world 0 keeps the run seed.
std::uint64_t world_seed(std::uint64_t run_seed, int k);

// ---- benchmark spans (traced runs) ----

// One span the benchmark recorded around a public call: name, start, end,
// the enclosing span and the window it belongs to (-1 outside windows).
struct Span {
  const char* name = nullptr;  // string literal (the flight recorder keeps
                               // the pointer)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t window = -1;
  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

// In-memory span log. Disabled logs record nothing and cost one branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int open(const char* name, std::int64_t window = -1);
  void close(int id);
  // Copies every span into the world's flight recorder (category "bench")
  // so World::trace_json() carries them beside the engine's own spans.
  void export_to(rrr::obs::TraceRecorder& recorder) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span over one public call.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::int64_t window = -1)
      : log_(log), id_(log.enabled() ? log.open(name, window) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) log_.close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// ---- statistics ----

double median(std::vector<double> values);
// Nearest-rank percentile (p in [0, 100]) of `values`.
double percentile(std::vector<double> values, double p);
// Samples strictly beyond the nearest-rank p-th percentile.
std::int64_t beyond(std::size_t n, double p);
// Highest percentile of a fixed ladder (99.9 down to 75, else 50) with at
// least ten of `n` samples beyond it.
double tail_percentile(std::size_t n);
double mean(const std::vector<double>& values);

// ---- machine speed ----

// The box this benchmark runs on shares its cores with other tenants, and
// its speed drifts over minutes, moving every timing of a run together
// (README "Steadiness"). SpeedReference samples that speed: a fixed kernel
// that calls no rrr code, timed in short slices before set-up and between
// windows. The end-to-end timings are reported at a fixed reference speed:
// each world's raw times are multiplied by
// (kReferenceSliceMs / the median of its slices) ^ kSpeedExponent, a control
// variate that cancels most of the host's drift. The slices never run rrr
// code, so a change to rrr moves the scaled figures exactly as it moves the
// raw ones.
class SpeedReference {
 public:
  SpeedReference();
  // Warms the table (untimed), then times one slice: a chase through a
  // table that fits a core's L2, with a multiply chain on the same critical
  // path. Returns the slice's wall time in ms.
  double slice_ms();

 private:
  std::vector<std::uint32_t> next_;
  std::uint32_t at_ = 0;
  std::uint64_t acc_ = 1;
};

// A slice's wall time at the reference speed: about its median on the
// 4-core box, so that figures there read close to wall-clock ones.
inline constexpr double kReferenceSliceMs = 1.0;
// How far a window's time moves per unit the slice's moves, in log terms:
// the slope of log window time on log slice median, fitted over 75 trace_feed
// worlds on the 4-core box (2.17 and 2.12 in two sets), rounded down.
inline constexpr double kSpeedExponent = 2.0;
// Slices a timed world runs before its set-up, and windows between two
// slices of its timed phase.
inline constexpr int kSetupSlices = 4;
inline constexpr int kWindowsPerSlice = 4;

// ---- output checks ----

// FNV-1a over the semantic signal stream, the same fold fig_serving_sweep
// uses, so digests are comparable across harnesses.
struct SignalDigest {
  std::uint64_t value = 1469598103934665603ull;
  std::int64_t count = 0;
  void fold(std::int64_t window,
            const std::vector<rrr::signals::StalenessSignal>& sigs);
};

// Strict JSON syntax check of one /v1 body.
bool json_valid(const std::string& text);

// ---- telemetry readers (traced runs) ----

// Registry values keyed by the canonical series key (name{k="v"}).
struct RegistryValues {
  std::map<std::string, double> value;  // counters and gauges
  std::map<std::string, double> sum;    // histogram sums
  std::map<std::string, double> count;  // histogram counts
};
RegistryValues read_registry(const rrr::obs::MetricsRegistry* registry);
std::string series_key(const std::string& name, const std::string& label_key,
                       const std::string& label_value);

// Peak resident set (VmHWM) of this process, in MB.
double peak_rss_mb();

}  // namespace perfbench
