// Exposition formats for telemetry snapshots: structured JSON (bench
// artifacts, `--stats-json`) and the Prometheus text format (scrape-style
// consumers), plus the per-window stats time series the bench harnesses
// emit alongside their figures.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace rrr::obs {

// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(std::string_view text);

// Deterministic number rendering shared by both exporters: integers render
// without a decimal point, everything else via %g.
std::string format_number(double value);

// Renders a snapshot as a JSON array of metric objects (sorted by key, so
// equal snapshots produce equal bytes).
std::string to_json(const Snapshot& snapshot);

// Prometheus text exposition format 0.0.4: one # HELP / # TYPE header per
// family, histograms as cumulative _bucket{le=...} plus _sum / _count.
// Label values are escaped per the format (backslash, double quote,
// newline); metric families whose names violate the exposition grammar
// are skipped (registration already rejects them — see MetricsRegistry —
// so a skip here only defends against snapshots from older checkpoints).
std::string to_prometheus(const Snapshot& snapshot);

// Exposition grammar for metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
// MetricsRegistry rejects registrations that fail this.
bool prometheus_valid_name(const std::string& name);

// Escapes a label *value* for the text format: \ -> \\, " -> \", and
// newline -> \n. (Label names share the metric-name grammar minus ':'.)
std::string prometheus_escape_label(const std::string& value);

// Approximate quantile from histogram buckets: the smallest upper bound
// whose cumulative count reaches q * count (+Inf when only the overflow
// bucket reaches it). Returns 0 for an empty histogram.
double histogram_quantile(const MetricSnapshot& metric, double q);

// True when the RRR_STATS environment variable asks for telemetry (set and
// neither empty nor "0") — the force-enable knob documented in README.
bool env_enabled();

// Per-window stats time series: after each closed window, `sample` records
// every metric whose cumulative value changed since the previous sample
// (counters/gauges by value, histograms by observation count). Sparse by
// construction: quiet metrics cost nothing, so a long run's series stays
// proportional to activity, not to windows x metrics. Thread-safe: the
// run thread samples while a live introspection endpoint reads json().
class StatsSeries {
 public:
  void sample(std::int64_t window, const MetricsRegistry& registry);

  std::size_t window_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return windows_.size();
  }

  // JSON array of {"window": N, "metrics": {key: value | histogram}}
  // objects; histogram entries carry cumulative count/sum/buckets.
  std::string json() const;

 private:
  mutable std::mutex mu_;
  // Last seen change-detection fingerprint per metric key.
  std::map<std::string, std::int64_t> last_;
  std::vector<std::string> windows_;  // pre-rendered JSON objects
};

}  // namespace rrr::obs
