// §4.2.1 — staleness signals from IP-level subpath overlap with public
// traceroutes.
//
// For every border-crossing IP segment of a corpus traceroute, the monitor
// tracks T_ratio: among recent public traceroutes that pass through the
// segment's first hop and later its last hop (regardless of destination),
// the fraction that follow the exact hop sequence. Window sizes adapt per
// segment (15 minutes to 24 hours) until 20 consecutive populated windows
// exist (§4.2.1's configuration rule); the modified z-score flags outliers,
// which become staleness prediction signals for every corpus traceroute
// subscribed to the segment. Segments are deduplicated by content, so one
// busy border feeds signals to the many corpus paths crossing it
// (Appendix C, Figure 14).
#pragma once

#include <deque>
#include <unordered_map>

#include "signals/trace_series_monitor.h"

namespace rrr::signals {

class SubpathMonitor final : public TraceSeriesMonitor {
 public:
  explicit SubpathMonitor(bool drop_outliers_from_history = true)
      : TraceSeriesMonitor(Technique::kTraceSubpath,
                           drop_outliers_from_history) {}

  void watch(const CorpusView& view, PotentialIndex& index);
  void on_public_trace(const tracemap::ProcessedTrace& trace,
                       std::int64_t window);

  struct Stats {
    std::size_t segments = 0;
    std::size_t armed = 0;
    std::size_t dormant = 0;
    std::size_t subscribed = 0;  // segments with at least one subscriber
    double mean_multiplier = 0.0;
    std::uint64_t observations = 0;  // total (segment, trace) data points
  };
  Stats stats() const;

  struct SegmentInfo {
    std::size_t border_index = 0;
    std::size_t length = 0;
    bool armed = false;
    bool dormant = false;
    std::int64_t multiplier = 1;
    bool has_ratio = false;
    double last_ratio = 0.0;
  };
  // Diagnostic view of the segments monitoring `pair`.
  std::vector<SegmentInfo> segments_for(const tr::PairKey& pair) const;

  // Checkpoint support. Segments serialize in id order, each as its id,
  // its IPs and its series, followed by the series index and the
  // observation count. by_first_ip_ is rebuilt in id order, which equals
  // its original insertion order (ensure_segment registers a segment the
  // moment its id is created, and ids are handed out monotonically). Map
  // keys are recomputed from segment contents.
  void save_state(store::Encoder& enc) const;
  void load_state(store::Decoder& dec);

 private:
  // Hops of context kept past the last border when carving segments.
  static constexpr std::size_t kFlankHops = 1;

  struct Segment : Series {
    using Series::Series;
    std::vector<Ipv4> ips;  // ι_m .. ι_n
  };

  // Content hash identifying a segment.
  static std::uint64_t key_of(const std::vector<Ipv4>& ips);
  Segment& ensure_segment(const std::vector<Ipv4>& ips,
                          PotentialIndex& index);
  // Appends a segment holding `ips` and indexes it by content and first IP.
  Segment& add_segment(std::vector<Ipv4> ips);

  std::deque<Segment> segments_;  // in id order
  std::unordered_map<std::uint64_t, Segment*> by_key_;
  std::unordered_map<Ipv4, std::vector<Segment*>> by_first_ip_;
  std::uint64_t observations_ = 0;
};

}  // namespace rrr::signals
