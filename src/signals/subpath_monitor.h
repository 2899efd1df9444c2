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

#include "netbase/flat_table.h"
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
  // its IPs and its series, followed by the touched list and the
  // observation count. The first-IP lists are rebuilt in id order, which
  // equals their original insertion order (ensure_segment registers a
  // segment the moment its id is created, and ids are handed out
  // monotonically). Content keys are recomputed from segment contents. A
  // load accepts only what a save writes: ids strictly ascending and no
  // two segments with the same IPs, else kCorrupt.
  void save_state(store::Encoder& enc) const { io(enc, *this); }
  void load_state(store::Decoder& dec) { io(dec, *this); }

 private:
  // Hops of context kept past the last border when carving segments.
  static constexpr std::size_t kFlankHops = 1;

  struct Segment : Series {
    using Series::Series;
    std::vector<Ipv4> ips;  // ι_m .. ι_n
  };

  // A star's word in hop_keys_: no address equals it.
  static constexpr std::uint64_t kStar = std::uint64_t{1} << 32;

  // Content hash identifying a segment.
  static std::uint64_t key_of(const std::vector<Ipv4>& ips);
  Segment& ensure_segment(const std::vector<Ipv4>& ips,
                          PotentialIndex& index);
  // Indexes the segment at `position` by content and first IP; false when
  // another segment holds its IPs.
  bool index_segment(std::uint32_t position);
  // Rebuilds the indexes and the series registry of loaded segments.
  void index_loaded();

  std::deque<Segment> segments_;  // in id order
  // Content key -> position in segments_.
  FlatIndex by_key_;
  // First IP -> position in first_ip_lists_, which holds the segments
  // starting at that IP in id order.
  FlatIndex by_first_ip_;
  std::vector<std::vector<Segment*>> first_ip_lists_;
  // The public trace being matched, one word per hop: a responded hop's
  // address, or kStar. Reused, so matching a trace allocates nothing.
  std::vector<std::uint64_t> hop_keys_;
  std::uint64_t observations_ = 0;

  template <class Io, class Self>
  static void io(Io& io, Self& self) {
    // A segment holds at least its id and its IP count.
    io.each(
        self.segments_, 8 + 8,
        [](auto& io, auto& segment) {
          io(segment.id, segment.ips);
          Series::io(io, segment);
        },
        self.zscore());
    if constexpr (Io::kLoading) self.index_loaded();
    index_io(io, self);
    io(self.observations_);
  }
};

}  // namespace rrr::signals
