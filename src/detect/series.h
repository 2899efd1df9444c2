// Windowed signal series on top of the detectors.
//
// One series kind per detector. BGP series are constant in almost every
// window (routes rarely change), so `LazySeries` run-length-compresses the
// constant stretches of a Bitmap-judged series (§4.1.2): a monitor only
// touches a series in windows where its value could have moved, and gaps
// are reconstructed according to a gap policy (carry the last value, or
// fill zeroes).
//
// Public-traceroute series have wildly varying densities per subpath.
// §4.2.1 requires at least 20 consecutive windows with data and picks the
// smallest window duration (15 minutes to 24 hours) achieving that;
// `AdaptiveRatioSeries` implements exactly that escalation and judges each
// closed window's match ratio with the modified z-score.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "detect/detector.h"

namespace rrr::detect {

enum class GapPolicy : std::uint8_t {
  kCarryLast,  // value persists through unfed windows (standing BGP routes)
  kZero,       // unfed windows are zeroes (update counts)
};

class LazySeries {
 public:
  explicit LazySeries(GapPolicy gap) : gap_(gap) {}

  // Feeds the value for `window`; windows must be fed in increasing order.
  // Returns the detector's judgement of this value (never of gap filler).
  Judgement feed(std::int64_t window, double value);

  // Initializes the series as if `value` had been observed for `history`
  // windows ending at `window` (monitoring data predates the watch: §5
  // starts BGP collection two days before the corpus).
  void seed(std::int64_t window, double value, std::size_t history) {
    detector_.backfill(value, history);
    last_window_ = window;
    last_value_ = value;
    has_last_ = true;
  }

  bool has_last() const { return has_last_; }
  double last_value() const { return last_value_; }
  std::int64_t last_window() const { return last_window_; }

  // Checkpoint support: dynamic state only. The owner reconstructs the
  // series with its usual gap policy, then loads.
  void save_state(store::Encoder& enc) const { io(enc, *this); }
  void load_state(store::Decoder& dec) { io(dec, *this); }

 private:
  template <class Io, class Self>
  static void io(Io& io, Self& self) {
    io(self.detector_, self.last_window_, self.last_value_, self.has_last_);
  }

  BitmapDetector detector_;
  GapPolicy gap_;
  std::int64_t last_window_ = std::numeric_limits<std::int64_t>::min();
  double last_value_ = 0.0;
  bool has_last_ = false;
};

// One closed aggregate window of an adaptive ratio series.
struct ClosedRatioWindow {
  std::int64_t aggregate_window = 0;  // in units of `multiplier` base windows
  std::int64_t multiplier = 1;        // base windows per aggregate window
  std::int64_t intersect = 0;         // denominator observed in the window
  double ratio = 0.0;
  Judgement judgement;
};

class AdaptiveRatioSeries {
 public:
  // `zscore` configures the detector; `max_multiplier` caps the window
  // escalation (96 base windows of 15 min = 24 h, the paper's cap).
  explicit AdaptiveRatioSeries(const ZScoreParams& zscore,
                               std::int64_t max_multiplier = 96)
      : detector_(zscore), max_multiplier_(max_multiplier) {}

  // Accumulates counts observed in `base_window`.
  void add(std::int64_t base_window, std::int64_t match,
           std::int64_t intersect);

  // Closes every aggregate window that ends at or before `through` (in base
  // windows), escalating the window size while the series cannot sustain 20
  // consecutive populated windows. Emits judgements for populated windows
  // once armed.
  std::vector<ClosedRatioWindow> close_through(std::int64_t through);

  std::int64_t multiplier() const { return multiplier_; }
  bool armed() const { return armed_; }
  bool dormant() const { return dormant_; }
  // Most recently closed populated ratio (for revocation checks).
  double last_ratio() const { return last_ratio_; }
  bool has_ratio() const { return has_ratio_; }

  static constexpr std::int64_t kMinConsecutive = 20;

  // Checkpoint support: dynamic state only (max_multiplier_ is
  // configuration, re-supplied at construction).
  void save_state(store::Encoder& enc) const { io(enc, *this); }
  void load_state(store::Decoder& dec) { io(dec, *this); }

 private:
  template <class Io, class Self>
  static void io(Io& io, Self& self) {
    io(self.detector_, self.multiplier_, self.consecutive_,
       self.misses_at_level_, self.armed_, self.dormant_, self.pending_num_,
       self.pending_den_, self.current_agg_, self.next_agg_,
       self.next_agg_init_, self.last_ratio_, self.has_ratio_);
  }

  void escalate();

  ModifiedZScoreDetector detector_;
  std::int64_t max_multiplier_;
  std::int64_t multiplier_ = 1;
  std::int64_t consecutive_ = 0;
  std::int64_t misses_at_level_ = 0;
  bool armed_ = false;
  // True when even the maximum window size cannot accumulate data; the
  // series stops escalating and waits for data silently.
  bool dormant_ = false;

  std::int64_t pending_num_ = 0;
  std::int64_t pending_den_ = 0;
  std::int64_t current_agg_ = std::numeric_limits<std::int64_t>::min();
  std::int64_t next_agg_ = 0;
  bool next_agg_init_ = false;
  double last_ratio_ = 0.0;
  bool has_ratio_ = false;
};

}  // namespace rrr::detect
