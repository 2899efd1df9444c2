// Streaming outlier detection for signal time series.
//
// The paper uses two detectors: the Bitmap algorithm (Wei et al., SSDBM
// 2005) for BGP-derived series (§4.1.2) and the modified z-score
// (Iglewicz & Hoaglin) for the noisier traceroute-derived series (§4.2.1).
// Both share one streaming shape (below) that (a) withholds
// judgement until a minimum history exists (20 observations, the
// recommended floor for robust outlier detection) and (b) removes flagged
// windows from the history so persistent changes keep registering as
// outliers instead of becoming the new normal (§4.1.2's stationarity
// maintenance).
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <memory>

#include "store/serial.h"

namespace rrr::detect {

// Bounded history of doubles backed by one flat allocation. The detectors'
// histories have small, configuration-known caps (tens of values), but the
// engine holds one detector per watched (pair, suffix) entry — tens of
// thousands at 10x corpus scale — and a std::deque<double> pre-allocates a
// ~512-byte node plus its pointer map even when empty, which dominated the
// monitors' resident set. The buffer grows geometrically and its capacity
// clamps to the cap, so a full history costs exactly its payload; pushing
// onto a full ring drops its front value. Iteration runs front to back, as
// in the deque it replaced.
class Ring {
 public:
  explicit Ring(std::size_t cap) : max_(cap == 0 ? 1 : cap) {}

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }  // allocated slots
  std::size_t max_size() const { return max_; }  // the cap
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  double operator[](std::size_t i) const { return data_[slot(i)]; }

  void push_back(double value) {
    if (size_ == max_) {
      // Full: the front slot takes the value and becomes the back.
      data_[head_] = value;
      head_ = head_ + 1 == cap_ ? 0 : head_ + 1;
      return;
    }
    if (size_ == cap_) grow();
    data_[slot(size_)] = value;
    ++size_;
  }
  void pop_back() { --size_; }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = double;
    using difference_type = std::ptrdiff_t;
    using pointer = const double*;
    using reference = double;

    const_iterator(const Ring* ring, std::size_t i) : ring_(ring), i_(i) {}
    double operator*() const { return (*ring_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator copy = *this;
      ++i_;
      return copy;
    }
    bool operator==(const const_iterator& other) const {
      return i_ == other.i_;
    }
    bool operator!=(const const_iterator& other) const {
      return i_ != other.i_;
    }

   private:
    const Ring* ring_;
    std::size_t i_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  // Snapshot: a u64 count and the values front to back (the byte format of
  // the deque this replaced, so existing snapshots load as-is). A count
  // over the cap, the most the detector ever retains, is kCorrupt before
  // any value is read.
  template <class Io, class Self>
  static void io(Io& io, Self& ring) {
    std::uint64_t n = ring.size();
    io(n);
    io.check(n <= ring.max_size(),
             "detector history holds more values than its cap");
    if constexpr (Io::kLoading) ring.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      double value = Io::kLoading ? 0.0 : ring[i];
      io(value);
      if constexpr (Io::kLoading) ring.push_back(value);
    }
  }

 private:
  std::size_t slot(std::size_t i) const {
    std::size_t s = head_ + i;
    return s >= cap_ ? s - cap_ : s;
  }
  void grow() {
    std::size_t next = std::min(cap_ == 0 ? 8 : cap_ * 2, max_);
    auto fresh = std::make_unique<double[]>(next);
    for (std::size_t i = 0; i < size_; ++i) fresh[i] = data_[slot(i)];
    data_ = std::move(fresh);
    cap_ = next;
    head_ = 0;
  }

  std::unique_ptr<double[]> data_;
  std::size_t max_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

struct Judgement {
  bool outlier = false;
  double score = 0.0;  // detector-specific magnitude (z-score / distance)
};

// Both detectors share one streaming shape. update() feeds the next
// observed value (missing windows are simply not fed) and judges it.
// backfill() appends `count` repetitions of a value without judging them:
// signal series are constant in the vast majority of windows, so callers
// batch those windows and only pay for judgement when the value moves.
// save_state()/load_state() carry the dynamic state only; the owner
// supplies the configuration at construction, exactly as in a fresh run,
// and a loaded detector judges later observations bit-identically.

// Modified z-score: M = 0.6745 (x - median) / MAD, outlier when |M| exceeds
// the threshold (3.5 by convention). When the MAD degenerates to zero the
// mean absolute deviation fallback from Iglewicz & Hoaglin is used.
struct ZScoreParams {
  double threshold = 3.5;
  std::size_t min_history = 20;
  std::size_t max_history = 96;
  bool drop_outliers_from_history = true;
  // Outliers must also deviate from the median by at least this much. For
  // ratio series built from small per-window samples the MAD degenerates
  // toward zero and routine binomial wobble would otherwise produce huge
  // z-scores; a real path change moves the ratio by a large step.
  double min_abs_deviation = 0.0;
};

class ModifiedZScoreDetector {
 public:
  explicit ModifiedZScoreDetector(const ZScoreParams& params = {})
      : params_(params), history_(params.max_history) {}

  Judgement update(double value);
  void backfill(double value, std::size_t count);
  // Drops the history, keeping the configuration.
  void reset() { history_.clear(); }
  void save_state(store::Encoder& enc) const { enc(history_); }
  void load_state(store::Decoder& dec) { dec(history_); }

 private:
  ZScoreParams params_;
  Ring history_;
};

// Bitmap anomaly detection: SAX-discretize the series, build chaos-game
// bitmaps of subword frequencies over a lag (past) and lead (recent)
// window, and score the current point by the normalized squared distance
// between the two bitmaps. An observation is an outlier when its score
// exceeds mean + kThresholdSigmas * stddev of previous scores. Every BGP
// series runs the one configuration below, so it is fixed at compile time
// and sizes the scoring kernel's stack buffers.
class BitmapDetector {
 public:
  static constexpr std::size_t kWindow = 40;     // lag ("normal") + lead
  static constexpr std::size_t kLeadWindow = 8;  // recent behaviour under test
  static constexpr std::size_t kAlphabet = 4;    // SAX symbols for N(0,1)
  static constexpr std::size_t kWordLength = 2;  // subword size
  static constexpr std::size_t kCells = kAlphabet * kAlphabet;  // alphabet^word
  static constexpr double kThresholdSigmas = 3.0;
  static constexpr std::size_t kMinHistory = 20;
  // Retained past anomaly scores for the adaptive threshold.
  static constexpr std::size_t kScoreHistoryCap = 128;

  BitmapDetector() : values_(kWindow), scores_(kScoreHistoryCap) {}

  Judgement update(double value);
  void backfill(double value, std::size_t count);
  void save_state(store::Encoder& enc) const { enc(values_, scores_); }
  void load_state(store::Decoder& dec) { dec(values_, scores_); }

 private:
  double bitmap_distance() const;

  Ring values_;   // lag + lead raw values (outliers dropped)
  Ring scores_;   // past anomaly scores for thresholding
};

}  // namespace rrr::detect
