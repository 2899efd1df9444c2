#include "detect/series.h"

namespace rrr::detect {

Judgement LazySeries::feed(std::int64_t window, double value) {
  if (has_last_ && window <= last_window_) return {};
  std::int64_t gap = has_last_ ? window - last_window_ - 1 : 0;
  if (gap > 0) {
    detector_.backfill(gap_ == GapPolicy::kCarryLast ? last_value_ : 0.0,
                       static_cast<std::size_t>(gap));
  }
  Judgement judgement = detector_.update(value);
  last_window_ = window;
  last_value_ = value;
  has_last_ = true;
  return judgement;
}

void AdaptiveRatioSeries::escalate() {
  std::int64_t next = std::min(multiplier_ * 2, max_multiplier_);
  bool exact_double = next == multiplier_ * 2;
  consecutive_ = 0;
  detector_.reset();
  if (current_agg_ != std::numeric_limits<std::int64_t>::min()) {
    if (exact_double) {
      current_agg_ /= 2;  // pending counts fold into the doubled window
    } else {
      // Capped, non-integral growth: window boundaries shift; drop the
      // partial bucket rather than misfile it.
      current_agg_ = std::numeric_limits<std::int64_t>::min();
      pending_num_ = 0;
      pending_den_ = 0;
    }
  }
  multiplier_ = next;
}

void AdaptiveRatioSeries::add(std::int64_t base_window, std::int64_t match,
                              std::int64_t intersect) {
  // Contract: callers close windows in order; closing here keeps the series
  // correct even when they do not.
  (void)close_through(base_window);
  std::int64_t agg = base_window / multiplier_;
  if (next_agg_init_) {
    if (agg < next_agg_) return;  // late data for an already-closed window
  } else {
    next_agg_ = agg;
    next_agg_init_ = true;
  }
  if (current_agg_ == std::numeric_limits<std::int64_t>::min()) {
    current_agg_ = agg;
  }
  if (agg != current_agg_) {
    // close_through above guarantees current_agg_ >= next_agg_; data can
    // only belong to the (single) open aggregate window.
    if (agg < current_agg_) return;
    current_agg_ = agg;
    pending_num_ = 0;
    pending_den_ = 0;
  }
  pending_num_ += match;
  pending_den_ += intersect;
}

std::vector<ClosedRatioWindow> AdaptiveRatioSeries::close_through(
    std::int64_t through) {
  std::vector<ClosedRatioWindow> out;
  if (!next_agg_init_) return out;  // no data has ever arrived
  while (true) {
    std::int64_t final_agg = through / multiplier_ - 1;
    if (next_agg_ > final_agg) break;
    bool populated = current_agg_ == next_agg_ && pending_den_ > 0;
    if (populated) {
      double ratio = static_cast<double>(pending_num_) /
                     static_cast<double>(pending_den_);
      Judgement judgement = detector_.update(ratio);
      ++consecutive_;
      if (!armed_ && consecutive_ >= kMinConsecutive) armed_ = true;
      if (armed_) {
        out.push_back(ClosedRatioWindow{next_agg_, multiplier_,
                                        pending_den_, ratio, judgement});
      }
      last_ratio_ = ratio;
      has_ratio_ = true;
      pending_num_ = 0;
      pending_den_ = 0;
      current_agg_ = std::numeric_limits<std::int64_t>::min();
      ++next_agg_;
      continue;
    }
    // Empty aggregate window.
    if (armed_) {
      // Missing value: skipped, not an outlier (§4.1.2 / §4.2.1).
      ++next_agg_;
      continue;
    }
    // Not yet armed: the consecutive run restarts; repeated misses at this
    // window size mean it is too small (three strikes, then escalate —
    // escalating on every isolated miss overshoots the paper's "minimum
    // window size that allows 20 consecutive windows" by a large factor).
    consecutive_ = 0;
    ++misses_at_level_;
    if (misses_at_level_ >= 3) {
      misses_at_level_ = 0;
      if (multiplier_ < max_multiplier_) {
        escalate();
        // Indices changed; restart the scan at the (possibly folded)
        // pending window or at the present.
        next_agg_ = current_agg_ != std::numeric_limits<std::int64_t>::min()
                        ? current_agg_
                        : through / multiplier_;
        continue;
      }
      // At maximum window size and still gappy.
      dormant_ = true;
      detector_.reset();
    }
    ++next_agg_;
  }
  return out;
}

}  // namespace rrr::detect
