#include "detect/detector.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace rrr::detect {
namespace {

// Median of `values`, which it reorders.
double median_in_place(std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  std::nth_element(values.begin(), values.begin() + mid - 1,
                   values.begin() + mid);
  return (values[mid - 1] + upper) / 2.0;
}

}  // namespace

Judgement ModifiedZScoreDetector::update(double value) {
  Judgement judgement;
  if (history_.size() >= params_.min_history) {
    // Both medians reorder one per-thread scratch buffer, filled in history
    // order each time, so the selections (and the scores) are those of the
    // copies they replace, and a steady-state update allocates nothing.
    thread_local std::vector<double> scratch;
    scratch.assign(history_.begin(), history_.end());
    double med = median_in_place(scratch);
    double sum_ad = 0.0;  // in history order, for the fallback below
    for (std::size_t i = 0; i < history_.size(); ++i) {
      scratch[i] = std::abs(history_[i] - med);
      sum_ad += scratch[i];
    }
    double mad = median_in_place(scratch);
    double m = 0.0;
    if (mad > 1e-12) {
      m = 0.6745 * (value - med) / mad;
    } else {
      // Degenerate MAD: fall back to the mean absolute deviation.
      double mean_ad = sum_ad / static_cast<double>(history_.size());
      if (mean_ad > 1e-12) {
        m = (value - med) / (1.253314 * mean_ad);
      } else {
        // Perfectly constant history: any deviation is an outlier, signed
        // by its direction (one-sided consumers rely on the sign).
        m = value == med
                ? 0.0
                : (value < med ? -2.0 : 2.0) * params_.threshold;
      }
    }
    judgement.score = m;
    judgement.outlier = std::abs(m) > params_.threshold &&
                        std::abs(value - med) >= params_.min_abs_deviation;
  }
  if (!(judgement.outlier && params_.drop_outliers_from_history)) {
    history_.push_back(value);
  }
  return judgement;
}

void ModifiedZScoreDetector::backfill(double value, std::size_t count) {
  count = std::min(count, params_.max_history);
  for (std::size_t i = 0; i < count; ++i) history_.push_back(value);
}

void BitmapDetector::backfill(double value, std::size_t count) {
  count = std::min(count, kWindow);
  for (std::size_t i = 0; i < count; ++i) values_.push_back(value);
  // Constant stretches produce zero-distance scores; reflect a few of them
  // in the score history so the adaptive threshold stays calibrated. The
  // window does not change while they are recorded, so one score serves.
  std::size_t score_fill = std::min<std::size_t>(count, 8);
  if (score_fill == 0 || values_.size() < kMinHistory) return;
  double score = bitmap_distance();
  for (std::size_t i = 0; i < score_fill; ++i) scores_.push_back(score);
}

double BitmapDetector::bitmap_distance() const {
  // z-normalize the retained window against its own mean and standard
  // deviation, then apply the standard SAX breakpoints for a 4-symbol
  // alphabet: -0.6745, 0, 0.6745.
  static_assert(kAlphabet == 4 && kWordLength == 2);
  const std::size_t n = values_.size();
  double mean = 0.0;
  for (double v : values_) mean += v;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (double v : values_) var += (v - mean) * (v - mean);
  var /= static_cast<double>(n);
  double sd = std::sqrt(var);

  std::array<std::uint8_t, kWindow> symbols{};
  for (std::size_t i = 0; i < n; ++i) {
    double z = sd > 1e-12 ? (values_[i] - mean) / sd : 0.0;
    symbols[i] = z < -0.6745 ? 0 : z < 0.0 ? 1 : z < 0.6745 ? 2 : 3;
  }

  std::size_t lead = std::min(kLeadWindow, n);
  std::size_t lag_end = n - lead;  // lag is [0, lag_end), lead the rest
  if (lag_end < kWordLength || lead < kWordLength) return 0.0;

  auto fill_bitmap = [&](std::size_t begin, std::size_t end) {
    std::array<double, kCells> bitmap{};
    double max_count = 0.0;
    for (std::size_t i = begin; i + kWordLength <= end; ++i) {
      double& cell = bitmap[symbols[i] * kAlphabet + symbols[i + 1]];
      cell += 1.0;
      max_count = std::max(max_count, cell);
    }
    if (max_count > 0.0) {
      for (double& c : bitmap) c /= max_count;
    }
    return bitmap;
  };

  std::array<double, kCells> lag_bitmap = fill_bitmap(0, lag_end);
  std::array<double, kCells> lead_bitmap = fill_bitmap(lag_end, n);
  double distance = 0.0;
  for (std::size_t i = 0; i < kCells; ++i) {
    double d = lag_bitmap[i] - lead_bitmap[i];
    distance += d * d;
  }
  return distance;
}

Judgement BitmapDetector::update(double value) {
  Judgement judgement;
  values_.push_back(value);

  if (values_.size() >= kMinHistory) {
    double score = bitmap_distance();
    judgement.score = score;
    if (scores_.size() >= 8) {
      double mean = 0.0;
      for (double s : scores_) mean += s;
      mean /= static_cast<double>(scores_.size());
      double var = 0.0;
      for (double s : scores_) var += (s - mean) * (s - mean);
      var /= static_cast<double>(scores_.size());
      double sd = std::sqrt(var);
      double threshold = mean + kThresholdSigmas * std::max(sd, 1e-6);
      judgement.outlier = score > threshold && score > 1e-9;
    }
    if (!judgement.outlier) scores_.push_back(score);
  }

  // Stationarity maintenance: a flagged value leaves the history.
  if (judgement.outlier) values_.pop_back();
  return judgement;
}

}  // namespace rrr::detect
