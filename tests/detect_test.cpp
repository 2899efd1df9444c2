// Unit tests for the outlier detectors and series helpers (src/detect).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "detect/detector.h"
#include "detect/series.h"
#include "netbase/rng.h"

namespace rrr::detect {
namespace {

TEST(ModifiedZScore, FlagsLevelShiftImmediately) {
  ModifiedZScoreDetector detector;
  for (int i = 0; i < 30; ++i) {
    Judgement j = detector.update(0.8 + 0.01 * (i % 3));
    EXPECT_FALSE(j.outlier) << "window " << i;
  }
  Judgement j = detector.update(0.1);
  EXPECT_TRUE(j.outlier);
  EXPECT_LT(j.score, -3.5);
}

TEST(ModifiedZScore, SilentUntilMinHistory) {
  ZScoreParams params;
  params.min_history = 20;
  ModifiedZScoreDetector detector(params);
  for (int i = 0; i < 19; ++i) {
    EXPECT_FALSE(detector.update(1.0).outlier);
  }
  // Even a wild value cannot be judged before 20 observations exist.
  EXPECT_FALSE(detector.update(100.0).outlier);
}

TEST(ModifiedZScore, StationarityMaintenanceKeepsFlaggingPersistentChange) {
  ModifiedZScoreDetector detector;
  for (int i = 0; i < 30; ++i) detector.update(1.0);
  // A persistent shift: every post-change window keeps flagging because
  // flagged values are excluded from history (§4.1.2).
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(detector.update(0.2).outlier) << "post-change window " << i;
  }
}

TEST(ModifiedZScore, AblatedStationarityAbsorbsTheShift) {
  ZScoreParams params;
  params.drop_outliers_from_history = false;
  params.max_history = 30;
  ModifiedZScoreDetector detector(params);
  for (int i = 0; i < 30; ++i) detector.update(1.0);
  int flagged = 0;
  for (int i = 0; i < 40; ++i) {
    if (detector.update(0.2).outlier) ++flagged;
  }
  // The level shift becomes the new normal: flagging stops long before 40.
  EXPECT_LT(flagged, 25);
}

TEST(ModifiedZScore, ConstantHistoryTreatsAnyDeviationAsOutlier) {
  ModifiedZScoreDetector detector;
  for (int i = 0; i < 25; ++i) detector.update(1.0);
  EXPECT_TRUE(detector.update(0.5).outlier);
  EXPECT_FALSE(detector.update(1.0).outlier);
}

TEST(Bitmap, FlagsBurstAfterQuietBaseline) {
  BitmapDetector detector;
  bool flagged = false;
  for (int i = 0; i < 40; ++i) detector.update(0.0);
  for (int i = 0; i < 6; ++i) {
    if (detector.update(5.0).outlier) flagged = true;
  }
  EXPECT_TRUE(flagged);
}

TEST(Bitmap, ToleratesStationaryNoise) {
  BitmapDetector detector;
  // Alternating small values: periodic, stationary.
  int flagged = 0;
  for (int i = 0; i < 200; ++i) {
    if (detector.update(i % 2 == 0 ? 0.48 : 0.52).outlier) ++flagged;
  }
  EXPECT_LE(flagged, 4);
}

TEST(Bitmap, BackfillKeepsThresholdCalibrated) {
  BitmapDetector detector;
  detector.backfill(1.0, 30);
  // After a long constant stretch, a level shift is detected within the
  // lead window.
  bool flagged = false;
  for (int i = 0; i < 8; ++i) {
    if (detector.update(0.0).outlier) flagged = true;
  }
  EXPECT_TRUE(flagged);
}

// The Bitmap detector as first written: discretize() re-derives the
// window's mean and deviation for every value it symbolizes, the bitmaps
// are heap vectors and backfill() re-scores its unchanged window for each
// score it records. Kept as the oracle for the one-pass kernel, which must
// match it bit for bit.
class ReferenceBitmap {
 public:
  Judgement update(double value) {
    Judgement judgement;
    values_.push_back(value);
    if (values_.size() > kWindow) values_.pop_front();
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
        double threshold = mean + 3.0 * std::max(sd, 1e-6);
        judgement.outlier = score > threshold && score > 1e-9;
      }
      if (!judgement.outlier) {
        scores_.push_back(score);
        if (scores_.size() > kScoreCap) scores_.pop_front();
      }
    }
    if (judgement.outlier) values_.pop_back();
    return judgement;
  }

  void backfill(double value, std::size_t count) {
    count = std::min(count, kWindow);
    for (std::size_t i = 0; i < count; ++i) values_.push_back(value);
    while (values_.size() > kWindow) values_.pop_front();
    std::size_t score_fill = std::min<std::size_t>(count, 8);
    for (std::size_t i = 0; i < score_fill; ++i) {
      if (values_.size() >= kMinHistory) {
        scores_.push_back(bitmap_distance());
        if (scores_.size() > kScoreCap) scores_.pop_front();
      }
    }
  }

  // The detectors' snapshot format: each history as u64 count + f64s.
  std::string save_state() const {
    store::Encoder enc;
    for (const std::deque<double>* ring : {&values_, &scores_}) {
      enc.u64(ring->size());
      for (double v : *ring) enc.f64(v);
    }
    return enc.take();
  }

 private:
  static constexpr std::size_t kWindow = 40;
  static constexpr std::size_t kLeadWindow = 8;
  static constexpr std::size_t kAlphabet = 4;
  static constexpr std::size_t kWord = 2;
  static constexpr std::size_t kMinHistory = 20;
  static constexpr std::size_t kScoreCap = 128;

  int discretize(double value) const {
    double mean = 0.0;
    for (double v : values_) mean += v;
    mean /= static_cast<double>(values_.size());
    double var = 0.0;
    for (double v : values_) var += (v - mean) * (v - mean);
    var /= static_cast<double>(values_.size());
    double sd = std::sqrt(var);
    double z = sd > 1e-12 ? (value - mean) / sd : 0.0;
    if (z < -0.6745) return 0;
    if (z < 0.0) return 1;
    if (z < 0.6745) return 2;
    return 3;
  }

  double bitmap_distance() const {
    std::size_t cells = 1;
    for (std::size_t i = 0; i < kWord; ++i) cells *= kAlphabet;
    std::vector<int> symbols;
    for (double v : values_) symbols.push_back(discretize(v));
    std::size_t lead = std::min(kLeadWindow, symbols.size());
    std::size_t lag_end = symbols.size() - lead;
    if (lag_end < kWord || lead < kWord) return 0.0;
    auto fill_bitmap = [&](std::size_t begin, std::size_t end) {
      std::vector<double> bitmap(cells, 0.0);
      double max_count = 0.0;
      for (std::size_t i = begin; i + kWord <= end; ++i) {
        std::size_t cell = 0;
        for (std::size_t j = 0; j < kWord; ++j) {
          cell = cell * kAlphabet + static_cast<std::size_t>(symbols[i + j]);
        }
        bitmap[cell] += 1.0;
        max_count = std::max(max_count, bitmap[cell]);
      }
      if (max_count > 0.0) {
        for (double& c : bitmap) c /= max_count;
      }
      return bitmap;
    };
    std::vector<double> lag_bitmap = fill_bitmap(0, lag_end);
    std::vector<double> lead_bitmap = fill_bitmap(lag_end, symbols.size());
    double distance = 0.0;
    for (std::size_t i = 0; i < cells; ++i) {
      double d = lag_bitmap[i] - lead_bitmap[i];
      distance += d * d;
    }
    return distance;
  }

  std::deque<double> values_;
  std::deque<double> scores_;
};

template <typename D>
std::string saved(const D& detector) {
  store::Encoder enc;
  detector.save_state(enc);
  return enc.take();
}

TEST(Bitmap, OnePassKernelMatchesReferenceBitForBit) {
  using Source = std::function<double(Rng&, int)>;
  const std::vector<std::pair<const char*, Source>> shapes = {
      {"noise", [](Rng& rng, int) { return rng.uniform(); }},
      {"constant", [](Rng&, int) { return 0.75; }},
      {"step up, then down", [](Rng& rng, int i) {
         return (i >= 60 && i < 180 ? 0.9 : 0.2) + 0.01 * rng.uniform();
       }},
      {"step down, then up",
       [](Rng&, int i) { return i >= 45 && i < 200 ? 0.0 : 1.0; }},
      {"alternating", [](Rng&, int i) { return i % 2 == 0 ? 0.48 : 0.52; }},
      {"sparse spikes", [](Rng& rng, int) {
         return rng.bernoulli(0.05) ? 5.0 + rng.uniform() : 0.0;
       }},
  };
  const std::size_t fills[] = {1, 7, 8, 30, 100};
  Rng rng(20050614);
  std::size_t outliers = 0;
  for (std::size_t shape = 0; shape < shapes.size(); ++shape) {
    const auto& [name, source] = shapes[shape];
    BitmapDetector fast;
    ReferenceBitmap reference;
    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE(std::string(name) + ", step " + std::to_string(step));
      // Every 23rd step, starting cold, backfills a run instead of
      // updating; the fill lengths cycle from a per-shape phase so each
      // one meets empty, partial and full histories.
      if (step % 23 == 0) {
        std::size_t count =
            fills[(static_cast<std::size_t>(step / 23) + shape) %
                  std::size(fills)];
        double value = source(rng, step);
        fast.backfill(value, count);
        reference.backfill(value, count);
      } else {
        double value = source(rng, step);
        Judgement got = fast.update(value);
        Judgement want = reference.update(value);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.score),
                  std::bit_cast<std::uint64_t>(want.score));
        ASSERT_EQ(got.outlier, want.outlier);
        if (want.outlier) ++outliers;
      }
      ASSERT_EQ(saved(fast), reference.save_state());
    }
  }
  // The series must also drive the flag-and-drop path.
  EXPECT_GT(outliers, 0u);
}

// The modified z-score update as first written: it copies the history, the
// median copies it again, and the absolute deviations are a third vector
// whose median takes a fourth. Kept as the oracle for the scratch-buffer
// update, which must match it bit for bit.
class ReferenceZScore {
 public:
  explicit ReferenceZScore(const ZScoreParams& params) : params_(params) {}

  Judgement update(double value) {
    Judgement judgement;
    if (history_.size() >= params_.min_history) {
      std::vector<double> h(history_.begin(), history_.end());
      double med = median_of(h);
      std::vector<double> abs_dev;
      abs_dev.reserve(h.size());
      for (double v : h) abs_dev.push_back(std::abs(v - med));
      double mad = median_of(abs_dev);
      double m = 0.0;
      if (mad > 1e-12) {
        m = 0.6745 * (value - med) / mad;
      } else {
        double mean_ad = 0.0;
        for (double d : abs_dev) mean_ad += d;
        mean_ad /= static_cast<double>(abs_dev.size());
        if (mean_ad > 1e-12) {
          m = (value - med) / (1.253314 * mean_ad);
        } else {
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
      if (history_.size() > params_.max_history) history_.pop_front();
    }
    return judgement;
  }

  std::size_t size() const { return history_.size(); }

 private:
  static double median_of(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    double upper = values[mid];
    if (values.size() % 2 == 1) return upper;
    std::nth_element(values.begin(), values.begin() + mid - 1,
                     values.begin() + mid);
    return (values[mid - 1] + upper) / 2.0;
  }

  ZScoreParams params_;
  std::deque<double> history_;
};

TEST(ModifiedZScore, ScratchUpdateMatchesReferenceBitForBit) {
  using Source = std::function<double(Rng&, int)>;
  const std::vector<std::pair<const char*, Source>> shapes = {
      {"noise", [](Rng& rng, int) { return rng.uniform(); }},
      {"constant", [](Rng&, int) { return 0.75; }},
      // Over half the values equal: the MAD is zero while the values
      // spread, so the mean-absolute-deviation fallback scores.
      {"zero MAD, nonzero spread", [](Rng& rng, int) {
         return rng.bernoulli(0.3) ? rng.uniform() : 0.5;
       }},
      {"step up, then down", [](Rng& rng, int i) {
         return (i >= 60 && i < 180 ? 0.9 : 0.2) + 0.01 * rng.uniform();
       }},
      {"sparse spikes", [](Rng& rng, int) {
         return rng.bernoulli(0.05) ? 5.0 + rng.uniform() : 0.1;
       }},
  };
  // Caps of both parities, so full histories have odd and even sizes as
  // well as the growing ones.
  const std::size_t caps[] = {96, 33};
  Rng rng(19930601);
  std::size_t outliers = 0;
  std::size_t fallbacks = 0;
  std::size_t odd = 0;
  std::size_t even = 0;
  for (bool drop : {true, false}) {
    for (std::size_t cap : caps) {
      for (const auto& [name, source] : shapes) {
        ZScoreParams params;
        params.max_history = cap;
        params.drop_outliers_from_history = drop;
        ModifiedZScoreDetector fast(params);
        ReferenceZScore reference(params);
        for (int step = 0; step < 300; ++step) {
          SCOPED_TRACE(std::string(name) + ", cap " + std::to_string(cap) +
                       (drop ? ", dropping" : ", keeping") + ", step " +
                       std::to_string(step));
          if (reference.size() >= params.min_history) {
            (reference.size() % 2 == 1 ? odd : even) += 1;
          }
          double value = source(rng, step);
          Judgement got = fast.update(value);
          Judgement want = reference.update(value);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got.score),
                    std::bit_cast<std::uint64_t>(want.score));
          ASSERT_EQ(got.outlier, want.outlier);
          if (want.outlier) ++outliers;
          if (std::string(name) == "zero MAD, nonzero spread" &&
              want.score != 0.0) {
            ++fallbacks;
          }
        }
      }
    }
  }
  EXPECT_GT(outliers, 0u);
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(odd, 0u);
  EXPECT_GT(even, 0u);
}

// A snapshot whose history count exceeds the detector's cap is rejected
// before any value is read; a count at the cap loads and saves back the
// same bytes.
TEST(DetectorSnapshot, RejectsHistoriesPastTheirCap) {
  // Loads the bytes into a fresh detector and returns its saved state.
  using Load = std::function<std::string(store::Decoder&)>;
  auto loader = [](auto make) -> Load {
    return [make](store::Decoder& dec) {
      auto detector = make();
      detector.load_state(dec);
      return saved(detector);
    };
  };
  struct Row {
    const char* name;
    Load load;
    std::vector<std::uint64_t> counts;  // one per history ring, in order
    bool accepted;
  };
  ZScoreParams short_history;
  short_history.max_history = 30;
  Load bitmap = loader([] { return BitmapDetector(); });
  Load zscore = loader([] { return ModifiedZScoreDetector(); });
  Load zscore30 =
      loader([short_history] { return ModifiedZScoreDetector(short_history); });
  const std::vector<Row> rows = {
      {"bitmap at caps", bitmap, {40, 128}, true},
      {"bitmap values past 40", bitmap, {41, 0}, false},
      {"bitmap scores past 128", bitmap, {40, 129}, false},
      {"bitmap values huge", bitmap, {~std::uint64_t{0}, 0}, false},
      {"zscore at 96", zscore, {96}, true},
      {"zscore past 96", zscore, {97}, false},
      {"zscore max_history 30, at 30", zscore30, {30}, true},
      {"zscore max_history 30, past 30", zscore30, {31}, false},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    store::Encoder enc;
    for (std::uint64_t count : row.counts) {
      enc.u64(count);
      // Every writable count is followed by its values, so a rejection
      // cannot come from the payload running out; for the huge count the
      // message check below tells the cap error from a short payload.
      if (count <= 256) {
        for (std::uint64_t i = 0; i < count; ++i) enc.f64(0.5);
      }
    }
    std::string bytes = enc.take();
    store::Decoder dec(bytes);
    if (row.accepted) {
      EXPECT_EQ(row.load(dec), bytes);
      EXPECT_TRUE(dec.done());
      continue;
    }
    try {
      row.load(dec);
      ADD_FAILURE() << "oversize history loaded";
    } catch (const store::StoreError& error) {
      EXPECT_EQ(error.kind(), store::StoreError::Kind::kCorrupt);
      EXPECT_NE(std::string(error.what()).find("cap"), std::string::npos)
          << error.what();
    }
  }
}

// Pushing onto a full ring drops its front value: the contents and the
// saved bytes follow a deque trimmed to the cap, and the buffer never
// grows past the cap.
TEST(Ring, FullRingDropsItsFrontAndStaysAtItsCap) {
  for (std::size_t cap : {1u, 5u, 8u, 40u, 96u, 128u}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    Ring ring(cap);
    std::deque<double> model;
    for (std::size_t i = 0; i < 10 * cap; ++i) {
      ring.push_back(static_cast<double>(i));
      model.push_back(static_cast<double>(i));
      if (model.size() > cap) model.pop_front();
      ASSERT_LE(ring.capacity(), cap);
      // An outlier leaves from the back, as in the Bitmap detector.
      if (i % 7 == 6) {
        ring.pop_back();
        model.pop_back();
      }
      ASSERT_EQ(std::vector<double>(ring.begin(), ring.end()),
                std::vector<double>(model.begin(), model.end()));
    }
    EXPECT_EQ(ring.capacity(), cap);
    store::Encoder got;
    got(ring);
    store::Encoder want;
    want.u64(model.size());
    for (double v : model) want.f64(v);
    EXPECT_EQ(got.take(), want.take());
  }
}

// A bool byte is 0 or 1, as the Encoder writes it; any other byte used to
// load as true and re-save as 1.
TEST(LazySeries, LoadRejectsABooleanByteOfTwo) {
  LazySeries series(GapPolicy::kCarryLast);
  series.feed(0, 1.0);
  store::Encoder enc;
  series.save_state(enc);
  std::string bytes = enc.take();
  // The series ends with its has-last flag.
  ASSERT_EQ(bytes.back(), '\x01');
  bytes.back() = '\x02';
  LazySeries loaded(GapPolicy::kCarryLast);
  store::Decoder dec(bytes);
  try {
    loaded.load_state(dec);
    ADD_FAILURE() << "a boolean byte of 2 loaded";
  } catch (const store::StoreError& error) {
    EXPECT_EQ(error.kind(), store::StoreError::Kind::kCorrupt);
  }
}

TEST(LazySeries, CarryForwardFillsGaps) {
  LazySeries series(GapPolicy::kCarryLast);
  series.feed(0, 1.0);
  // A judgement 50 windows later sees a full window of carried 1.0s.
  Judgement j = series.feed(50, 0.0);
  EXPECT_TRUE(j.outlier);
}

TEST(LazySeries, ZeroPolicyFillsZeroes) {
  LazySeries series(GapPolicy::kZero);
  series.feed(0, 0.0);
  Judgement j = series.feed(40, 7.0);
  EXPECT_TRUE(j.outlier);
}

TEST(LazySeries, SeedArmsTheDetector) {
  LazySeries series(GapPolicy::kCarryLast);
  series.seed(100, 1.0, 24);
  Judgement j = series.feed(101, 0.0);
  EXPECT_TRUE(j.outlier);
}

TEST(LazySeries, IgnoresOutOfOrderWindows) {
  LazySeries series(GapPolicy::kCarryLast);
  series.feed(10, 1.0);
  Judgement j = series.feed(10, 0.0);  // duplicate window
  EXPECT_FALSE(j.outlier);
  EXPECT_EQ(series.last_value(), 1.0);
}

class AdaptiveRatioTest : public ::testing::Test {
 protected:
  AdaptiveRatioSeries make(std::int64_t max_mult = 96) {
    return AdaptiveRatioSeries(ZScoreParams{}, max_mult);
  }
};

TEST_F(AdaptiveRatioTest, ArmsAfterTwentyConsecutiveWindows) {
  AdaptiveRatioSeries series = make();
  std::size_t emitted = 0;
  for (std::int64_t w = 0; w < 30; ++w) {
    series.add(w, 8, 10);
    emitted += series.close_through(w + 1).size();
  }
  EXPECT_TRUE(series.armed());
  EXPECT_EQ(series.multiplier(), 1);
  // Windows 0..19 arm the series; 20..29 emit judgements as they close.
  EXPECT_GE(emitted, 9u);
}

TEST_F(AdaptiveRatioTest, EscalatesWindowOnMissingData) {
  AdaptiveRatioSeries series = make();
  // Data only every other base window: multiplier must grow to >= 2.
  for (std::int64_t w = 0; w < 120; w += 2) {
    series.add(w, 1, 1);
    series.close_through(w + 1);
  }
  EXPECT_GE(series.multiplier(), 2);
}

TEST_F(AdaptiveRatioTest, DetectsRatioDropOnceArmed) {
  AdaptiveRatioSeries series = make();
  bool outlier_seen = false;
  for (std::int64_t w = 0; w < 40; ++w) {
    series.add(w, 9, 10);
    series.close_through(w + 1);
  }
  ASSERT_TRUE(series.armed());
  for (std::int64_t w = 40; w < 44; ++w) {
    series.add(w, 0, 10);
    for (const ClosedRatioWindow& closed : series.close_through(w + 1)) {
      if (closed.judgement.outlier && closed.judgement.score < 0) {
        outlier_seen = true;
      }
    }
  }
  EXPECT_TRUE(outlier_seen);
}

TEST_F(AdaptiveRatioTest, MissingWindowsAfterArmingAreSkipped) {
  AdaptiveRatioSeries series = make();
  for (std::int64_t w = 0; w < 25; ++w) {
    series.add(w, 1, 1);
    series.close_through(w + 1);
  }
  ASSERT_TRUE(series.armed());
  // A long silent stretch must not unarm or emit.
  auto closed = series.close_through(60);
  EXPECT_TRUE(closed.empty());
  EXPECT_TRUE(series.armed());
  series.add(60, 1, 1);
  auto after = series.close_through(62);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_FALSE(after[0].judgement.outlier);
}

TEST_F(AdaptiveRatioTest, DormantAtMaxMultiplierWithoutData) {
  AdaptiveRatioSeries series = make(4);
  series.add(0, 1, 1);
  // Escalation proceeds one step per close call; a data-free series caps
  // its multiplier and eventually goes dormant.
  for (std::int64_t t = 1; t < 500; ++t) series.close_through(t);
  EXPECT_TRUE(series.dormant());
  EXPECT_EQ(series.multiplier(), 4);
}

TEST_F(AdaptiveRatioTest, ReportsIntersectCounts) {
  AdaptiveRatioSeries series = make();
  for (std::int64_t w = 0; w < 25; ++w) {
    series.add(w, 3, 7);
    auto closed = series.close_through(w + 1);
    for (const auto& c : closed) {
      EXPECT_EQ(c.intersect, 7);
      EXPECT_NEAR(c.ratio, 3.0 / 7.0, 1e-12);
      EXPECT_EQ(c.multiplier, 1);
    }
  }
}

}  // namespace
}  // namespace rrr::detect
