#include "signals/trace_series_monitor.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include "runtime/parallel.h"
#include "signals/feed_health.h"

namespace rrr::signals {
namespace {

// The daily sweep closes idle series every this many base windows (one day).
constexpr std::int64_t kSweepWindows = kSecondsPerDay / kBaseWindowSeconds;

void append(std::vector<StalenessSignal>& out,
            std::vector<std::vector<StalenessSignal>>&& buffers) {
  for (std::vector<StalenessSignal>& buffer : buffers) {
    for (StalenessSignal& signal : buffer) out.push_back(std::move(signal));
  }
}

}  // namespace

TraceSeriesMonitor::TraceSeriesMonitor(Technique technique,
                                       bool drop_outliers_from_history)
    : technique_(technique),
      zscore_{.threshold = 3.5,
              .min_history = 20,
              .max_history = 96,
              .drop_outliers_from_history = drop_outliers_from_history,
              .min_abs_deviation = kMinAbsDeviation} {}

void TraceSeriesMonitor::open(Series& series, PotentialIndex& index) {
  series.id = index.create(technique_);
  series_.push_back(&series);
}

void TraceSeriesMonitor::subscribe(Series& series, const tr::PairKey& pair,
                                   std::size_t border,
                                   PotentialIndex& index) {
  bool found = false;
  for (Subscriber& sub : series.subscribers) {
    if (sub.pair == pair && sub.border == border) {
      sub.zombie = false;
      found = true;
      break;
    }
  }
  if (!found) series.subscribers.push_back(Subscriber{pair, border, false});
  index.relate(series.id, pair, border);
  by_pair_[pair].push_back(&series);
}

void TraceSeriesMonitor::unwatch(const tr::PairKey& pair) {
  auto it = by_pair_.find(pair);
  if (it == by_pair_.end()) return;
  for (Series* series : it->second) {
    for (Subscriber& sub : series->subscribers) {
      if (sub.pair == pair) sub.zombie = true;
    }
  }
  by_pair_.erase(it);
}

const std::vector<TraceSeriesMonitor::Series*>& TraceSeriesMonitor::series_of(
    const tr::PairKey& pair) const {
  static const std::vector<Series*> kNone;
  auto it = by_pair_.find(pair);
  return it == by_pair_.end() ? kNone : it->second;
}

std::vector<StalenessSignal> TraceSeriesMonitor::close_series(
    Series& series, std::int64_t window, TimePoint window_end) {
  std::vector<StalenessSignal> signals;
  for (const detect::ClosedRatioWindow& closed :
       series.ratio.close_through(window + 1)) {
    if (series.baseline_ratio < 0.0 && series.ratio.armed()) {
      series.baseline_ratio = closed.ratio;
    }
    bool drop = closed.judgement.outlier && closed.judgement.score < 0 &&
                closed.intersect >= kMinIntersect;
    // A path change can only *reduce* how often the monitored element is
    // followed (upward outliers are sampling-mix noise), and a thin
    // window needs corroboration from the next one.
    bool confirmed = drop && (closed.intersect >= kSingleShotIntersect ||
                              series.pending_drop);
    series.pending_drop = drop;
    if (!confirmed) continue;
    // With a degraded public-trace feed, a falling match ratio measures
    // which probes went dark, not where packets flow.
    if (health_ != nullptr && health_->trace_degraded()) {
      obs::inc(dropped_unhealthy_,
               static_cast<std::int64_t>(series.subscribers.size()));
      continue;
    }
    // The outlier belongs to its aggregate window, which may end before
    // the base window being closed (sparse series aggregate slowly).
    std::int64_t agg_end =
        closed.aggregate_window * closed.multiplier + closed.multiplier - 1;
    TimePoint at = window_end - (window - agg_end) * kBaseWindowSeconds;
    for (const Subscriber& sub : series.subscribers) {
      StalenessSignal signal;
      signal.technique = technique_;
      signal.potential = series.id;
      signal.time = at;
      signal.window = agg_end;
      signal.span_seconds = closed.multiplier * kBaseWindowSeconds;
      signal.pair = sub.pair;
      signal.border_index = sub.border;
      signal.meta.ip_overlap = series.ip_overlap;
      signal.meta.deviation = std::abs(closed.judgement.score);
      signals.push_back(std::move(signal));
    }
  }
  return signals;
}

std::vector<StalenessSignal> TraceSeriesMonitor::close_window(
    std::int64_t window, TimePoint window_end) {
  std::vector<StalenessSignal> signals;
  // Series are disjoint state, so shards close them concurrently into
  // per-series buffers; concatenating the buffers in work-list order makes
  // the output independent of the thread count.
  obs::ScopedSpan span(mobs_.close_us);
  std::vector<Series*> work;
  work.swap(touched_);
  obs::observe(mobs_.close_items, static_cast<double>(work.size()));
  append(signals, runtime::parallel_map(pool_, work, [&](Series* series) {
           series->touched = false;
           return close_series(*series, window, window_end);
         }));
  // The daily sweep closes idle series' pending windows too; zombie
  // subscriptions have flushed whatever was pending by now.
  if (window % kSweepWindows == kSweepWindows - 1) {
    append(signals,
           runtime::parallel_map(pool_, series_, [&](Series* series) {
             return close_series(*series, window, window_end);
           }));
    for (Series* series : series_) {
      std::erase_if(series->subscribers,
                    [](const Subscriber& sub) { return sub.zombie; });
    }
  }
  return signals;
}

bool TraceSeriesMonitor::reverted(PotentialId id) const {
  const Series* series = find(id);
  if (series == nullptr || series->baseline_ratio < 0.0 ||
      !series->ratio.has_ratio()) {
    return false;
  }
  return std::abs(series->ratio.last_ratio() - series->baseline_ratio) < 0.1;
}

TraceSeriesMonitor::Series* TraceSeriesMonitor::find(PotentialId id) const {
  auto it = std::lower_bound(
      series_.begin(), series_.end(), id,
      [](const Series* series, PotentialId key) { return series->id < key; });
  return it != series_.end() && (*it)->id == id ? *it : nullptr;
}

void TraceSeriesMonitor::rebuild_indexes() {
  // A watched pair's live subscriptions are the ones its last watch made,
  // one per border, so ordering them by border rebuilds its list.
  struct Filed {
    tr::PairKey pair;
    std::size_t border;
    Series* series;
  };
  std::vector<Filed> filed;
  for (Series* series : series_) {
    for (const Subscriber& sub : series->subscribers) {
      if (!sub.zombie) filed.push_back({sub.pair, sub.border, series});
    }
  }
  std::stable_sort(filed.begin(), filed.end(),
                   [](const Filed& a, const Filed& b) {
                     return std::tie(a.pair, a.border) <
                            std::tie(b.pair, b.border);
                   });
  by_pair_.clear();
  for (const Filed& f : filed) by_pair_[f.pair].push_back(f.series);
  for (Series* series : touched_) {
    if (series->touched) {
      throw store::StoreError(store::StoreError::Kind::kCorrupt,
                              "trace touched list names a series twice");
    }
    series->touched = true;
  }
}

void TraceSeriesMonitor::sort_series() {
  // A monitor may store its series in key order; lookups need id order.
  std::sort(series_.begin(), series_.end(),
            [](const Series* a, const Series* b) { return a->id < b->id; });
  // open() gives every series its own id, so a shared one is damage.
  if (std::adjacent_find(series_.begin(), series_.end(),
                         [](const Series* a, const Series* b) {
                           return a->id == b->id;
                         }) != series_.end()) {
    throw store::StoreError(store::StoreError::Kind::kCorrupt,
                            "two trace series share a potential id");
  }
}

}  // namespace rrr::signals
