// The lifecycle shared by the two traceroute-series techniques, subpath
// (§4.2.1) and border (§4.2.2). Each keeps one series per monitored
// element: among recent public traceroutes that span the element, the
// share that also follow it (the match ratio), taken in adaptive
// 15 min – 24 h windows and judged by the modified z-score
// (detect::AdaptiveRatioSeries). What keys a series and how a public trace
// matches it is all that differs, and that stays in the two monitors.
// Everything after the match lives here: subscriptions and their zombie
// afterlife, drop confirmation, the feed-health gate, the daily sweep,
// revocation, and the series and index halves of the snapshot.
#pragma once

#include <map>
#include <vector>

#include "detect/series.h"
#include "signals/monitor.h"

namespace rrr::runtime {
class ThreadPool;
}

namespace rrr::signals {

class TraceSeriesMonitor : public Monitor {
 public:
  // Evaluates window closes across series on `pool` (null = serial).
  void set_pool(runtime::ThreadPool* pool) { pool_ = pool; }
  void unwatch(const tr::PairKey& pair);
  std::vector<StalenessSignal> close_window(std::int64_t window,
                                            TimePoint window_end);
  bool reverted(PotentialId id) const;

 protected:
  // Every series runs this one configuration, with windows escalating up
  // to AdaptiveRatioSeries' 24 h cap.

  // Aggregate windows with fewer public traceroutes than this are too thin
  // to report outliers from.
  static constexpr std::int64_t kMinIntersect = 2;
  // Windows at least this thick may signal on a single drop-outlier;
  // thinner ones need two consecutive drops (binomial noise guard).
  static constexpr std::int64_t kSingleShotIntersect = 5;
  // The z-score floor on |ratio - median| (detect::ZScoreParams).
  static constexpr double kMinAbsDeviation = 0.35;

  // One corpus-traceroute border a series watches. A subscription survives
  // its pair's refresh as a "zombie" until the daily sweep: a change
  // detected by a slow window is still a valid signal about the pair even
  // if the corpus was refreshed meanwhile.
  struct Subscriber {
    tr::PairKey pair;
    std::size_t border = 0;
    bool zombie = false;

    template <class Io, class Self>
    static void io(Io& io, Self& sub) {
      io(sub.pair, sub.border, sub.zombie);
    }
  };
  // One monitored element's series. A monitor embeds it in its keyed
  // record and keeps that record at a stable address.
  struct Series {
    explicit Series(const detect::ZScoreParams& zscore) : ratio(zscore) {}

    PotentialId id = kNoPotential;
    detect::AdaptiveRatioSeries ratio;
    std::vector<Subscriber> subscribers;
    double baseline_ratio = -1.0;  // first armed ratio (for revocation)
    bool touched = false;          // data since the last close
    bool pending_drop = false;     // previous closed window was a drop
    int ip_overlap = 0;            // stamped on signals (Table 1)

    // The series' snapshot fields; its id and key are the monitor's, and
    // `touched` follows from the monitor's touched list.
    template <class Io, class Self>
    static void io(Io& io, Self& series) {
      io(series.ratio, series.subscribers, series.baseline_ratio,
         series.pending_drop);
    }
  };

  // `drop_outliers_from_history` is the one trace-series setting (§4.1.2
  // stationarity maintenance; table2 --ablate-stationarity turns it off).
  TraceSeriesMonitor(Technique technique, bool drop_outliers_from_history);

  const detect::ZScoreParams& zscore() const { return zscore_; }
  // Gives `series` a fresh potential id and registers it.
  void open(Series& series, PotentialIndex& index);
  // Subscribes border `border` of `pair` to `series`; an existing
  // subscription (a zombie, when the pair was refreshed) comes back alive.
  void subscribe(Series& series, const tr::PairKey& pair, std::size_t border,
                 PotentialIndex& index);
  // Counts one public trace in `window` that spans the series' element.
  void observe(Series& series, std::int64_t window, bool match) {
    series.ratio.add(window, match ? 1 : 0, 1);
    if (!series.touched) {
      series.touched = true;
      touched_.push_back(&series);
    }
  }
  // The series `pair` subscribed to, in watch order (empty when none).
  const std::vector<Series*>& series_of(const tr::PairKey& pair) const;

  // Checkpoint halves. A monitor lists each series as its id, its key and
  // Series::io; on load it then clears and re-registers its series, in any
  // order, and index_io() follows with the touched list as ids. Two series
  // under one id, or a touched list naming one series twice, are kCorrupt.
  // The load rebuilds the pair lists from the live subscriptions and sets
  // the touched flags from the list.
  void register_series(Series& series) { series_.push_back(&series); }
  void clear_series() { series_.clear(); }
  template <class Io, class Self>
  static void index_io(Io& io, Self& self) {
    if constexpr (Io::kLoading) self.sort_series();
    potential_ids(io, self.touched_,
                  [&self](PotentialId id) { return self.find(id); });
    if constexpr (Io::kLoading) self.rebuild_indexes();
  }

 private:
  // Closes `series`' pending aggregate windows; returns the signals it
  // fired. Touches only `series`, so distinct series close concurrently.
  std::vector<StalenessSignal> close_series(Series& series,
                                            std::int64_t window,
                                            TimePoint window_end);
  Series* find(PotentialId id) const;
  // Puts the registered series in id order for find().
  void sort_series();
  // Files every live subscription's series under its pair, and sets the
  // touched flags from the touched list.
  void rebuild_indexes();

  Technique technique_;
  detect::ZScoreParams zscore_;
  runtime::ThreadPool* pool_ = nullptr;
  std::vector<Series*> series_;  // every series, in id (= creation) order
  // A watched pair's series in border order, the order watch() subscribes
  // in; a series twice when two of the pair's borders subscribe to it.
  std::map<tr::PairKey, std::vector<Series*>> by_pair_;
  std::vector<Series*> touched_;
};

}  // namespace rrr::signals
