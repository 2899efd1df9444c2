#include "baselines/strategies.h"

#include <algorithm>

namespace rrr::baselines {

CorpusTracker::CorpusTracker(const PathOracle& oracle, TimePoint t0)
    : oracle_(oracle) {
  stored_.reserve(oracle.path_count());
  for (std::size_t i = 0; i < oracle.path_count(); ++i) {
    stored_.push_back(oracle.border_tokens(i, t0));
  }
}

bool CorpusTracker::remeasure(std::size_t path, TimePoint t) {
  std::vector<std::uint64_t> fresh = oracle_.border_tokens(path, t);
  bool changed = fresh != stored_[path];
  stored_[path] = std::move(fresh);
  if (changed) notify(path, t);
  return changed;
}

namespace {

// Converts elapsed wall time into a measurement allowance.
double accrue(double& credit, TimePoint& last, bool& started, TimePoint now,
              double pps) {
  if (!started) {
    started = true;
    last = now;
    return credit;
  }
  credit += pps * static_cast<double>(now - last);
  last = now;
  return credit;
}

// DTRACK's Laplace prior on a path's change rate: one change per week.
constexpr double kPriorChanges = 1.0;
constexpr double kPriorDays = 7.0;

}  // namespace

void RoundRobinStrategy::advance(TimePoint now, EmulationStats& stats) {
  accrue(credit_, last_, started_, now, budget_.packets_per_second);
  std::size_t n = tracker_.oracle().path_count();
  if (n == 0) return;
  while (credit_ >= budget_.traceroute_cost) {
    credit_ -= budget_.traceroute_cost;
    stats.packets_spent += budget_.traceroute_cost;
    ++stats.traceroutes;
    if (tracker_.remeasure(cursor_, now)) ++stats.changes_detected;
    cursor_ = (cursor_ + 1) % n;
  }
}

void SibylStrategy::patch_others(std::size_t measured,
                                 const std::vector<std::uint64_t>& old_tokens,
                                 TimePoint now, EmulationStats& stats) {
  (void)measured;
  std::size_t n = tracker_.oracle().path_count();
  for (std::size_t j = 0; j < n; ++j) {
    if (j == measured) continue;
    const auto& stored = tracker_.stored(j);
    // Sibyl patches traceroutes that traverse the subpath that *was*
    // observed to change: match against the measured path's old tokens.
    bool shares = false;
    for (std::uint64_t token : stored) {
      if (std::find(old_tokens.begin(), old_tokens.end(), token) !=
          old_tokens.end()) {
        shares = true;
        break;
      }
    }
    if (!shares) continue;
    // Optimistic patching: apply only when it matches ground truth.
    std::vector<std::uint64_t> truth =
        tracker_.oracle().border_tokens(j, now);
    if (truth != stored) {
      tracker_.overwrite(j, std::move(truth), now);
      ++stats.changes_detected;  // change captured without a measurement
    }
  }
}

void SibylStrategy::advance(TimePoint now, EmulationStats& stats) {
  accrue(credit_, last_, started_, now, budget_.packets_per_second);
  std::size_t n = tracker_.oracle().path_count();
  if (n == 0) return;
  while (credit_ >= budget_.traceroute_cost) {
    credit_ -= budget_.traceroute_cost;
    stats.packets_spent += budget_.traceroute_cost;
    ++stats.traceroutes;
    std::size_t path = cursor_;
    cursor_ = (cursor_ + 1) % n;
    std::vector<std::uint64_t> old_tokens = tracker_.stored(path);
    if (tracker_.remeasure(path, now)) {
      ++stats.changes_detected;
      patch_others(path, old_tokens, now, stats);
    }
  }
}

DtrackStrategy::DtrackStrategy(CorpusTracker& tracker,
                               const ProbeBudget& budget, std::uint64_t seed)
    : tracker_(tracker),
      budget_(budget),
      rng_(Rng(seed).fork(0xD7AC)),
      observed_changes_(tracker.oracle().path_count(), 0),
      monitored_since_(tracker.oracle().path_count()) {}

double DtrackStrategy::change_rate(std::size_t path) const {
  double days =
      started_
          ? static_cast<double>(last_ - monitored_since_[path]) /
                double(kSecondsPerDay)
          : 0.0;
  return (kPriorChanges + observed_changes_[path]) /
         (kPriorDays + std::max(days, 0.0));
}

void DtrackStrategy::remap(std::size_t path, TimePoint now,
                           EmulationStats& stats) {
  stats.packets_spent += budget_.traceroute_cost;
  ++stats.traceroutes;
  if (tracker_.remeasure(path, now)) {
    ++stats.changes_detected;
    ++observed_changes_[path];
  }
}

void DtrackStrategy::advance(TimePoint now, EmulationStats& stats) {
  bool first = !started_;
  accrue(credit_, last_, started_, now, budget_.packets_per_second);
  std::size_t n = tracker_.oracle().path_count();
  if (n == 0) return;
  if (first) {
    for (std::size_t i = 0; i < n; ++i) monitored_since_[i] = now;
  }
  // Allocate detection probes proportionally to estimated change rates;
  // one distribution per advance keeps sampling cheap.
  std::vector<double> weights(n);
  for (std::size_t i = 0; i < n; ++i) weights[i] = change_rate(i);
  std::discrete_distribution<std::size_t> pick(weights.begin(),
                                               weights.end());
  while (credit_ >= budget_.detection_cost) {
    credit_ -= budget_.detection_cost;
    stats.packets_spent += budget_.detection_cost;
    ++stats.detection_probes;
    std::size_t path = pick(rng_.engine());
    const auto& stored = tracker_.stored(path);
    if (stored.empty()) continue;
    std::size_t hop = rng_.index(stored.size());
    std::uint64_t seen = tracker_.oracle().hop_token(path, hop, now);
    if (seen != stored[hop]) {
      // Divergence detected: spend a full traceroute to remap.
      if (credit_ >= budget_.traceroute_cost) {
        credit_ -= budget_.traceroute_cost;
        remap(path, now, stats);
        weights[path] = change_rate(path);
        pick = std::discrete_distribution<std::size_t>(weights.begin(),
                                                       weights.end());
      } else {
        // Not enough budget now; the next advance will likely re-detect.
        credit_ = 0;
        break;
      }
    }
  }
}

}  // namespace rrr::baselines
