#include "signals/calibration.h"

#include <algorithm>
#include <set>

namespace rrr::signals {

void Calibration::record(tr::ProbeId vp, PotentialId signal,
                         std::int64_t window, Outcome outcome) {
  Tally& tally = tallies_[{vp, signal}];
  if (tally.first_window < 0) tally.first_window = window;
  tally.last_window = std::max(tally.last_window, window);
  tally.events.emplace_back(window, outcome);
  // Slide: keep only the last kSlidingWindows generation windows.
  while (!tally.events.empty() &&
         tally.events.front().first <= tally.last_window - kSlidingWindows) {
    tally.events.pop_front();
  }
}

const Calibration::Tally* Calibration::find(tr::ProbeId vp,
                                            PotentialId signal) const {
  auto it = tallies_.find({vp, signal});
  return it == tallies_.end() ? nullptr : &it->second;
}

Calibration::Counts Calibration::counts_of(const Tally& tally) const {
  Counts c;
  for (const auto& [window, outcome] : tally.events) {
    switch (outcome) {
      case Outcome::kTruePositive: ++c.tp; break;
      case Outcome::kFalsePositive: ++c.fp; break;
      case Outcome::kTrueNegative: ++c.tn; break;
      case Outcome::kFalseNegative: ++c.fn; break;
    }
  }
  return c;
}

std::optional<double> Calibration::tpr(tr::ProbeId vp,
                                       PotentialId signal) const {
  const Tally* tally = find(vp, signal);
  if (tally == nullptr) return std::nullopt;
  // Uninitialized until the window has had a chance to fill (§4.3.1).
  if (tally->last_window - tally->first_window < kSlidingWindows &&
      tally->events.size() < 4) {
    return std::nullopt;
  }
  Counts c = counts_of(*tally);
  if (c.tp + c.fn == 0) return std::nullopt;
  return static_cast<double>(c.tp) / static_cast<double>(c.tp + c.fn);
}

std::optional<double> Calibration::tnr(tr::ProbeId vp,
                                       PotentialId signal) const {
  const Tally* tally = find(vp, signal);
  if (tally == nullptr) return std::nullopt;
  if (tally->last_window - tally->first_window < kSlidingWindows &&
      tally->events.size() < 4) {
    return std::nullopt;
  }
  Counts c = counts_of(*tally);
  if (c.tn + c.fp == 0) return std::nullopt;
  return static_cast<double>(c.tn) / static_cast<double>(c.tn + c.fp);
}

std::uint64_t Calibration::digest() const {
  std::uint64_t h = 0xCA11B8A7E;
  for (const auto& [key, tally] : tallies_) {
    h = hash_combine(h, key.first);
    h = hash_combine(h, key.second);
    for (const auto& [window, outcome] : tally.events) {
      h = hash_combine(h, static_cast<std::uint64_t>(window));
      h = hash_combine(h, static_cast<std::uint64_t>(outcome));
    }
  }
  return h;
}

bool bootstrap_priority_less(const ActiveSignal& a, const ActiveSignal& b) {
  // Returns true when `a` has higher priority. Attributes in Table 1 order;
  // within a tied attribute, the category-specific tie-break applies when
  // both signals share a category.
  auto tie_break = [&](int& decided) {
    bool a_bgp = is_bgp_technique(a.technique);
    bool b_bgp = is_bgp_technique(b.technique);
    if (a_bgp && b_bgp) {
      if (a.meta.vp_count != b.meta.vp_count) {
        decided = a.meta.vp_count > b.meta.vp_count ? 1 : -1;
      }
    } else if (!a_bgp && !b_bgp) {
      if (a.meta.deviation != b.meta.deviation) {
        decided = a.meta.deviation > b.meta.deviation ? 1 : -1;
      }
    }
  };
  auto attr = [&](int va, int vb) -> int {
    if (va != vb) return va > vb ? 1 : -1;
    int decided = 0;
    tie_break(decided);
    return decided;
  };
  if (int d = attr(a.meta.ip_overlap, b.meta.ip_overlap)) return d > 0;
  if (int d = attr(a.meta.as_overlap, b.meta.as_overlap)) return d > 0;
  if (int d = attr(a.meta.vps_same_as_city, b.meta.vps_same_as_city)) {
    return d > 0;
  }
  if (int d = attr(a.meta.vps_same_as, b.meta.vps_same_as)) return d > 0;
  if (int d = attr(a.meta.vps_same_city, b.meta.vps_same_city)) return d > 0;
  if (int d = attr(a.meta.as_level ? 1 : 0, b.meta.as_level ? 1 : 0)) {
    return d > 0;
  }
  return false;
}

std::vector<tr::PairKey> RefreshScheduler::plan(
    const std::map<tr::PairKey, PairState>& pairs,
    const Calibration& calibration, int budget, Rng& rng) {
  std::vector<tr::PairKey> chosen;
  if (budget <= 0) return chosen;
  std::set<tr::PairKey> taken;

  // Group firing pairs by vantage point (source probe).
  std::map<tr::ProbeId, std::vector<const tr::PairKey*>> by_vp;
  for (const auto& [key, state] : pairs) {
    if (!state.firing.empty()) by_vp[key.probe].push_back(&key);
  }

  // Steps 1-4: VP-by-VP probabilistic refresh, highest summed TPR first.
  std::set<tr::ProbeId> exhausted;
  while (budget > 0 && exhausted.size() < by_vp.size()) {
    tr::ProbeId best_vp = tr::kNoProbe;
    double best_sum = -1.0;
    for (const auto& [vp, vp_pairs] : by_vp) {
      if (exhausted.contains(vp)) continue;
      double sum = 0.0;
      bool any = false;
      for (const tr::PairKey* key : vp_pairs) {
        for (const ActiveSignal& s : pairs.at(*key).firing) {
          if (auto t = calibration.tpr(vp, s.potential)) {
            sum += *t;
            any = true;
          }
        }
      }
      if (any && sum > best_sum) {
        best_sum = sum;
        best_vp = vp;
      }
    }
    if (best_vp == tr::kNoProbe) break;  // no calibrated VP left
    exhausted.insert(best_vp);

    // Step 2: the per-VP refresh probability from TPRs of firing signals
    // and TNRs of silent related potentials.
    double tpr_sum = 0.0;
    double tnr_sum = 0.0;
    for (const tr::PairKey* key : by_vp[best_vp]) {
      const PairState& state = pairs.at(*key);
      for (const ActiveSignal& s : state.firing) {
        if (auto t = calibration.tpr(best_vp, s.potential)) tpr_sum += *t;
      }
      for (PotentialId silent : state.silent) {
        if (auto t = calibration.tnr(best_vp, silent)) tnr_sum += *t;
      }
    }
    if (tpr_sum + tnr_sum <= 0.0) continue;
    double p_refresh = tpr_sum / (tpr_sum + tnr_sum);

    // Step 3: refresh each firing pair of this VP with probability p.
    for (const tr::PairKey* key : by_vp[best_vp]) {
      if (budget <= 0) break;
      if (taken.contains(*key)) continue;
      if (rng.bernoulli(p_refresh)) {
        chosen.push_back(*key);
        taken.insert(*key);
        --budget;
      }
    }
  }

  // Step 5: bootstrap — spend leftover budget on the best-attributed
  // signals (Table 1 ordering) among untaken pairs.
  if (budget > 0) {
    std::vector<const ActiveSignal*> all;
    for (const auto& [key, state] : pairs) {
      if (taken.contains(key)) continue;
      for (const ActiveSignal& s : state.firing) all.push_back(&s);
    }
    std::sort(all.begin(), all.end(),
              [](const ActiveSignal* a, const ActiveSignal* b) {
                return bootstrap_priority_less(*a, *b);
              });
    for (const ActiveSignal* s : all) {
      if (budget <= 0) break;
      if (taken.contains(s->pair)) continue;
      chosen.push_back(s->pair);
      taken.insert(s->pair);
      --budget;
    }
  }
  return chosen;
}

}  // namespace rrr::signals
