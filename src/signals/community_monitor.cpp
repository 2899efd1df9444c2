#include "signals/community_monitor.h"

#include <algorithm>

#include "runtime/parallel.h"
#include "signals/feed_health.h"

namespace rrr::signals {
namespace {

// Appendix B pruning thresholds. Globally, a community goes after
// kPruneFpThreshold false positives at a precision below
// kPrunePrecisionFloor; for one pair, after kPairPruneFpThreshold false
// positives (kDefinerPruneFpThreshold across its definer's communities)
// and no true positive.
constexpr int kPruneFpThreshold = 3;
constexpr double kPrunePrecisionFloor = 0.34;
constexpr int kPairPruneFpThreshold = 4;
constexpr int kDefinerPruneFpThreshold = 6;

// Whether `path` overlaps τ's suffix at `as` (i.e. the suffixes from a_j
// match).
bool overlaps_suffix(const AsPath& path, Asn as, const AsPath& tau) {
  int pos = index_of(path, as);
  if (pos < 0) return false;
  return suffix_matches(path, static_cast<std::size_t>(pos), tau);
}

// Adds the communities defined by `as` on `route` when it overlaps τ's
// suffix there.
void add_baseline(CommunitySet& baseline, const bgp::VpRoute* route, Asn as,
                  const AsPath& tau) {
  if (route == nullptr || !overlaps_suffix(route->path, as, tau)) return;
  for (Community c : route->communities) {
    if (c.definer() == as) baseline.insert(c);
  }
}

}  // namespace

std::vector<CommunitySet> hop_baselines(const AsPath& tau, bgp::RouteRow row) {
  std::vector<CommunitySet> baselines(tau.size());
  for (std::size_t j = 0; j < tau.size(); ++j) {
    for (const bgp::RowCell& cell : row) {
      add_baseline(baselines[j], cell.route, tau[j], tau);
    }
  }
  return baselines;
}

void CommunityReputation::record_outcome(Community community,
                                         const tr::PairKey& pair,
                                         bool true_positive) {
  Stats& stats = stats_[community];
  Stats& pair_stats = pair_stats_[{community, pair}];
  Stats& definer_stats = definer_stats_[{community.definer(), pair}];
  if (true_positive) {
    ++stats.tp;
    ++pair_stats.tp;
    ++definer_stats.tp;
  } else {
    ++stats.fp;
    ++pair_stats.fp;
    ++definer_stats.fp;
  }
}

bool CommunityReputation::pruned_for(Community community,
                                     const tr::PairKey& pair) const {
  if (pruned(community)) return true;
  auto it = pair_stats_.find({community, pair});
  if (it != pair_stats_.end()) {
    const Stats& s = it->second;
    if (s.fp >= kPairPruneFpThreshold && s.tp == 0) return true;
  }
  auto dit = definer_stats_.find({community.definer(), pair});
  if (dit != definer_stats_.end()) {
    const Stats& s = dit->second;
    if (s.fp >= kDefinerPruneFpThreshold && s.tp == 0) return true;
  }
  return false;
}

bool CommunityReputation::pruned(Community community) const {
  auto it = stats_.find(community);
  if (it == stats_.end()) return false;
  const Stats& s = it->second;
  if (s.fp < kPruneFpThreshold) return false;
  double precision =
      static_cast<double>(s.tp) / static_cast<double>(s.tp + s.fp);
  return precision < kPrunePrecisionFloor;
}

std::size_t CommunityReputation::active_false_positive_communities() const {
  std::size_t count = 0;
  for (const auto& [community, s] : stats_) {
    if (s.fp > 0 && !pruned(community)) ++count;
  }
  return count;
}

std::size_t CommunityReputation::pruned_count() const {
  std::size_t count = 0;
  for (const auto& [community, s] : stats_) {
    if (pruned(community)) ++count;
  }
  return count;
}

CommunitySet CommunityMonitor::baseline_communities(
    const Entry& entry) const {
  CommunitySet baseline;
  for (const bgp::VantagePoint& vp : *context_.vps) {
    add_baseline(baseline, context_.table->route(vp.id, entry.pair.dst),
                 entry.as, entry.tau_path);
  }
  return baseline;
}

void CommunityMonitor::watch(const CorpusView& view, PotentialIndex& index,
                             bgp::RouteRow row) {
  const tracemap::ProcessedTrace& pt = view.processed;
  if (pt.as_path.empty()) return;
  std::vector<CommunitySet> baselines = hop_baselines(pt.as_path, row);
  for (std::size_t j = 0; j < pt.as_path.size(); ++j) {
    Entry entry;
    entry.pair = view.key;
    entry.as = pt.as_path[j];
    entry.tau_path = pt.as_path;
    entry.tau_index = j;
    entry.border_index = ingress_border(pt, entry.as);
    entry.baseline = std::move(baselines[j]);
    entries_.add(std::move(entry), Technique::kBgpCommunity, index);
  }
}

void CommunityMonitor::unwatch(const tr::PairKey& pair) {
  entries_.unwatch(pair);
}

bool CommunityMonitor::community_known_elsewhere(const Entry& entry,
                                                 Community community,
                                                 bgp::VpId except_vp) const {
  for (const bgp::VantagePoint& vp : *context_.vps) {
    if (vp.id == except_vp) continue;
    const bgp::VpRoute* route = context_.table->route(vp.id, entry.pair.dst);
    if (route == nullptr ||
        !overlaps_suffix(route->path, entry.as, entry.tau_path)) {
      continue;
    }
    if (route->communities.contains(community)) return true;
  }
  return false;
}

void CommunityMonitor::on_record(const DispatchedRecord& record,
                                 std::int64_t window) {
  (void)window;
  const bgp::BgpRecord& rec = *record.record;
  if (rec.type == bgp::RecordType::kWithdrawal) return;

  ++stats_.records;
  entries_.for_covered(rec.prefix, [&](Ipv4 dst,
                                       const std::vector<Entry*>& list) {
    // Standing (start-of-window) route of this VP.
    const bgp::VpRoute* prev = context_.table->route(rec.vp, dst);
    if (prev == nullptr || prev->path.empty()) return;

    bool emptiness_flip =
        prev->communities.empty() != rec.communities.empty();
    bool path_changed = record.path != prev->path;
    for (Entry* entry : list) {
      if (entry->touched) continue;  // one signal per window suffices
      // The VP must overlap τ's suffix at a_j — on its established route
      // AND on the announced one. A route that moved away from a_j drops
      // a_j's communities trivially; that is an AS-path event about the
      // VP, not evidence that τ's border at a_j moved.
      if (!overlaps_suffix(prev->path, entry->as, entry->tau_path)) {
        ++stats_.no_prev_overlap;
        continue;
      }
      if (!overlaps_suffix(record.path, entry->as, entry->tau_path)) {
        ++stats_.no_new_overlap;
        continue;
      }
      CommunityDiff diff =
          diff_communities(prev->communities, rec.communities, entry->as);
      if (diff.empty()) continue;
      ++stats_.diffs;
      // Suppression 1 (§4.1.3): communities are optional and transitive —
      // any AS on the way may strip them, so a path change (even upstream
      // of a_j) can make a_j's communities appear or vanish without any
      // change at a_j. With a changed path, only a *value change* (one of
      // a_j's communities replaced by another) is trustworthy evidence.
      if (path_changed && (diff.added.empty() || diff.removed.empty())) {
        ++stats_.path_rule;
        continue;
      }
      if (emptiness_flip && path_changed) continue;
      // Feed-health gating: a community flip witnessed only by a
      // quarantined stream (e.g. a session replaying stale attributes) is
      // not evidence that the border moved.
      if (health_ != nullptr && health_->bgp_quarantined(rec.vp)) {
        obs::inc(dropped_unhealthy_);
        continue;
      }
      for (Community c : diff.added) {
        if (reputation_.pruned_for(c, entry->pair)) {
          ++stats_.pruned;
          continue;
        }
        // Suppression 2: a community already visible on another
        // overlapping path is not a new signal of change.
        if (community_known_elsewhere(*entry, c, rec.vp)) {
          ++stats_.known_elsewhere;
          continue;
        }
        ++stats_.fired;
        entry->pending_community = c;
        ++entry->pending_vp_count;
        entries_.touch(*entry);
        break;
      }
      if (entry->touched) continue;
      for (Community c : diff.removed) {
        if (reputation_.pruned_for(c, entry->pair)) {
          ++stats_.pruned;
          continue;
        }
        ++stats_.fired;
        entry->pending_community = c;
        ++entry->pending_vp_count;
        entries_.touch(*entry);
        break;
      }
    }
  });
}

std::vector<StalenessSignal> CommunityMonitor::close_window(
    std::int64_t window, TimePoint window_end) {
  obs::ScopedSpan span(mobs_.close_us);
  std::vector<Entry*> work = entries_.take_touched();
  obs::observe(mobs_.close_items, static_cast<double>(work.size()));
  // Entries are disjoint, so stamping their signals fans out; parallel_map
  // returns results in work-list order — the serial emission order.
  return runtime::parallel_map(pool_, work, [&](Entry* entry) {
    StalenessSignal signal;
    signal.technique = Technique::kBgpCommunity;
    signal.potential = entry->id;
    signal.time = window_end;
    signal.window = window;
    signal.pair = entry->pair;
    signal.border_index = entry->border_index;
    signal.community = entry->pending_community;
    signal.meta.as_overlap =
        static_cast<int>(entry->tau_path.size() - entry->tau_index);
    signal.meta.as_level = false;
    signal.meta.vp_count = entry->pending_vp_count;
    entry->pending_vp_count = 0;
    return signal;
  });
}

bool CommunityMonitor::reverted(PotentialId id) const {
  const Entry* entry = entries_.find(id);
  return entry != nullptr && baseline_communities(*entry) == entry->baseline;
}

}  // namespace rrr::signals
