#include "signals/aspath_monitor.h"

#include <algorithm>
#include <tuple>

#include "runtime/parallel.h"
#include "signals/feed_health.h"

namespace rrr::signals {
namespace {

// First AS of `path` (VP end first) that appears in `tau`: the intersection
// point farthest from the destination. Returns its index in `tau`, or -1.
int first_intersection(const AsPath& path, const AsPath& tau) {
  for (Asn asn : path) {
    int idx = index_of(tau, asn);
    if (idx >= 0) return idx;
  }
  return -1;
}

// Whether `path`, which first intersects `tau` at hop j, matches τ's suffix
// from there.
bool matches_from(const AsPath& path, std::size_t j, const AsPath& tau) {
  return suffix_matches(
      path, static_cast<std::size_t>(index_of(path, tau[j])), tau);
}

}  // namespace

std::vector<PinnedHop> pin_hops(const AsPath& tau, bgp::RouteRow row) {
  std::vector<PinnedHop> hops(tau.size());
  std::vector<int> matching(tau.size(), 0);
  for (const bgp::RowCell& cell : row) {
    if (cell.route == nullptr || cell.route->path.empty()) continue;
    const AsPath& path = cell.route->path;
    int j = first_intersection(path, tau);
    if (j < 0) continue;
    auto hop = static_cast<std::size_t>(j);
    hops[hop].v0.push_back(cell.vp);
    if (matches_from(path, hop, tau)) ++matching[hop];
  }
  for (std::size_t j = 0; j < hops.size(); ++j) {
    // Each VP lands in exactly one hop, and every V0 route first
    // intersects τ at a_j, so each counts toward the ratio's denominator.
    std::vector<bgp::VpId>& v0 = hops[j].v0;
    std::sort(v0.begin(), v0.end());
    if (!v0.empty()) {
      hops[j].baseline_ratio = static_cast<double>(matching[j]) /
                               static_cast<double>(v0.size());
    }
  }
  return hops;
}

void AsPathMonitor::watch(const CorpusView& view, PotentialIndex& index,
                          bgp::RouteRow row) {
  const tracemap::ProcessedTrace& pt = view.processed;
  if (pt.as_path.empty()) return;

  // Hops no VP can see are unmonitorable and get no entry.
  std::vector<PinnedHop> hops = pin_hops(pt.as_path, row);
  for (std::size_t j = 0; j < pt.as_path.size(); ++j) {
    if (hops[j].v0.empty()) continue;
    hops[j].v0.shrink_to_fit();
    Entry& entry = entries_.add(
        Entry{
            .pair = view.key,
            .as = pt.as_path[j],
            .tau_path = pt.as_path,
            .tau_index = j,
            .border_index = ingress_border(pt, pt.as_path[j]),
            .v0 = std::move(hops[j].v0),
            .baseline_ratio = hops[j].baseline_ratio,
            .window_updates = {},
        },
        Technique::kBgpAsPath, index);
    // Seed the series with a warm history of the standing ratio: the feed
    // has been collected since before the corpus was initialized, so the
    // detector starts armed rather than blind to the first change.
    entry.series.seed(view.window, entry.baseline_ratio, 24);
  }
}

void AsPathMonitor::unwatch(const tr::PairKey& pair) {
  std::erase_if(hot_, [&](const Entry* entry) { return entry->pair == pair; });
  entries_.unwatch(pair);
}

void AsPathMonitor::on_record(const DispatchedRecord& record,
                              std::int64_t window) {
  (void)window;
  const bgp::VpId vp = record.record->vp;
  entries_.for_covered(
      record.record->prefix, [&](Ipv4, const std::vector<Entry*>& list) {
        for (Entry* entry : list) {
          if (!std::binary_search(entry->v0.begin(), entry->v0.end(), vp)) {
            continue;
          }
          entry->window_updates.emplace_back(vp, record.path);
          entries_.touch(*entry);
        }
      });
}

bool AsPathMonitor::path_counts(const Entry& entry, const AsPath& path,
                                int& num, int& den) {
  int j = first_intersection(path, entry.tau_path);
  if (j < 0 || static_cast<std::size_t>(j) != entry.tau_index) return false;
  ++den;
  if (matches_from(path, entry.tau_index, entry.tau_path)) ++num;
  return true;
}

std::pair<int, int> AsPathMonitor::standing_counts(const Entry& entry) const {
  int num = 0;
  int den = 0;
  for (bgp::VpId vp : entry.v0) {
    const bgp::VpRoute* standing = context_.table->route(vp, entry.pair.dst);
    if (standing != nullptr && !standing->path.empty()) {
      path_counts(entry, standing->path, num, den);
    }
  }
  return {num, den};
}

void AsPathMonitor::fill_meta(const Entry& entry, double score,
                              SignalMeta& meta) const {
  meta.as_overlap =
      static_cast<int>(entry.tau_path.size() - entry.tau_index);
  meta.as_level = true;
  meta.vp_count = static_cast<int>(entry.v0.size());
  meta.deviation = std::abs(score);
}

AsPathMonitor::EvalResult AsPathMonitor::evaluate(Entry* entry,
                                                  bool from_update,
                                                  std::int64_t window,
                                                  TimePoint window_end) {
  EvalResult result;
  if (entry->standing_den < 0) {
    std::tie(entry->standing_num, entry->standing_den) =
        standing_counts(*entry);
  }
  // Standing routes plus every update buffered this window; on_record
  // buffers only V0's updates.
  int num = entry->standing_num;
  int den = entry->standing_den;
  for (const auto& [vp, path] : entry->window_updates) {
    if (!path.empty()) path_counts(*entry, path, num, den);
  }
  entry->window_updates.clear();
  if (den == 0) return result;  // missing window (§4.1.2)
  double ratio = static_cast<double>(num) / static_cast<double>(den);
  bool moved = !entry->series.has_last() ||
               ratio != entry->series.last_value();
  detect::Judgement judgement = entry->series.feed(window, ratio);
  if (from_update || moved) {
    // Keep re-scoring while the shifted level fills the lead window.
    if (entry->hot_windows == 0) result.newly_hot = true;
    entry->hot_windows = 8;
  }
  if (judgement.outlier) {
    // §4.1.2 gating: P_ratio over a mostly-quarantined V0 measures the
    // outage, not the path. Suppress when the BGP feed is degraded overall
    // or when at least half this entry's pinned VPs are quarantined.
    if (health_ != nullptr) {
      std::size_t quarantined = 0;
      for (bgp::VpId vp : entry->v0) {
        if (health_->bgp_quarantined(vp)) ++quarantined;
      }
      if (health_->bgp_degraded() || 2 * quarantined >= entry->v0.size()) {
        obs::inc(dropped_unhealthy_);
        return result;
      }
    }
    StalenessSignal signal;
    signal.technique = Technique::kBgpAsPath;
    signal.potential = entry->id;
    signal.time = window_end;
    signal.window = window;
    signal.pair = entry->pair;
    signal.border_index = entry->border_index;
    fill_meta(*entry, judgement.score, signal.meta);
    result.signals.push_back(std::move(signal));
  }
  return result;
}

std::vector<StalenessSignal> AsPathMonitor::close_window(
    std::int64_t window, TimePoint window_end) {
  obs::ScopedSpan span(mobs_.close_us);
  obs::observe(mobs_.close_items,
               static_cast<double>(entries_.touched_count() + hot_.size()));
  std::vector<StalenessSignal> signals;
  auto merge = [&](const std::vector<Entry*>& work,
                   std::vector<EvalResult>& results) {
    for (std::size_t i = 0; i < work.size(); ++i) {
      for (StalenessSignal& signal : results[i].signals) {
        signals.push_back(std::move(signal));
      }
      if (results[i].newly_hot) hot_.push_back(work[i]);
    }
  };

  // Evaluate dirty entries (updates arrived), then still-hot entries whose
  // lead windows are filling; rebuild the hot queue afterwards. The two
  // phases stay sequential (a dirty evaluation re-arms hot_windows that the
  // hot phase must observe), but within a phase entries are distinct and
  // evaluate concurrently; merging per-entry results in work-list order
  // keeps the output independent of the thread count.
  std::vector<Entry*> dirty = entries_.take_touched();
  std::vector<Entry*> hot;
  hot.swap(hot_);
  std::vector<EvalResult> dirty_results =
      runtime::parallel_map(pool_, dirty, [&](Entry* entry) {
        return evaluate(entry, /*from_update=*/true, window, window_end);
      });
  merge(dirty, dirty_results);
  std::vector<EvalResult> hot_results =
      runtime::parallel_map(pool_, hot, [&](Entry* entry) {
        if (entry->hot_windows <= 0) return EvalResult{};
        --entry->hot_windows;
        // No-op if fed this window already (dirty phase ran first).
        return evaluate(entry, /*from_update=*/false, window, window_end);
      });
  merge(hot, hot_results);
  // Deduplicated rebuild: hot_ may have gained entries inside evaluate().
  std::vector<Entry*> requeued;
  requeued.swap(hot_);
  auto enqueue = [&](Entry* entry) {
    if (entry->hot_windows > 0 &&
        std::find(hot_.begin(), hot_.end(), entry) == hot_.end()) {
      hot_.push_back(entry);
    }
  };
  for (Entry* entry : requeued) enqueue(entry);
  for (Entry* entry : dirty) enqueue(entry);
  for (Entry* entry : hot) enqueue(entry);
  // The engine absorbs this window's records after the close, and each of
  // them reached on_record first, so only the dirty entries' standing
  // routes can change: their cached counts go stale here, after both
  // phases have read them.
  for (Entry* entry : dirty) entry->standing_den = -1;
  return signals;
}

bool AsPathMonitor::reverted(PotentialId id) const {
  const Entry* entry = entries_.find(id);
  if (entry == nullptr) return false;
  // Reverted when the standing routes reproduce the ratio seen at watch
  // time (the window-update buffer is empty between windows). A cached
  // count is exact at sweep time by the standing-count rule (DESIGN §7);
  // an entry without one (dirty at the last close, or just loaded) reads
  // the table.
  auto [num, den] = entry->standing_den >= 0
                        ? std::pair(entry->standing_num, entry->standing_den)
                        : standing_counts(*entry);
  if (den == 0) return false;
  double ratio = static_cast<double>(num) / static_cast<double>(den);
  return std::abs(ratio - entry->baseline_ratio) < 1e-9;
}

}  // namespace rrr::signals
