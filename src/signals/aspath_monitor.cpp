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

}  // namespace

void AsPathMonitor::watch(const CorpusView& view, PotentialIndex& index) {
  const tracemap::ProcessedTrace& pt = view.processed;
  if (pt.as_path.empty()) return;

  // Pin V0 per AS hop: VPs whose standing route to d first intersects τ at
  // that hop. Hops no VP can see are unmonitorable and get no entry.
  std::vector<std::vector<bgp::VpId>> v0s(pt.as_path.size());
  for (const bgp::VantagePoint& vp : *context_.vps) {
    const bgp::VpRoute* route = context_.table->route(vp.id, view.key.dst);
    if (route == nullptr || route->path.empty()) continue;
    int j = first_intersection(route->path, pt.as_path);
    if (j < 0) continue;
    v0s[static_cast<std::size_t>(j)].push_back(vp.id);
  }
  for (std::vector<bgp::VpId>& v0 : v0s) {
    std::sort(v0.begin(), v0.end());  // each VP lands in exactly one hop
    v0.shrink_to_fit();
  }

  for (std::size_t j = 0; j < pt.as_path.size(); ++j) {
    if (v0s[j].empty()) continue;
    auto entry = std::make_unique<Entry>(Entry{
        .id = index.create(Technique::kBgpAsPath),
        .pair = view.key,
        .as = pt.as_path[j],
        .tau_path = pt.as_path,
        .tau_index = j,
        .border_index = kWholePath,
        .v0 = std::move(v0s[j]),
        .series = detect::LazySeries(detect::GapPolicy::kCarryLast),
        .baseline_ratio = 1.0,
        .dirty = false,
        .window_updates = {},
    });
    // The border whose far side is a_j (its ingress interconnection).
    for (std::size_t b = 0; b < pt.borders.size(); ++b) {
      if (pt.borders[b].far_as == pt.as_path[j]) {
        entry->border_index = b;
        break;
      }
    }
    Entry* raw = entry.get();
    index.relate(raw->id, view.key, raw->border_index);
    by_pair_[view.key].push_back(raw);
    by_dst_[view.key.dst].push_back(raw);
    dst_index_.add(view.key.dst);
    by_potential_[raw->id] = raw;
    auto [num, den] = standing_counts(*raw);
    raw->baseline_ratio =
        den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 1.0;
    // Seed the series with a warm history of the standing ratio: the feed
    // has been collected since before the corpus was initialized, so the
    // detector starts armed rather than blind to the first change.
    raw->series.seed(view.window, raw->baseline_ratio, 24);
    entries_.emplace(raw->id, std::move(entry));
  }
}

void AsPathMonitor::unwatch(const tr::PairKey& pair) {
  auto it = by_pair_.find(pair);
  if (it == by_pair_.end()) return;
  for (Entry* entry : it->second) {
    auto& dst_list = by_dst_[pair.dst];
    std::erase(dst_list, entry);
    dst_index_.remove(pair.dst);
    by_potential_.erase(entry->id);
    std::erase(dirty_, entry);
    std::erase(hot_, entry);
    entries_.erase(entry->id);
  }
  by_pair_.erase(it);
}

void AsPathMonitor::on_record(const DispatchedRecord& record,
                              std::int64_t window) {
  (void)window;
  dst_index_.for_covered(record.record->prefix, [&](Ipv4 dst) {
    auto it = by_dst_.find(dst);
    if (it == by_dst_.end()) return;
    for (Entry* entry : it->second) {
      if (!std::binary_search(entry->v0.begin(), entry->v0.end(),
                              record.record->vp)) {
        continue;
      }
      entry->window_updates.emplace_back(record.record->vp, record.path);
      if (!entry->dirty) {
        entry->dirty = true;
        dirty_.push_back(entry);
      }
    }
  });
}

bool AsPathMonitor::path_counts(const Entry& entry, const AsPath& path,
                                int& num, int& den) {
  int j = first_intersection(path, entry.tau_path);
  if (j < 0 || static_cast<std::size_t>(j) != entry.tau_index) return false;
  ++den;
  if (suffix_matches(path, static_cast<std::size_t>(index_of(
                               path, entry.tau_path[entry.tau_index])),
                     entry.tau_path)) {
    ++num;
  }
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
               static_cast<double>(dirty_.size() + hot_.size()));
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
  std::vector<Entry*> dirty;
  dirty.swap(dirty_);
  std::vector<Entry*> hot;
  hot.swap(hot_);
  std::vector<EvalResult> dirty_results =
      runtime::parallel_map(pool_, dirty, [&](Entry* entry) {
        entry->dirty = false;
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

void AsPathMonitor::save_state(store::Encoder& enc) const {
  std::vector<const Entry*> ordered;
  ordered.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) ordered.push_back(entry.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const Entry* a, const Entry* b) { return a->id < b->id; });
  enc.u64(ordered.size());
  for (const Entry* entry : ordered) {
    enc.u64(entry->id);
    put_pair(enc, entry->pair);
    store::put(enc, entry->as);
    store::put(enc, entry->tau_path);
    enc.u64(entry->tau_index);
    enc.u64(entry->border_index);
    enc.u64(entry->v0.size());
    for (bgp::VpId vp : entry->v0) enc.u32(vp);
    entry->series.save_state(enc);
    enc.f64(entry->baseline_ratio);
    enc.boolean(entry->dirty);
    enc.i64(entry->hot_windows);
    enc.u64(entry->window_updates.size());
    for (const auto& [vp, path] : entry->window_updates) {
      enc.u32(vp);
      store::put(enc, path);
    }
  }
  auto put_ids = [&enc](const std::vector<Entry*>& list) {
    enc.u64(list.size());
    for (const Entry* entry : list) enc.u64(entry->id);
  };
  enc.u64(by_pair_.size());
  for (const auto& [pair, list] : by_pair_) {
    put_pair(enc, pair);
    put_ids(list);
  }
  std::vector<Ipv4> dsts;
  dsts.reserve(by_dst_.size());
  for (const auto& [dst, list] : by_dst_) dsts.push_back(dst);
  std::sort(dsts.begin(), dsts.end());
  enc.u64(dsts.size());
  for (Ipv4 dst : dsts) {
    store::put(enc, dst);
    put_ids(by_dst_.at(dst));
  }
  put_ids(dirty_);
  put_ids(hot_);
}

void AsPathMonitor::load_state(store::Decoder& dec) {
  entries_.clear();
  by_pair_.clear();
  by_dst_.clear();
  dst_index_ = DstIndex();
  dirty_.clear();
  hot_.clear();
  by_potential_.clear();
  std::uint64_t count = dec.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    PotentialId id = dec.u64();
    tr::PairKey pair = get_pair(dec);
    Asn as = store::get_asn(dec);
    AsPath tau_path = store::get_as_path(dec);
    std::uint64_t tau_index = dec.u64();
    std::uint64_t border_index = dec.u64();
    // Writer order is sorted, preserving the sorted-unique invariant.
    std::vector<bgp::VpId> v0;
    std::uint64_t v0_count = dec.u64();
    v0.reserve(v0_count);
    for (std::uint64_t j = 0; j < v0_count; ++j) v0.push_back(dec.u32());
    auto entry = std::make_unique<Entry>(Entry{
        .id = id,
        .pair = pair,
        .as = as,
        .tau_path = std::move(tau_path),
        .tau_index = tau_index,
        .border_index = border_index,
        .v0 = std::move(v0),
        .series = detect::LazySeries(detect::GapPolicy::kCarryLast),
        .window_updates = {},
    });
    entry->series.load_state(dec);
    entry->baseline_ratio = dec.f64();
    entry->dirty = dec.boolean();
    entry->hot_windows = static_cast<int>(dec.i64());
    std::uint64_t update_count = dec.u64();
    entry->window_updates.reserve(update_count);
    for (std::uint64_t j = 0; j < update_count; ++j) {
      bgp::VpId vp = dec.u32();
      entry->window_updates.emplace_back(vp, store::get_as_path(dec));
    }
    by_potential_[entry->id] = entry.get();
    entries_.emplace(entry->id, std::move(entry));
  }
  auto get_ids = [this, &dec]() {
    std::vector<Entry*> list;
    std::uint64_t n = dec.u64();
    list.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      list.push_back(by_potential_.at(dec.u64()));
    }
    return list;
  };
  std::uint64_t pair_count = dec.u64();
  for (std::uint64_t i = 0; i < pair_count; ++i) {
    tr::PairKey pair = get_pair(dec);
    by_pair_[pair] = get_ids();
  }
  std::uint64_t dst_count = dec.u64();
  for (std::uint64_t i = 0; i < dst_count; ++i) {
    Ipv4 dst = store::get_ipv4(dec);
    std::vector<Entry*> list = get_ids();
    for (std::size_t j = 0; j < list.size(); ++j) dst_index_.add(dst);
    by_dst_[dst] = std::move(list);
  }
  dirty_ = get_ids();
  hot_ = get_ids();
}

bool AsPathMonitor::reverted(PotentialId id) const {
  auto it = by_potential_.find(id);
  if (it == by_potential_.end()) return false;
  const Entry& entry = *it->second;
  // Reverted when the standing routes reproduce the ratio seen at watch
  // time (the window-update buffer is empty between windows).
  auto [num, den] = standing_counts(entry);
  if (den == 0) return false;
  double ratio = static_cast<double>(num) / static_cast<double>(den);
  return std::abs(ratio - entry.baseline_ratio) < 1e-9;
}

}  // namespace rrr::signals
