#include "signals/ixp_monitor.h"

#include "signals/feed_health.h"

namespace rrr::signals {

void IxpMonitor::watch(const CorpusView& view, PotentialIndex& /*index*/) {
  const tracemap::ProcessedTrace& pt = view.processed;
  if (pt.as_path.empty()) return;
  WatchedPair watched;
  watched.path = pt.as_path;
  watched.ingress_border.assign(pt.as_path.size(), kWholePath);
  for (std::size_t p = 0; p < pt.as_path.size(); ++p) {
    for (std::size_t b = 0; b < pt.borders.size(); ++b) {
      if (pt.borders[b].far_as == pt.as_path[p]) {
        watched.ingress_border[p] = b;
        break;
      }
    }
  }
  index_watched(view.key, pt.as_path);
  // Seed membership from the corpus trace itself (no signals for members
  // that were present when monitoring started): the near-end neighbor of
  // an IXP interface is a member.
  for (std::size_t i = 1; i < pt.hops.size(); ++i) {
    const tracemap::ProcessedHop& hop = pt.hops[i];
    if (!hop.responded() || !hop.is_ixp || hop.ixp == topo::kNoIxp) continue;
    const tracemap::ProcessedHop& near = pt.hops[i - 1];
    if (near.responded() && near.asn.is_valid() && !near.is_ixp) {
      members_[hop.ixp].insert(near.asn);
    }
  }
  watched_[view.key] = std::move(watched);
}

void IxpMonitor::index_watched(const tr::PairKey& pair, const AsPath& path) {
  for (Asn asn : path) by_as_[asn].insert(pair);
}

void IxpMonitor::unwatch(const tr::PairKey& pair) {
  auto it = watched_.find(pair);
  if (it == watched_.end()) return;
  for (Asn asn : it->second.path) {
    auto ait = by_as_.find(asn);
    if (ait != by_as_.end()) {
      ait->second.erase(pair);
      if (ait->second.empty()) by_as_.erase(ait);
    }
  }
  watched_.erase(it);
}

void IxpMonitor::handle_new_member(topo::IxpId ixp, Asn joiner,
                                   PotentialIndex& index) {
  std::set<Asn>& members = members_[ixp];
  if (!members.insert(joiner).second) return;
  ++detected_joins_;

  auto pit = by_as_.find(joiner);
  if (pit == by_as_.end()) return;
  for (const tr::PairKey& key : pit->second) {
    auto wit = watched_.find(key);
    if (wit == watched_.end()) continue;
    const WatchedPair& watched = wit->second;
    int pos = index_of(watched.path, joiner);
    if (pos < 0 || static_cast<std::size_t>(pos) + 1 >= watched.path.size()) {
      continue;  // joiner is the last hop: nothing to shortcut
    }
    auto p = static_cast<std::size_t>(pos);
    Asn next_hop = watched.path[p + 1];
    // Is some established member of this IXP further along the path (and
    // not already the next hop)?
    bool member_downstream = false;
    for (std::size_t q = p + 2; q < watched.path.size(); ++q) {
      if (members.contains(watched.path[q])) {
        member_downstream = true;
        break;
      }
    }
    if (!member_downstream) continue;

    // The joiner pays a provider `next_hop` for transit, so a free IXP path
    // wins; over a public peer (another IXP) the class ties and the shorter
    // AS path wins. A private peer usually carries higher local preference,
    // so that join stays silent (file comment).
    AsRelDb::Info rel = rels_.relation(joiner, next_hop);
    bool signal = rel.rel == AsRel::kCustomer ||
                  (rel.rel == AsRel::kPeer && rel.via_ixp);
    if (!signal) continue;

    // §4.2.3 gating: membership "discoveries" made while the public-trace
    // feed is degraded are as likely to be sampling artifacts (the usual
    // witnesses went dark) as real joins. Learn the member, skip the
    // signal.
    if (health_ != nullptr && health_->trace_degraded()) {
      obs::inc(dropped_unhealthy_);
      continue;
    }

    StalenessSignal s;
    s.technique = Technique::kColocation;
    s.potential = index.create(Technique::kColocation);
    // Membership is discovered from whichever public traceroute first
    // crosses the new peering; the underlying change may be much older.
    s.span_seconds = 3 * kSecondsPerDay;
    s.pair = key;
    std::size_t border = watched.ingress_border[p + 1];
    s.border_index = border;
    index.relate(s.potential, key, border);
    s.meta.as_overlap = 1;
    pending_.push_back(std::move(s));
  }
}

void IxpMonitor::on_public_trace(const tracemap::ProcessedTrace& trace,
                                 std::int64_t window, PotentialIndex& index) {
  (void)window;
  for (std::size_t i = 1; i < trace.hops.size(); ++i) {
    const tracemap::ProcessedHop& hop = trace.hops[i];
    if (!hop.responded() || !hop.is_ixp) continue;
    if (hop.ixp == topo::kNoIxp) continue;
    const tracemap::ProcessedHop& near = trace.hops[i - 1];
    if (!near.responded() || !near.asn.is_valid() || near.is_ixp) continue;
    // The near-end (left-adjacent) neighbor of an IXP interface is a
    // member; far-end neighbors are ignored (§4.2.3).
    handle_new_member(hop.ixp, near.asn, index);
  }
}

std::vector<StalenessSignal> IxpMonitor::close_window(std::int64_t window,
                                                      TimePoint window_end) {
  obs::ScopedSpan span(mobs_.close_us);
  std::vector<StalenessSignal> signals;
  signals.swap(pending_);
  obs::observe(mobs_.close_items, static_cast<double>(signals.size()));
  for (StalenessSignal& signal : signals) {
    signal.window = window;
    signal.time = window_end;
  }
  return signals;
}

}  // namespace rrr::signals
