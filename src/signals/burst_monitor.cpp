#include "signals/burst_monitor.h"

#include <algorithm>

#include "runtime/parallel.h"
#include "signals/feed_health.h"

namespace rrr::signals {
namespace {

bool vp_contains(const std::vector<bgp::VpId>& vps, bgp::VpId vp) {
  return std::binary_search(vps.begin(), vps.end(), vp);
}

// Sorted-unique insert, preserving the old std::set semantics.
void vp_insert(std::vector<bgp::VpId>& vps, bgp::VpId vp) {
  auto it = std::lower_bound(vps.begin(), vps.end(), vp);
  if (it == vps.end() || *it != vp) vps.insert(it, vp);
}

// How many origin-side hops `path` shares with `tau`. A path ends with τ's
// suffix from a_j exactly when this is at least |τ| - j.
std::size_t shared_suffix(const AsPath& path, const AsPath& tau) {
  std::size_t n = 0;
  while (n < path.size() && n < tau.size() &&
         path[path.size() - 1 - n] == tau[tau.size() - 1 - n]) {
    ++n;
  }
  return n;
}

}  // namespace

std::vector<BurstHop> burst_hops(const AsPath& tau, bgp::RouteRow row) {
  // Neither a path's shared suffix with τ nor which of its ASes lie off τ
  // depends on the hop, so both are worked out once per watch: `shared`
  // per VP, and every off-τ AS as an (AS, VP) pair, sorted, so each AS's
  // VPs sit together in ascending order.
  struct OffTau {
    Asn as;
    bgp::VpId vp;
    std::size_t shared;
    auto operator<=>(const OffTau&) const = default;
  };
  std::vector<std::pair<bgp::VpId, std::size_t>> shared;
  std::vector<OffTau> off_tau;
  for (const bgp::RowCell& cell : row) {
    if (cell.route == nullptr || cell.route->path.empty()) continue;
    const AsPath& path = cell.route->path;
    std::size_t n = shared_suffix(path, tau);
    shared.emplace_back(cell.vp, n);
    for (Asn asn : path) {
      if (!contains(tau, asn)) off_tau.push_back({asn, cell.vp, n});
    }
  }
  std::sort(shared.begin(), shared.end());
  shared.erase(std::unique(shared.begin(), shared.end()), shared.end());
  std::sort(off_tau.begin(), off_tau.end());
  off_tau.erase(std::unique(off_tau.begin(), off_tau.end()), off_tau.end());

  std::vector<BurstHop> hops(tau.size());
  std::vector<bgp::VpId> on_v0;
  std::vector<bgp::VpId> w;
  for (std::size_t j = 0; j < tau.size(); ++j) {
    const std::size_t need = tau.size() - j;
    BurstHop& hop = hops[j];
    for (const auto& [vp, n] : shared) {
      if (n >= need) hop.v0.push_back(vp);
    }
    if (hop.v0.size() < 2) continue;
    // One pass over the off-τ pairs, an AS at a time: its V0 paths make it
    // an extra, and its other paths are W^{k,d}. An off-τ AS can never lie
    // on the suffix, so "traverses a_k but not the whole suffix" is
    // exactly "a_k off τ on the path, and the path outside V0".
    for (std::size_t begin = 0; begin < off_tau.size();) {
      std::size_t end = begin;
      on_v0.clear();
      w.clear();
      for (; end < off_tau.size() && off_tau[end].as == off_tau[begin].as;
           ++end) {
        (off_tau[end].shared >= need ? on_v0 : w).push_back(off_tau[end].vp);
      }
      Asn as = off_tau[begin].as;
      begin = end;
      if (on_v0.size() < 2 || w.empty()) continue;
      for (bgp::VpId vp : on_v0) hop.vp_extras[vp].push_back(hop.extras.size());
      hop.extras.emplace_back(as, w);
    }
  }
  return hops;
}

void BurstMonitor::watch(const CorpusView& view, PotentialIndex& index,
                         bgp::RouteRow row) {
  const tracemap::ProcessedTrace& pt = view.processed;
  if (pt.as_path.empty()) return;

  std::vector<BurstHop> hops = burst_hops(pt.as_path, row);
  for (std::size_t j = 0; j < pt.as_path.size(); ++j) {
    BurstHop& hop = hops[j];
    if (hop.v0.size() < 2) continue;  // need corroboration across VPs
    hop.v0.shrink_to_fit();
    Entry entry{
        .pair = view.key,
        .suffix = AsPath(pt.as_path.begin() + static_cast<std::ptrdiff_t>(j),
                         pt.as_path.end()),
        .border_index = ingress_border(pt, pt.as_path[j]),
        .v0 = std::move(hop.v0),
        .window_dups = {},
        .extras = {},
        .vp_extras = std::move(hop.vp_extras),
    };
    entry.extras.reserve(hop.extras.size());
    for (auto& [as, vps] : hop.extras) {
      vps.shrink_to_fit();
      entry.extras.push_back(ExtraSeries{
          .as = as,
          .vps = std::move(vps),
          .window_dups = {},
          .outlier_this_window = false,
      });
    }

    // Seed with a warm zero baseline (duplicates are absent most windows),
    // ending the window *before* the watch: seeding at view.window itself
    // would make the series refuse its first feed at the close of the watch
    // window, silently swallowing a duplicate burst that arrives right
    // after the watch — exactly what a session-reset storm aligned with a
    // corpus refresh produces.
    entry.series.seed(view.window - 1, 0.0, 24);
    for (ExtraSeries& extra : entry.extras) {
      extra.series.seed(view.window - 1, 0.0, 24);
    }
    entries_.add(std::move(entry), Technique::kBgpBurst, index);
  }
}

void BurstMonitor::unwatch(const tr::PairKey& pair) {
  entries_.unwatch(pair);
}

void BurstMonitor::on_record(const DispatchedRecord& record,
                             std::int64_t window) {
  (void)window;
  if (!record.duplicate) return;
  const bgp::BgpRecord& rec = *record.record;
  entries_.for_covered(rec.prefix, [&](Ipv4, const std::vector<Entry*>& list) {
    for (Entry* entry : list) {
      bool touched = false;
      if (vp_contains(entry->v0, rec.vp)) {
        vp_insert(entry->window_dups, rec.vp);
        touched = true;
      }
      for (ExtraSeries& extra : entry->extras) {
        if (vp_contains(extra.vps, rec.vp)) {
          vp_insert(extra.window_dups, rec.vp);
          touched = true;
        }
      }
      if (touched) entries_.touch(*entry);
    }
  });
}

std::vector<StalenessSignal> BurstMonitor::close_window(
    std::int64_t window, TimePoint window_end) {
  // Each touched entry owns its series and per-window VP sets exclusively, so
  // evaluation fans out over the pool; per-entry buffers concatenate in
  // work-list order, keeping the output identical to the serial loop.
  obs::ScopedSpan span(mobs_.close_us);
  std::vector<Entry*> work = entries_.take_touched();
  obs::observe(mobs_.close_items, static_cast<double>(work.size()));
  auto evaluate = [&](Entry* entry) {
    std::vector<StalenessSignal> out;
    // Extras first: their contemporaneous-outlier status gates the signal.
    for (ExtraSeries& extra : entry->extras) {
      if (extra.window_dups.empty()) {
        // Zero windows are reconstructed lazily by the gap policy.
        extra.outlier_this_window = false;
      } else {
        double u_prime = static_cast<double>(extra.window_dups.size());
        extra.outlier_this_window =
            extra.series.feed(window, u_prime).outlier;
      }
      extra.window_dups.clear();
    }

    double u = static_cast<double>(entry->window_dups.size());
    detect::Judgement judgement = entry->series.feed(window, u);
    // §4.1.4 rests on *contemporaneous* duplicates from multiple peers: a
    // single parroting VP is never a burst, whatever the detector says,
    // and with many watching VPs a couple of stragglers is routine noise.
    std::size_t quorum = std::max<std::size_t>(
        3, static_cast<std::size_t>(0.4 * double(entry->v0.size()) + 0.5));
    if (entry->window_dups.size() < quorum) judgement.outlier = false;
    if (judgement.outlier) {
      // Figure 4's disambiguation: at least one bursting VP must traverse
      // no extra AS that is simultaneously bursting.
      bool independent_vp = false;
      for (bgp::VpId vp : entry->window_dups) {
        bool blamed_elsewhere = false;
        auto eit = entry->vp_extras.find(vp);
        if (eit != entry->vp_extras.end()) {
          for (std::size_t idx : eit->second) {
            if (entry->extras[idx].outlier_this_window) {
              blamed_elsewhere = true;
              break;
            }
          }
        }
        if (!blamed_elsewhere) {
          independent_vp = true;
          break;
        }
      }
      // Session resets replay a stream's table as duplicates — exactly the
      // burst shape §4.1.4 looks for. A burst must reach quorum on healthy
      // streams alone; quarantined (dead/recovering) VPs don't corroborate.
      if (independent_vp && health_ != nullptr) {
        std::size_t healthy = 0;
        for (bgp::VpId vp : entry->window_dups) {
          if (!health_->bgp_quarantined(vp)) ++healthy;
        }
        if (healthy < quorum) {
          obs::inc(dropped_unhealthy_);
          independent_vp = false;
        }
      }
      if (independent_vp) {
        StalenessSignal signal;
        signal.technique = Technique::kBgpBurst;
        signal.potential = entry->id;
        signal.time = window_end;
        signal.window = window;
        signal.pair = entry->pair;
        signal.border_index = entry->border_index;
        signal.meta.as_overlap = static_cast<int>(entry->suffix.size());
        signal.meta.vp_count = static_cast<int>(entry->v0.size());
        signal.meta.deviation = judgement.score;
        out.push_back(std::move(signal));
      }
    }
    entry->window_dups.clear();
    return out;
  };

  std::vector<std::vector<StalenessSignal>> buffers =
      runtime::parallel_map(pool_, work, evaluate);
  std::vector<StalenessSignal> signals;
  for (std::vector<StalenessSignal>& buffer : buffers) {
    for (StalenessSignal& signal : buffer) {
      signals.push_back(std::move(signal));
    }
  }
  return signals;
}

}  // namespace rrr::signals
