// Monitor plumbing shared by the six techniques: the processed view of a
// corpus traceroute, the registry tying potential signals to the corpus
// entries they monitor, and the state every monitor carries.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "bgp/record.h"
#include "bgp/table_view.h"
#include "signals/engine_obs.h"
#include "signals/serial.h"
#include "signals/signal.h"
#include "topology/types.h"
#include "tracemap/processed.h"
#include "tracemap/serial.h"
#include "traceroute/corpus.h"

namespace rrr::signals {

// What monitors know about one corpus traceroute.
struct CorpusView {
  tr::PairKey key;
  topo::AsIndex probe_as = topo::kNoAs;
  topo::CityId probe_city = topo::kNoCity;
  std::int64_t window = 0;  // base window of the measurement (t0)
  tracemap::ProcessedTrace processed;
};

// Registry of potential-signal <-> corpus-pair relations, used by the
// calibration layer to account true negatives / false negatives for signals
// that stayed silent (§4.3.1).
class PotentialIndex {
 public:
  PotentialId create(Technique technique);

  // Declares that potential `id` monitors `border_index` of `pair`.
  void relate(PotentialId id, const tr::PairKey& pair,
              std::size_t border_index);
  // Removes every relation of `pair` (called when the pair is refreshed and
  // will be re-registered against the new measurement).
  void unrelate_pair(const tr::PairKey& pair);

  struct Relation {
    PotentialId id = kNoPotential;
    std::size_t border_index = kWholePath;
    auto operator<=>(const Relation&) const = default;

    template <class Io, class Self>
    static void io(Io& io, Self& relation) {
      io(relation.id, relation.border_index);
    }
  };
  // All potentials related to `pair` (empty vector when none).
  const std::vector<Relation>& relations_of(const tr::PairKey& pair) const;

  // Attaches the per-technique potentials-opened counters (semantic domain);
  // null entries (or never calling this) keep create() uninstrumented.
  void set_obs(const std::array<obs::Counter*, kTechniqueCount>& opened) {
    opened_ = opened;
  }

  // Checkpoint support: round-trips the count of created ids and every
  // pair relation (pairs in order), so restored ids stay unique and
  // calibration grading sees the same silent/firing partition. A pair
  // repeated or out of order, a relation repeated within its pair, or one
  // naming no created potential is kCorrupt.
  void save_state(store::Encoder& enc) const { io(enc, *this); }
  void load_state(store::Decoder& dec) { io(dec, *this); }

 private:
  PotentialId created_ = 0;  // ids 1..created_ are taken
  std::map<tr::PairKey, std::vector<Relation>> by_pair_;
  std::array<obs::Counter*, kTechniqueCount> opened_{};

  template <class Io, class Self>
  static void io(Io& io, Self& self) {
    io(self.created_);
    io.ordered(self.by_pair_, "potential-index pairs");
    if constexpr (Io::kLoading) self.check_relations();
  }
  void check_relations() const;
};

// A list of potential owners (BGP entries, trace series) as their ids, the
// snapshot form of the monitors' indexes: on load `find(id)` resolves each
// id, and one it cannot resolve is kCorrupt.
template <class Io, class List, class Find>
void potential_ids(Io& io, List& list, Find&& find) {
  io.each(list, sizeof(PotentialId), [&]<class I>(I& io, auto& owner) {
    PotentialId id = I::kLoading ? kNoPotential : owner->id;
    io(id);
    if constexpr (I::kLoading) {
      owner = find(id);
      io.check(owner != nullptr, "monitor index names an unknown potential");
    }
  });
}

// A BGP record as dispatched to monitors: attributes normalized (§4.1.1)
// and duplicate status precomputed against the standing table. The
// normalized path is an interned handle, so building a dispatch batch
// copies ids instead of hop vectors and monitors compare paths by id.
struct DispatchedRecord {
  const bgp::BgpRecord* record = nullptr;
  InternedPath path;  // route-server ASNs stripped, prepending collapsed
  bool duplicate = false;  // same path & communities as the standing route
};

class FeedHealthTracker;

// What every technique's monitor shares: the close-path instrumentation and
// the feed-health gate. There is no interface to dispatch through — the
// engine holds and calls each concrete monitor — but every monitor has the
// same shape:
//
//   watch(view, index), unwatch(pair)  start / stop monitoring a corpus pair
//                                      (the BGP monitors' watch also takes
//                                      the route row toward the pair's
//                                      destination)
//   on_record(record, window)          BGP monitors: every update record of
//                                      the current window, *before* the
//                                      standing table view absorbs it (so
//                                      the standing route is still the
//                                      start-of-window route)
//   on_public_trace(trace, window)     trace monitors: every public trace
//   close_window(window, window_end)   closes `window`, emitting any signals
//                                      generated in it
//   reverted(id)                       §4.3.2, on the techniques that can
//                                      revoke (AS path, community, subpath,
//                                      border): whether the monitored element
//                                      `id` has returned to the state it had
//                                      when its traceroute was issued
class Monitor {
 public:
  // Attaches close-path instrumentation; the bundle is copied, and an
  // all-null bundle (the default) makes every update a no-op.
  void set_obs(const MonitorObs& mobs) { mobs_ = mobs; }

  // Attaches the feed-health tracker the monitor consults before emitting
  // (null = no gating, the default) and the semantic counter incremented
  // for every signal dropped on an unhealthy feed. The tracker is read-only
  // during monitor phases, so concurrent closes may share it.
  void set_feed_health(const FeedHealthTracker* health,
                       obs::Counter* dropped) {
    health_ = health;
    dropped_unhealthy_ = dropped;
  }

 protected:
  MonitorObs mobs_;
  const FeedHealthTracker* health_ = nullptr;
  obs::Counter* dropped_unhealthy_ = nullptr;
};

}  // namespace rrr::signals
