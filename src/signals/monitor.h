// Monitor plumbing shared by the six techniques: the processed view of a
// corpus traceroute, the registry tying potential signals to the corpus
// entries they monitor, and the monitor interfaces.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
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

  Technique technique_of(PotentialId id) const;

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
  };
  // All potentials related to `pair` (empty vector when none).
  const std::vector<Relation>& relations_of(const tr::PairKey& pair) const;

  // Attaches the per-technique potentials-opened counters (semantic domain);
  // null entries (or never calling this) keep create() uninstrumented.
  void set_obs(const std::array<obs::Counter*, kTechniqueCount>& opened) {
    opened_ = opened;
  }

  // Checkpoint support: round-trips the id->technique table and every
  // pair relation, so restored ids keep their meanings and calibration
  // grading sees the same silent/firing partition.
  void save_state(store::Encoder& enc) const {
    enc.u64(techniques_.size());
    for (Technique technique : techniques_) {
      enc.u8(static_cast<std::uint8_t>(technique));
    }
    enc.u64(by_pair_.size());
    for (const auto& [pair, relations] : by_pair_) {
      put_pair(enc, pair);
      enc.u64(relations.size());
      for (const Relation& relation : relations) {
        enc.u64(relation.id);
        enc.u64(relation.border_index);
      }
    }
  }
  void load_state(store::Decoder& dec) {
    techniques_.clear();
    by_pair_.clear();
    std::uint64_t count = dec.u64();
    techniques_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      techniques_.push_back(static_cast<Technique>(dec.u8()));
    }
    std::uint64_t pair_count = dec.u64();
    for (std::uint64_t i = 0; i < pair_count; ++i) {
      tr::PairKey pair = get_pair(dec);
      std::vector<Relation>& relations = by_pair_[pair];
      std::uint64_t relation_count = dec.u64();
      relations.reserve(relation_count);
      for (std::uint64_t j = 0; j < relation_count; ++j) {
        Relation relation;
        relation.id = dec.u64();
        relation.border_index = dec.u64();
        relations.push_back(relation);
      }
    }
  }

 private:
  std::vector<Technique> techniques_;  // indexed by (id - 1)
  std::map<tr::PairKey, std::vector<Relation>> by_pair_;
  std::array<obs::Counter*, kTechniqueCount> opened_{};
};

// A BGP record as dispatched to monitors: attributes normalized (§4.1.1)
// and duplicate status precomputed against the standing table. The
// normalized path is an interned handle, so building a dispatch batch
// copies ids instead of hop vectors and monitors compare paths by id.
struct DispatchedRecord {
  const bgp::BgpRecord* record = nullptr;
  InternedPath path;  // IXP-ASN-stripped, prepending-collapsed
  bool duplicate = false;  // same path & communities as the standing route
};

// Index from announced prefixes to the monitored destination IPs they
// cover. Destinations are bucketed by /16 blocks so a record dispatch only
// inspects destinations that can possibly match (prefixes shorter than /16
// fall back to a scan, which real routing tables make vanishingly rare).
class DstIndex {
 public:
  void add(Ipv4 dst) { ++blocks_[dst.value() >> 16][dst]; }
  void remove(Ipv4 dst) {
    auto bit = blocks_.find(dst.value() >> 16);
    if (bit == blocks_.end()) return;
    auto it = bit->second.find(dst);
    if (it == bit->second.end()) return;
    if (--it->second == 0) bit->second.erase(it);
    if (bit->second.empty()) blocks_.erase(bit);
  }

  template <typename Visitor>
  void for_covered(const Prefix& prefix, Visitor&& visit) const {
    if (prefix.length() >= 16) {
      auto it = blocks_.find(prefix.network().value() >> 16);
      if (it == blocks_.end()) return;
      for (const auto& [dst, count] : it->second) {
        if (prefix.contains(dst)) visit(dst);
      }
      return;
    }
    for (const auto& [block, dsts] : blocks_) {
      for (const auto& [dst, count] : dsts) {
        if (prefix.contains(dst)) visit(dst);
      }
    }
  }

 private:
  std::unordered_map<std::uint32_t, std::map<Ipv4, int>> blocks_;
};

class FeedHealthTracker;

class Monitor {
 public:
  virtual ~Monitor() = default;

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

  virtual Technique technique() const = 0;
  virtual void watch(const CorpusView& view, PotentialIndex& index) = 0;
  virtual void unwatch(const tr::PairKey& pair) = 0;
  // Closes `window`, emitting any signals generated in it.
  virtual std::vector<StalenessSignal> close_window(std::int64_t window,
                                                    TimePoint window_end) = 0;
  // §4.3.2: whether the monitored element identified by `id` has returned
  // to the state it had when its traceroute was issued.
  virtual bool reverted(PotentialId id) const {
    (void)id;
    return false;
  }

 protected:
  MonitorObs mobs_;
  const FeedHealthTracker* health_ = nullptr;
  obs::Counter* dropped_unhealthy_ = nullptr;
};

class BgpMonitor : public Monitor {
 public:
  // Called for every update record of the current window, *before* the
  // standing table view absorbs it (so the standing route is still the
  // start-of-window route).
  virtual void on_record(const DispatchedRecord& record,
                         std::int64_t window) = 0;
};

class TraceMonitor : public Monitor {
 public:
  virtual void on_public_trace(const tracemap::ProcessedTrace& trace,
                               std::int64_t window) = 0;
};

}  // namespace rrr::signals
