#include "signals/engine_shard.h"

#include <cassert>

#include "signals/serial.h"

namespace rrr::signals {

EngineShard::EngineShard(WindowClock clock,
                         tracemap::ProcessingContext& processing,
                         const EngineSharedState& shared)
    : clock_(clock),
      processing_(processing),
      index_(shared.index),
      calibration_(shared.calibration),
      reputation_(shared.reputation),
      subpath_(shared.subpath),
      border_(shared.border),
      ixp_(shared.ixp),
      health_(shared.health) {
  assert(shared.context != nullptr && shared.index != nullptr &&
         shared.calibration != nullptr && shared.reputation != nullptr &&
         shared.subpath != nullptr && shared.border != nullptr &&
         shared.ixp != nullptr);
  if (shared.obs != nullptr) obs_ = *shared.obs;

  aspath_ = std::make_unique<AsPathMonitor>(*shared.context);
  community_ =
      std::make_unique<CommunityMonitor>(*shared.context, *reputation_);
  burst_ = std::make_unique<BurstMonitor>(*shared.context);
  // Monitors with per-series window-close work shard it over the pool; a
  // null pool keeps them on the exact serial code path.
  aspath_->set_pool(shared.pool);
  community_->set_pool(shared.pool);
  burst_->set_pool(shared.pool);
  // Shards share the engine's per-technique instruments (atomic updates).
  aspath_->set_obs(obs_.monitors[technique_index(Technique::kBgpAsPath)]);
  community_->set_obs(
      obs_.monitors[technique_index(Technique::kBgpCommunity)]);
  burst_->set_obs(obs_.monitors[technique_index(Technique::kBgpBurst)]);
  // The engine's tracker is read-only here (transitions happen before the
  // shards fan out), so concurrent shard closes can consult it safely.
  aspath_->set_feed_health(
      health_,
      obs_.dropped_unhealthy_feed[technique_index(Technique::kBgpAsPath)]);
  community_->set_feed_health(
      health_,
      obs_.dropped_unhealthy_feed[technique_index(Technique::kBgpCommunity)]);
  burst_->set_feed_health(
      health_,
      obs_.dropped_unhealthy_feed[technique_index(Technique::kBgpBurst)]);
}

bool EngineShard::reverted(Technique technique, PotentialId potential) const {
  switch (technique) {
    case Technique::kBgpAsPath: return aspath_->reverted(potential);
    case Technique::kBgpCommunity: return community_->reverted(potential);
    case Technique::kTraceSubpath: return subpath_->reverted(potential);
    case Technique::kTraceBorder: return border_->reverted(potential);
    case Technique::kBgpBurst:
    case Technique::kColocation: return false;
  }
  return false;
}

tr::Freshness EngineShard::initial_freshness(
    const tr::PairKey& pair, const CorpusView& view) const {
  // Fresh only when every border of the traceroute is monitored by at
  // least one potential signal; otherwise its state is unknowable (§6.2).
  const auto& relations = index_->relations_of(pair);
  for (std::size_t b = 0; b < view.processed.borders.size(); ++b) {
    bool covered = false;
    for (const auto& relation : relations) {
      if (relation.border_index == b || relation.border_index == kWholePath) {
        covered = true;
        break;
      }
    }
    if (!covered) return tr::Freshness::kUnknown;
  }
  return relations.empty() ? tr::Freshness::kUnknown : tr::Freshness::kFresh;
}

void EngineShard::watch(const tr::Probe& probe,
                        const tr::Traceroute& trace) {
  tr::PairKey key{trace.probe, trace.dst_ip};
  PairState state;
  state.view.key = key;
  state.view.probe_as = probe.as;
  state.view.probe_city = probe.city;
  state.view.window = clock_.index_of(trace.time);
  state.view.processed = processing_.ingest(trace);
  state.watched_window = state.view.window;

  aspath_->watch(state.view, *index_);
  community_->watch(state.view, *index_);
  burst_->watch(state.view, *index_);
  subpath_->watch(state.view, *index_);
  border_->watch(state.view, *index_);
  ixp_->watch(state.view, *index_);

  state.freshness = initial_freshness(key, state.view);
  corpus_[key] = std::move(state);
}

void EngineShard::mark_stale(const StalenessSignal& signal) {
  auto it = corpus_.find(signal.pair);
  if (it == corpus_.end()) return;
  PairState& state = it->second;
  state.freshness = tr::Freshness::kStale;
  ActiveSignal active;
  active.potential = signal.potential;
  active.technique = signal.technique;
  active.meta = signal.meta;
  active.pair = signal.pair;
  active.community = signal.community;
  state.active[signal.potential] = std::move(active);
}

void EngineShard::dispatch_window_records(
    const std::vector<DispatchedRecord>& records, std::int64_t window) {
  for (const DispatchedRecord& dispatched : records) {
    aspath_->on_record(dispatched, window);
    community_->on_record(dispatched, window);
    burst_->on_record(dispatched, window);
  }
}

void EngineShard::collect_bgp_close(std::vector<StalenessSignal>& into,
                                    std::int64_t window,
                                    TimePoint window_end) {
  auto append = [&into](std::vector<StalenessSignal>&& batch) {
    into.insert(into.end(), std::make_move_iterator(batch.begin()),
                std::make_move_iterator(batch.end()));
  };
  append(aspath_->close_window(window, window_end));
  append(community_->close_window(window, window_end));
  append(burst_->close_window(window, window_end));
}

void EngineShard::run_revocation() {
  for (auto& [key, state] : corpus_) {
    if (state.freshness != tr::Freshness::kStale || state.active.empty()) {
      continue;
    }
    // §4.3.2: revocation applies when every AS-path, community, subpath,
    // and border signal has returned to its issue-time state. Burst and
    // colocation signals carry no revertible state; they neither revoke
    // nor block (a pair flagged *only* by them stays flagged).
    bool all_reverted = true;
    int revocable = 0;
    for (const auto& [potential, active] : state.active) {
      if (active.technique == Technique::kBgpBurst ||
          active.technique == Technique::kColocation) {
        continue;
      }
      ++revocable;
      if (!reverted(active.technique, potential)) {
        all_reverted = false;
        break;
      }
    }
    if (revocable == 0) all_reverted = false;
    if (all_reverted) {
      state.active.clear();
      state.freshness = initial_freshness(key, state.view);
      obs::inc(obs_.revocations);
    }
  }
}

void EngineShard::collect_refresh_candidates(
    std::map<tr::PairKey, RefreshScheduler::PairState>& into) const {
  for (const auto& [key, state] : corpus_) {
    if (state.active.empty()) continue;
    RefreshScheduler::PairState ps;
    for (const auto& [potential, active] : state.active) {
      ps.firing.push_back(active);
    }
    for (const auto& relation : index_->relations_of(key)) {
      if (!state.active.contains(relation.id)) {
        ps.silent.push_back(relation.id);
      }
    }
    into.emplace(key, std::move(ps));
  }
}

bool EngineShard::portion_changed(const tracemap::ProcessedTrace& before,
                                  const tracemap::ProcessedTrace& after,
                                  std::size_t border_index) const {
  if (border_index == kWholePath) return before.as_path != after.as_path;
  if (border_index >= before.borders.size()) return false;
  const tracemap::BorderView& old_border = before.borders[border_index];
  bool same_as_pair_seen = false;
  for (const tracemap::BorderView& candidate : after.borders) {
    if (candidate.near_as == old_border.near_as &&
        candidate.far_as == old_border.far_as) {
      if (candidate.border_router == old_border.border_router) {
        return false;  // the portion survives in the new measurement
      }
      same_as_pair_seen = true;
    }
  }
  // The same AS pair crossed through a different router: a border change.
  if (same_as_pair_seen) return true;
  // The border is absent entirely. With a changed AS path that is a real
  // change; with the same AS path it is almost always an unresponsive-hop
  // artifact, and wildcards cannot indicate a change (Appendix A).
  return before.as_path != after.as_path;
}

RefreshOutcome EngineShard::apply_refresh(const tr::Probe& probe,
                                          const tr::Traceroute& fresh) {
  tr::PairKey key{fresh.probe, fresh.dst_ip};
  RefreshOutcome outcome;
  outcome.pair = key;

  tracemap::ProcessedTrace new_processed = processing_.ingest(fresh);
  auto it = corpus_.find(key);
  if (it != corpus_.end()) {
    PairState& state = it->second;
    outcome.was_flagged_stale = state.freshness == tr::Freshness::kStale;
    outcome.change =
        tracemap::classify_change(state.view.processed, new_processed);

    // Grade every related potential (§4.3.1) — unless the pair's probe is
    // quarantined, in which case the "fresh" measurement itself is suspect
    // and grading against it would poison the TPR/TNR tallies. The refresh
    // still replaces the corpus entry; only the grades are frozen.
    std::int64_t window = clock_.index_of(fresh.time);
    if (health_ != nullptr && health_->trace_quarantined(key.probe)) {
      obs::inc(obs_.calibration_frozen);
    } else {
      for (const auto& relation : index_->relations_of(key)) {
        bool fired = state.active.contains(relation.id);
        bool changed = portion_changed(state.view.processed, new_processed,
                                       relation.border_index);
        Outcome graded =
            fired
                ? (changed ? Outcome::kTruePositive : Outcome::kFalsePositive)
                : (changed ? Outcome::kFalseNegative
                           : Outcome::kTrueNegative);
        calibration_->record(key.probe, relation.id, window, graded);
      }
    }
    // Community reputation: grade the fired community signals.
    for (const auto& [potential, active] : state.active) {
      if (active.technique != Technique::kBgpCommunity) continue;
      bool changed = true;
      for (const auto& relation : index_->relations_of(key)) {
        if (relation.id == potential) {
          changed = portion_changed(state.view.processed, new_processed,
                                    relation.border_index);
          break;
        }
      }
      if (active.community.raw() != 0) {
        reputation_->record_outcome(active.community, key, changed);
      }
    }

    // Unregister the old measurement everywhere.
    aspath_->unwatch(key);
    community_->unwatch(key);
    burst_->unwatch(key);
    subpath_->unwatch(key);
    border_->unwatch(key);
    ixp_->unwatch(key);
    index_->unrelate_pair(key);
    corpus_.erase(it);
  }

  // Register the fresh measurement. `probe` and `fresh` stay valid through
  // watch() (it only reads them), so no defensive copies.
  watch(probe, fresh);
  obs::inc(obs_.refreshes);
  if (outcome.change != tracemap::ChangeKind::kNone) {
    obs::inc(obs_.refreshes_changed);
  }
  return outcome;
}

void EngineShard::save_state(store::Encoder& enc) const {
  enc.u64(corpus_.size());
  for (const auto& [key, state] : corpus_) {
    put_pair(enc, key);
    enc.u32(state.view.probe_as);
    enc.u16(state.view.probe_city);
    enc.i64(state.view.window);
    tracemap::put_processed(enc, state.view.processed);
    enc.u8(static_cast<std::uint8_t>(state.freshness));
    enc.i64(state.watched_window);
    enc.u64(state.active.size());
    for (const auto& [potential, active] : state.active) {
      enc.u64(potential);
      put_active(enc, active);
    }
  }
  aspath_->save_state(enc);
  community_->save_state(enc);
  burst_->save_state(enc);
}

void EngineShard::load_state(store::Decoder& dec) {
  corpus_.clear();
  std::uint64_t pair_count = dec.u64();
  for (std::uint64_t i = 0; i < pair_count; ++i) {
    tr::PairKey key = get_pair(dec);
    PairState state;
    state.view.key = key;
    state.view.probe_as = dec.u32();
    state.view.probe_city = dec.u16();
    state.view.window = dec.i64();
    state.view.processed = tracemap::get_processed(dec);
    state.freshness = static_cast<tr::Freshness>(dec.u8());
    state.watched_window = dec.i64();
    std::uint64_t active_count = dec.u64();
    for (std::uint64_t j = 0; j < active_count; ++j) {
      PotentialId potential = dec.u64();
      state.active[potential] = get_active(dec);
    }
    corpus_[key] = std::move(state);
  }
  aspath_->load_state(dec);
  community_->load_state(dec);
  burst_->load_state(dec);
}

tr::Freshness EngineShard::freshness(const tr::PairKey& pair) const {
  auto it = corpus_.find(pair);
  return it == corpus_.end() ? tr::Freshness::kUnknown
                             : it->second.freshness;
}

std::vector<tr::PairKey> EngineShard::stale_pairs() const {
  std::vector<tr::PairKey> out;
  for (const auto& [key, state] : corpus_) {
    if (state.freshness == tr::Freshness::kStale) out.push_back(key);
  }
  return out;
}

void EngineShard::collect_pair_states(
    std::vector<PairStateView>& into) const {
  for (const auto& [key, state] : corpus_) {
    into.push_back(PairStateView{
        key, state.freshness, state.watched_window,
        static_cast<std::uint32_t>(state.active.size())});
  }
}

const tracemap::ProcessedTrace* EngineShard::processed_of(
    const tr::PairKey& pair) const {
  auto it = corpus_.find(pair);
  return it == corpus_.end() ? nullptr : &it->second.view.processed;
}

}  // namespace rrr::signals
