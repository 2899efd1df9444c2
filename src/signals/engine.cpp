#include "signals/engine.h"

#include <algorithm>
#include <array>

#include "bgp/serial.h"
#include "runtime/parallel.h"
#include "signals/serial.h"

namespace rrr::signals {
namespace {

EngineParams normalized(EngineParams params) {
  if (params.shards < 1) params.shards = 1;
  return params;
}

std::vector<bgp::VpId> ids_of(const std::vector<bgp::VantagePoint>& vps) {
  std::vector<bgp::VpId> ids;
  ids.reserve(vps.size());
  for (const bgp::VantagePoint& vp : vps) ids.push_back(vp.id);
  return ids;
}

// Every kRevocationCheckWindows windows the engine sweeps the corpus for
// revocations (§4.3.2).
constexpr std::int64_t kRevocationCheckWindows = 8;
// A potential signal that keeps flagging a persistent change re-fires at
// most once per cooldown (the pair is already marked stale; repeats only
// add noise to downstream consumers).
constexpr std::int64_t kSignalCooldownWindows = 8;

// Rank of each technique in the canonical merge order — the order the
// close path runs the monitors in (BGP monitors, then the table absorb,
// then trace monitors). Within a rank, signals order by
// (window, potential, pair, border): subpath/border potentials are shared
// by several subscriber pairs, so the pair key breaks the tie the same way
// for every partition.
int close_rank(Technique technique) {
  switch (technique) {
    case Technique::kBgpAsPath: return 0;
    case Technique::kBgpCommunity: return 1;
    case Technique::kBgpBurst: return 2;
    case Technique::kTraceSubpath: return 3;
    case Technique::kTraceBorder: return 4;
    case Technique::kColocation: return 5;
  }
  return 6;
}

bool canonical_less(const StalenessSignal& a, const StalenessSignal& b) {
  int ra = close_rank(a.technique);
  int rb = close_rank(b.technique);
  if (ra != rb) return ra < rb;
  if (a.window != b.window) return a.window < b.window;
  if (a.potential != b.potential) return a.potential < b.potential;
  if (a.pair != b.pair) return a.pair < b.pair;
  return a.border_index < b.border_index;
}

void append(std::vector<StalenessSignal>& into,
            std::vector<StalenessSignal>&& batch) {
  into.insert(into.end(), std::make_move_iterator(batch.begin()),
              std::make_move_iterator(batch.end()));
}

// §4.3.1 grading: whether the portion of `before` that a potential
// monitors (`border_index`, or the whole AS path) changed in `after`.
bool portion_changed(const tracemap::ProcessedTrace& before,
                     const tracemap::ProcessedTrace& after,
                     std::size_t border_index) {
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

}  // namespace

void dispatch_against_table(const std::vector<bgp::BgpRecord>& records,
                            std::size_t count, bgp::VpTableView& table,
                            std::vector<DispatchedRecord>& out) {
  out.clear();
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const bgp::BgpRecord& record = records[i];
    DispatchedRecord dispatched;
    dispatched.record = &record;
    dispatched.path =
        InternedPath::from_id(table.canonical(record.as_path.id()));
    const bgp::VpRoute* standing =
        table.route(record.vp, record.prefix.network());
    // Duplicate status is two id compares now: id equality is content
    // equality within one interner, so this matches the old vector/set
    // comparisons exactly.
    dispatched.duplicate = record.type == bgp::RecordType::kAnnouncement &&
                           standing != nullptr &&
                           standing->path == dispatched.path &&
                           standing->communities == record.communities;
    out.push_back(dispatched);
  }
}

std::size_t cut_window_prefix(std::vector<bgp::BgpRecord>& pending,
                              const WindowClock& clock, std::int64_t window) {
  auto in_window = [&](const bgp::BgpRecord& r) {
    return clock.index_of(r.time) <= window;
  };
  // Stable partition + prefix sort: equal-time records keep arrival order,
  // exactly as a stable sort of the whole buffer would leave them, but the
  // future-window tail is never touched (it is re-partitioned, in arrival
  // order, when its own window closes).
  auto mid = std::stable_partition(pending.begin(), pending.end(), in_window);
  std::stable_sort(pending.begin(), mid,
                   [](const bgp::BgpRecord& a, const bgp::BgpRecord& b) {
                     return a.time < b.time;
                   });
  return static_cast<std::size_t>(mid - pending.begin());
}

Engine::Engine(const EngineParams& params,
               tracemap::ProcessingContext& processing,
               std::vector<bgp::VantagePoint> vps,
               std::set<Asn> ixp_route_server_asns, AsRelDb rels,
               std::map<topo::IxpId, std::set<Asn>> ixp_members)
    : params_(normalized(params)),
      clock_(params.t0, kBaseWindowSeconds),
      processing_(processing),
      rng_(Rng(params.seed).fork(0xE9619E)),
      vps_(std::move(vps)),
      table_(std::move(ixp_route_server_asns), ids_of(vps_)),
      rels_(std::move(rels)),
      subpath_(params_.trace_drop_outliers),
      border_(params_.trace_drop_outliers),
      ixp_(rels_, std::move(ixp_members)) {
  context_.table = &table_;
  context_.vps = &vps_;
  if (params_.threads > 1) {
    pool_ = std::make_unique<runtime::ThreadPool>(params_.threads);
  }
  if (pool_ != nullptr && params_.tracer != nullptr) {
    pool_->set_tracer(params_.tracer);
  }

  if (params_.metrics != nullptr) {
    obs_ = EngineObs::create(*params_.metrics);
    index_.set_obs(obs_.potentials_opened);
    shard_close_us_.reserve(static_cast<std::size_t>(params_.shards));
    for (int i = 0; i < params_.shards; ++i) {
      shard_close_us_.push_back(&params_.metrics->histogram(
          "rrr_shard_close_us", obs::duration_buckets_us(),
          {{"shard", std::to_string(i)}}, obs::Domain::kRuntime,
          "Wall microseconds of one shard's phase-A close"));
    }
    if (pool_ != nullptr) {
      pool_obs_ = runtime::PoolObs::create(*params_.metrics);
      pool_->set_obs(&pool_obs_);
    }
  }
  if (params_.feed_health.enabled) {
    health_ = std::make_unique<FeedHealthTracker>(params_.feed_health);
    if (params_.metrics != nullptr) health_->set_metrics(*params_.metrics);
  }

  // Every monitor updates the engine's per-technique instruments (atomic
  // updates) and consults the one feed-health tracker, which is read-only
  // during a close (its transitions run before phase A). Monitors with
  // per-series window-close work shard it over the pool; a null pool keeps
  // them on the exact serial code path.
  auto wire = [&](Monitor& monitor, Technique technique) {
    const std::size_t t = technique_index(technique);
    monitor.set_obs(obs_.monitors[t]);
    monitor.set_feed_health(health_.get(), obs_.dropped_unhealthy_feed[t]);
  };
  subpath_.set_pool(pool_.get());
  border_.set_pool(pool_.get());
  wire(subpath_, Technique::kTraceSubpath);
  wire(border_, Technique::kTraceBorder);
  wire(ixp_, Technique::kColocation);
  shards_.reserve(static_cast<std::size_t>(params_.shards));
  for (int i = 0; i < params_.shards; ++i) {
    BgpMonitors& bgp = *shards_.emplace_back(
        std::make_unique<BgpMonitors>(context_, reputation_));
    bgp.aspath.set_pool(pool_.get());
    bgp.community.set_pool(pool_.get());
    bgp.burst.set_pool(pool_.get());
    wire(bgp.aspath, Technique::kBgpAsPath);
    wire(bgp.community, Technique::kBgpCommunity);
    wire(bgp.burst, Technique::kBgpBurst);
  }
}

std::size_t Engine::shard_of(const tr::PairKey& pair) const {
  std::uint64_t h = hash_combine(static_cast<std::uint64_t>(pair.probe),
                                 static_cast<std::uint64_t>(pair.dst.value()));
  return static_cast<std::size_t>(h % shards_.size());
}

bool Engine::reverted(const tr::PairKey& pair, Technique technique,
                      PotentialId potential) const {
  switch (technique) {
    case Technique::kBgpAsPath:
      return shards_[shard_of(pair)]->aspath.reverted(potential);
    case Technique::kBgpCommunity:
      return shards_[shard_of(pair)]->community.reverted(potential);
    case Technique::kTraceSubpath: return subpath_.reverted(potential);
    case Technique::kTraceBorder: return border_.reverted(potential);
    case Technique::kBgpBurst:
    case Technique::kColocation: return false;
  }
  return false;
}

tr::Freshness Engine::initial_freshness(const tr::PairKey& pair,
                                        const CorpusView& view) const {
  // Fresh only when every border of the traceroute is monitored by at
  // least one potential signal; otherwise its state is unknowable (§6.2).
  const auto& relations = index_.relations_of(pair);
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

void Engine::watch(const tr::Probe& probe, const tr::Traceroute& trace) {
  watch_processed(probe, trace, processing_.ingest(trace));
}

void Engine::watch_processed(const tr::Probe& probe,
                             const tr::Traceroute& trace,
                             tracemap::ProcessedTrace processed) {
  tr::PairKey key{trace.probe, trace.dst_ip};
  PairState state;
  state.view.key = key;
  state.view.probe_as = probe.as;
  state.view.probe_city = probe.city;
  state.view.window = clock_.index_of(trace.time);
  state.view.processed = std::move(processed);

  // The AS-path, community and burst watches read the standing routes
  // toward the destination from one memoized row.
  const bgp::RouteRow row = table_.row(trace.dst_ip);
  BgpMonitors& bgp = *shards_[shard_of(key)];
  bgp.aspath.watch(state.view, index_, row);
  bgp.community.watch(state.view, index_, row);
  bgp.burst.watch(state.view, index_, row);
  subpath_.watch(state.view, index_);
  border_.watch(state.view, index_);
  ixp_.watch(state.view, index_);

  state.freshness = initial_freshness(key, state.view);
  firing_.erase(key);
  corpus_[key] = std::move(state);
}

std::size_t Engine::corpus_size() const { return corpus_.size(); }

void Engine::on_bgp_record(const bgp::BgpRecord& record) {
  // Delivery tally at the (serial) feed boundary — the one place every
  // record passes exactly once regardless of the shard partition.
  if (health_ != nullptr) {
    health_->count_bgp(record.vp, record.collector.id(),
                       clock_.index_of(record.time));
  }
  pending_records_.push_back(record);
}

void Engine::on_public_trace(const tr::Traceroute& trace) {
  // Public traces feed only the global trace monitors — no shard fan-out
  // (and none would be deterministic: their series mix evidence across
  // pairs, so each trace must update exactly one instance).
  processing_.ingest(trace, public_trace_);
  std::int64_t window = clock_.index_of(trace.time);
  if (health_ != nullptr) health_->count_trace(trace.probe, window);
  subpath_.on_public_trace(public_trace_, window);
  border_.on_public_trace(public_trace_, window);
  ixp_.on_public_trace(public_trace_, window, index_);
}

void Engine::close_one_window(std::int64_t window,
                              std::vector<StalenessSignal>& out) {
  obs::ScopedSpan close_span(obs_.window_close_us);
  TimePoint end = clock_.window_end(window);
  // Health transitions run engine-serial before any parallel phase: shards
  // and trace monitors then consult a frozen tracker, which keeps the
  // close TSAN-clean and the gating independent of the partition.
  if (health_ != nullptr) health_->close_window(window);
  std::size_t cut = cut_window_prefix(pending_records_, clock_, window);
  // Normalize the window's records once against the start-of-window table;
  // every shard dispatches the same read-only views. The batch is dead
  // once phase A is joined.
  {
    obs::ScopedSpan dispatch_span(obs_.dispatch_us);
    obs::TraceSpan trace_span(params_.tracer, "dispatch", "close", window,
                              "records", static_cast<std::int64_t>(cut));
    dispatch_against_table(pending_records_, cut, table_, dispatched_);
  }

  // Phase A — shards in parallel: dispatch the window's records to the
  // shard's BGP monitors and close them into raw per-shard buffers. The
  // table is read-only here, and each shard touches only its own entries.
  std::vector<std::vector<StalenessSignal>> raw(shards_.size());
  runtime::parallel_for(
      pool_.get(), shards_.size(),
      [&](std::size_t i) {
        obs::ScopedSpan shard_span(
            shard_close_us_.empty() ? nullptr : shard_close_us_[i]);
        obs::TraceSpan trace_span(params_.tracer, "shard_close", "close",
                                  window, "shard",
                                  static_cast<std::int64_t>(i));
        BgpMonitors& bgp = *shards_[i];
        for (const DispatchedRecord& dispatched : dispatched_) {
          bgp.aspath.on_record(dispatched, window);
          bgp.community.on_record(dispatched, window);
          bgp.burst.on_record(dispatched, window);
        }
        append(raw[i], bgp.aspath.close_window(window, end));
        append(raw[i], bgp.community.close_window(window, end));
        append(raw[i], bgp.burst.close_window(window, end));
      },
      /*grain=*/1);

  // Absorb — serial: every phase-A reader is joined, so the window's
  // records go straight into the one table, visible to phase B, the
  // revocation sweep and the next window's dispatch. Nothing references
  // the dispatch batch or the absorbed records past this point.
  {
    obs::ScopedSpan absorb_span(obs_.absorb_us);
    obs::TraceSpan trace_span(params_.tracer, "absorb", "close", window,
                              "records", static_cast<std::int64_t>(cut));
    table_.apply_all(pending_records_, cut);
  }
  obs::inc(obs_.bgp_records_absorbed, static_cast<std::int64_t>(cut));
  dispatched_.clear();
  pending_records_.erase(pending_records_.begin(),
                         pending_records_.begin() +
                             static_cast<std::ptrdiff_t>(cut));

  // Phase B — the three global trace monitors close concurrently, one
  // pool task each. The subpath and border monitors fan their per-series
  // work out on the same pool; the IXP monitor only stamps its few pending
  // signals.
  static constexpr const char* kTraceCloseSpans[] = {
      "close_subpath", "close_border", "close_ixp"};
  std::array<std::vector<StalenessSignal>, 3> trace_raw;
  runtime::parallel_for(
      pool_.get(), trace_raw.size(),
      [&](std::size_t i) {
        obs::TraceSpan span(params_.tracer, kTraceCloseSpans[i], "close",
                            window);
        trace_raw[i] = i == 0   ? subpath_.close_window(window, end)
                       : i == 1 ? border_.close_window(window, end)
                                : ixp_.close_window(window, end);
      },
      /*grain=*/1);

  // Merge in canonical order, then register serially: registration owns
  // the global cooldown map and the corpus's freshness state.
  std::vector<StalenessSignal> batch;
  {
    obs::ScopedSpan merge_span(obs_.merge_us);
    obs::TraceSpan trace_span(params_.tracer, "merge", "close", window);
    std::size_t total = 0;
    for (const auto& buffer : raw) total += buffer.size();
    for (const auto& buffer : trace_raw) total += buffer.size();
    batch.reserve(total);
    for (auto& buffer : raw) append(batch, std::move(buffer));
    for (auto& buffer : trace_raw) append(batch, std::move(buffer));
    std::sort(batch.begin(), batch.end(), canonical_less);
  }

  {
    obs::ScopedSpan register_span(obs_.register_us);
    obs::TraceSpan trace_span(params_.tracer, "register", "close", window,
                              "signals",
                              static_cast<std::int64_t>(batch.size()));
    out.reserve(out.size() + batch.size());
    for (StalenessSignal& signal : batch) {
      auto pair = corpus_.find(signal.pair);
      if (pair == corpus_.end()) {
        obs::inc(obs_.signals_dropped_refreshed);
        continue;  // refreshed mid-window
      }
      auto fired = last_fired_.find(signal.potential);
      if (fired != last_fired_.end() &&
          signal.window - fired->second < kSignalCooldownWindows) {
        obs::inc(obs_.signals_suppressed_cooldown);
        continue;  // persistent change already reported recently
      }
      last_fired_[signal.potential] = signal.window;
      obs::inc(obs_.signals_emitted[technique_index(signal.technique)]);
      PairState& state = pair->second;
      state.freshness = tr::Freshness::kStale;
      ActiveSignal active;
      active.potential = signal.potential;
      active.technique = signal.technique;
      active.meta = signal.meta;
      active.pair = signal.pair;
      active.community = signal.community;
      state.active[signal.potential] = std::move(active);
      firing_.try_emplace(signal.pair, &state);
      out.push_back(std::move(signal));
    }
  }

  if (window % kRevocationCheckWindows == kRevocationCheckWindows - 1) {
    obs::TraceSpan trace_span(params_.tracer, "revocation", "close", window);
    run_revocation();
  }
}

void Engine::run_revocation() {
  // Stale pairs with active signals, in corpus order.
  std::vector<std::pair<tr::PairKey, PairState*>> stale;
  for (const auto& [key, state] : firing_) {
    if (state->freshness == tr::Freshness::kStale) {
      stale.emplace_back(key, state);
    }
  }
  // Judge on the pool: the monitors, the table and the corpus are
  // read-only, and each judgement writes only its own byte (not a
  // std::vector<bool> bit).
  std::vector<std::uint8_t> revoke(stale.size(), 0);
  runtime::parallel_for(pool_.get(), stale.size(), [&](std::size_t i) {
    const auto& [key, state] = stale[i];
    // §4.3.2: revocation applies when every AS-path, community, subpath,
    // and border signal has returned to its issue-time state. Burst and
    // colocation signals carry no revertible state; they neither revoke
    // nor block (a pair flagged *only* by them stays flagged).
    int revocable = 0;
    for (const auto& [potential, active] : state->active) {
      if (active.technique == Technique::kBgpBurst ||
          active.technique == Technique::kColocation) {
        continue;
      }
      if (!reverted(key, active.technique, potential)) return;
      ++revocable;
    }
    revoke[i] = revocable > 0;
  });
  // Apply serially, in corpus order.
  for (std::size_t i = 0; i < stale.size(); ++i) {
    if (revoke[i] == 0) continue;
    const auto& [key, state] = stale[i];
    state->active.clear();
    state->freshness = initial_freshness(key, state->view);
    firing_.erase(key);
    obs::inc(obs_.revocations);
  }
}

std::vector<StalenessSignal> Engine::advance_to(TimePoint t) {
  std::vector<StalenessSignal> out;
  std::int64_t last = clock_.index_of(t) - 1;  // windows fully ended by t
  if (clock_.window_end(last + 1) == t) last += 1;
  while (next_window_ <= last) {
    close_one_window(next_window_, out);
    ++next_window_;
  }
  return out;
}

std::vector<tr::PairKey> Engine::plan_refreshes(int budget) {
  // Candidates are the pairs with firing signals, in pair order.
  std::map<tr::PairKey, RefreshScheduler::PairState> pairs;
  for (const auto& [key, state] : firing_) {
    RefreshScheduler::PairState ps;
    for (const auto& [potential, active] : state->active) {
      ps.firing.push_back(active);
    }
    for (const auto& relation : index_.relations_of(key)) {
      if (!state->active.contains(relation.id)) {
        ps.silent.push_back(relation.id);
      }
    }
    pairs.emplace_hint(pairs.end(), key, std::move(ps));
  }
  return RefreshScheduler::plan(pairs, calibration_, budget, rng_);
}

RefreshOutcome Engine::apply_refresh(const tr::Probe& probe,
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
      for (const auto& relation : index_.relations_of(key)) {
        bool fired = state.active.contains(relation.id);
        bool changed = portion_changed(state.view.processed, new_processed,
                                       relation.border_index);
        Outcome graded =
            fired
                ? (changed ? Outcome::kTruePositive : Outcome::kFalsePositive)
                : (changed ? Outcome::kFalseNegative
                           : Outcome::kTrueNegative);
        calibration_.record(key.probe, relation.id, window, graded);
      }
    }
    // Community reputation: grade the fired community signals.
    for (const auto& [potential, active] : state.active) {
      if (active.technique != Technique::kBgpCommunity) continue;
      bool changed = true;
      for (const auto& relation : index_.relations_of(key)) {
        if (relation.id == potential) {
          changed = portion_changed(state.view.processed, new_processed,
                                    relation.border_index);
          break;
        }
      }
      if (active.community.raw() != 0) {
        reputation_.record_outcome(active.community, key, changed);
      }
    }

    // Unregister the old measurement everywhere.
    BgpMonitors& bgp = *shards_[shard_of(key)];
    bgp.aspath.unwatch(key);
    bgp.community.unwatch(key);
    bgp.burst.unwatch(key);
    subpath_.unwatch(key);
    border_.unwatch(key);
    ixp_.unwatch(key);
    index_.unrelate_pair(key);
    firing_.erase(key);
    corpus_.erase(it);
  }

  // Register the fresh measurement with the processed form graded above.
  // `probe` and `fresh` stay valid through the watch (it only reads them),
  // so no defensive copies.
  watch_processed(probe, fresh, std::move(new_processed));
  obs::inc(obs_.refreshes);
  if (outcome.change != tracemap::ChangeKind::kNone) {
    obs::inc(obs_.refreshes_changed);
  }
  return outcome;
}

tr::Freshness Engine::freshness(const tr::PairKey& pair) const {
  auto it = corpus_.find(pair);
  return it == corpus_.end() ? tr::Freshness::kUnknown
                             : it->second.freshness;
}

std::vector<tr::PairKey> Engine::stale_pairs() const {
  std::vector<tr::PairKey> out;
  for (const auto& [key, state] : corpus_) {
    if (state.freshness == tr::Freshness::kStale) out.push_back(key);
  }
  return out;
}

std::vector<PairStateView> Engine::pair_states() const {
  std::vector<PairStateView> out;
  out.reserve(corpus_.size());
  for (const auto& [key, state] : corpus_) {
    out.push_back(PairStateView{
        key, state.freshness, state.view.window,
        static_cast<std::uint32_t>(state.active.size())});
  }
  return out;
}

const tracemap::ProcessedTrace* Engine::processed_of(
    const tr::PairKey& pair) const {
  auto it = corpus_.find(pair);
  return it == corpus_.end() ? nullptr : &it->second.view.processed;
}

template <class Io, class Self>
void Engine::io(Io& io, Self& self) {
  std::string rng;
  if constexpr (!Io::kLoading) rng = self.rng_.save_state();
  io(rng);
  if constexpr (Io::kLoading) {
    io.check(self.rng_.load_state(rng), "engine RNG state does not parse");
  }
  io(self.table_, self.pending_records_, self.index_, self.calibration_,
     self.reputation_, self.subpath_, self.border_, self.ixp_);
  bool has_health = self.health_ != nullptr;
  io(has_health);
  io.check(has_health == (self.health_ != nullptr),
           "snapshot feed-health state does not match engine configuration");
  if (self.health_ != nullptr) io(*self.health_);
  io.ordered(self.last_fired_, "cooldown potentials");
  io(self.next_window_);
  auto shards = static_cast<std::uint32_t>(self.shards_.size());
  io(shards);
  io.check(shards == self.shards_.size(),
           "snapshot shard count does not match engine configuration");
  if constexpr (Io::kLoading) self.firing_.clear();
  io.ordered(self.corpus_, "corpus pairs");
  for (const auto& shard : self.shards_) {
    io(shard->aspath, shard->community, shard->burst);
  }
  if constexpr (Io::kLoading) {
    for (auto& [key, state] : self.corpus_) {
      state.view.key = key;
      if (!state.active.empty()) self.firing_.try_emplace(key, &state);
    }
  }
}

void Engine::save_state(store::Encoder& enc) const { io(enc, *this); }

void Engine::load_state(store::Decoder& dec) { io(dec, *this); }

CommunityMonitor::Stats Engine::community_stats() const {
  CommunityMonitor::Stats total;
  for (const auto& shard : shards_) {
    const CommunityMonitor::Stats& s = shard->community.stats();
    total.records += s.records;
    total.diffs += s.diffs;
    total.no_prev_overlap += s.no_prev_overlap;
    total.no_new_overlap += s.no_new_overlap;
    total.path_rule += s.path_rule;
    total.known_elsewhere += s.known_elsewhere;
    total.pruned += s.pruned;
    total.fired += s.fired;
  }
  return total;
}

}  // namespace rrr::signals
