#include "signals/engine.h"

#include <algorithm>

#include "bgp/serial.h"
#include "runtime/parallel.h"
#include "runtime/task_group.h"

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

// Every kRevocationCheckWindows windows the shards sweep their corpus for
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
  subpath_.set_pool(pool_.get());
  border_.set_pool(pool_.get());

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
  subpath_.set_obs(obs_.monitors[technique_index(Technique::kTraceSubpath)]);
  border_.set_obs(obs_.monitors[technique_index(Technique::kTraceBorder)]);
  ixp_.set_obs(obs_.monitors[technique_index(Technique::kColocation)]);

  if (params_.feed_health.enabled) {
    health_ = std::make_unique<FeedHealthTracker>(params_.feed_health);
    if (params_.metrics != nullptr) health_->set_metrics(*params_.metrics);
  }
  subpath_.set_feed_health(
      health_.get(),
      obs_.dropped_unhealthy_feed[technique_index(Technique::kTraceSubpath)]);
  border_.set_feed_health(
      health_.get(),
      obs_.dropped_unhealthy_feed[technique_index(Technique::kTraceBorder)]);
  ixp_.set_feed_health(
      health_.get(),
      obs_.dropped_unhealthy_feed[technique_index(Technique::kColocation)]);

  EngineSharedState shared;
  shared.context = &context_;
  shared.pool = pool_.get();
  shared.index = &index_;
  shared.calibration = &calibration_;
  shared.reputation = &reputation_;
  shared.subpath = &subpath_;
  shared.border = &border_;
  shared.ixp = &ixp_;
  shared.obs = &obs_;
  shared.health = health_.get();
  shards_.reserve(static_cast<std::size_t>(params_.shards));
  for (int i = 0; i < params_.shards; ++i) {
    shards_.push_back(
        std::make_unique<EngineShard>(clock_, processing_, shared));
  }
}

std::size_t Engine::shard_of(const tr::PairKey& pair) const {
  std::uint64_t h = hash_combine(static_cast<std::uint64_t>(pair.probe),
                                 static_cast<std::uint64_t>(pair.dst.value()));
  return static_cast<std::size_t>(h % shards_.size());
}

void Engine::watch(const tr::Probe& probe, const tr::Traceroute& trace) {
  tr::PairKey key{trace.probe, trace.dst_ip};
  shards_[shard_of(key)]->watch(probe, trace, table_.row(trace.dst_ip));
}

std::size_t Engine::corpus_size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->corpus_size();
  return total;
}

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
  ixp_.on_public_trace(public_trace_, window);
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
        shards_[i]->dispatch_window_records(dispatched_, window);
        shards_[i]->collect_bgp_close(raw[i], window, end);
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

  // Phase B — the three global trace monitors close concurrently. The
  // subpath and border monitors fan their per-series work out on the same
  // pool; the IXP monitor only stamps its few pending signals.
  std::vector<StalenessSignal> subpath_raw;
  std::vector<StalenessSignal> border_raw;
  std::vector<StalenessSignal> ixp_raw;
  {
    runtime::TaskGroup group(pool_.get());
    group.spawn([&] {
      obs::TraceSpan span(params_.tracer, "close_subpath", "close", window);
      subpath_raw = subpath_.close_window(window, end);
    });
    group.spawn([&] {
      obs::TraceSpan span(params_.tracer, "close_border", "close", window);
      border_raw = border_.close_window(window, end);
    });
    group.spawn([&] {
      obs::TraceSpan span(params_.tracer, "close_ixp", "close", window);
      ixp_raw = ixp_.close_window(window, end);
    });
    group.wait();
  }

  // Merge in canonical order, then register serially: registration owns
  // the global cooldown map and the shards' freshness state.
  std::vector<StalenessSignal> batch;
  {
    obs::ScopedSpan merge_span(obs_.merge_us);
    obs::TraceSpan trace_span(params_.tracer, "merge", "close", window);
    std::size_t total =
        subpath_raw.size() + border_raw.size() + ixp_raw.size();
    for (const auto& buffer : raw) total += buffer.size();
    batch.reserve(total);
    auto append = [&batch](std::vector<StalenessSignal>&& buffer) {
      batch.insert(batch.end(), std::make_move_iterator(buffer.begin()),
                   std::make_move_iterator(buffer.end()));
    };
    for (auto& buffer : raw) append(std::move(buffer));
    append(std::move(subpath_raw));
    append(std::move(border_raw));
    append(std::move(ixp_raw));
    std::sort(batch.begin(), batch.end(), canonical_less);
  }

  {
    obs::ScopedSpan register_span(obs_.register_us);
    obs::TraceSpan trace_span(params_.tracer, "register", "close", window,
                              "signals",
                              static_cast<std::int64_t>(batch.size()));
    out.reserve(out.size() + batch.size());
    for (StalenessSignal& signal : batch) {
      EngineShard& shard = *shards_[shard_of(signal.pair)];
      if (!shard.has_pair(signal.pair)) {
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
      shard.mark_stale(signal);
      out.push_back(std::move(signal));
    }
  }

  if (window % kRevocationCheckWindows == kRevocationCheckWindows - 1) {
    obs::TraceSpan trace_span(params_.tracer, "revocation", "close", window);
    // Each shard sweeps its own corpus; monitors and table are read-only.
    runtime::parallel_for(
        pool_.get(), shards_.size(),
        [&](std::size_t i) { shards_[i]->run_revocation(); },
        /*grain=*/1);
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
  // std::map keeps the merged candidates in pair order, so the scheduler
  // sees the same input whatever the partition.
  std::map<tr::PairKey, RefreshScheduler::PairState> pairs;
  for (const auto& shard : shards_) shard->collect_refresh_candidates(pairs);
  return RefreshScheduler::plan(pairs, calibration_, budget, rng_);
}

RefreshOutcome Engine::apply_refresh(const tr::Probe& probe,
                                     const tr::Traceroute& fresh) {
  tr::PairKey key{fresh.probe, fresh.dst_ip};
  return shards_[shard_of(key)]->apply_refresh(probe, fresh,
                                               table_.row(fresh.dst_ip));
}

tr::Freshness Engine::freshness(const tr::PairKey& pair) const {
  return shards_[shard_of(pair)]->freshness(pair);
}

std::vector<tr::PairKey> Engine::stale_pairs() const {
  std::vector<tr::PairKey> out;
  for (const auto& shard : shards_) {
    std::vector<tr::PairKey> part = shard->stale_pairs();
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<PairStateView> Engine::pair_states() const {
  std::vector<PairStateView> out;
  out.reserve(corpus_size());
  for (const auto& shard : shards_) shard->collect_pair_states(out);
  // Each shard appends in pair order; the merged view re-sorts so the
  // result is partition-invariant.
  std::sort(out.begin(), out.end(),
            [](const PairStateView& a, const PairStateView& b) {
              return a.pair < b.pair;
            });
  return out;
}

const tracemap::ProcessedTrace* Engine::processed_of(
    const tr::PairKey& pair) const {
  return shards_[shard_of(pair)]->processed_of(pair);
}

void Engine::save_state(store::Encoder& enc) const {
  enc.str(rng_.save_state());
  table_.save_state(enc);
  enc.u64(pending_records_.size());
  for (const bgp::BgpRecord& record : pending_records_) {
    bgp::put_record(enc, record);
  }
  index_.save_state(enc);
  calibration_.save_state(enc);
  reputation_.save_state(enc);
  subpath_.save_state(enc);
  border_.save_state(enc);
  ixp_.save_state(enc);
  enc.boolean(health_ != nullptr);
  if (health_ != nullptr) health_->save_state(enc);
  enc.u64(last_fired_.size());
  for (const auto& [potential, window] : last_fired_) {
    enc.u64(potential);
    enc.i64(window);
  }
  enc.i64(next_window_);
  enc.u32(static_cast<std::uint32_t>(shards_.size()));
  for (const auto& shard : shards_) shard->save_state(enc);
}

void Engine::load_state(store::Decoder& dec) {
  if (!rng_.load_state(std::string(dec.str()))) {
    throw store::StoreError(store::StoreError::Kind::kCorrupt,
                            "engine RNG state does not parse");
  }
  table_.load_state(dec);
  pending_records_.clear();
  // A record takes at least 50 bytes.
  std::uint64_t record_count = dec.count(50);
  pending_records_.reserve(record_count);
  for (std::uint64_t i = 0; i < record_count; ++i) {
    pending_records_.push_back(bgp::get_record(dec));
  }
  index_.load_state(dec);
  calibration_.load_state(dec);
  reputation_.load_state(dec);
  subpath_.load_state(dec);
  border_.load_state(dec);
  ixp_.load_state(dec, &index_);
  bool has_health = dec.boolean();
  if (has_health != (health_ != nullptr)) {
    throw store::StoreError(
        store::StoreError::Kind::kCorrupt,
        "snapshot feed-health state does not match engine configuration");
  }
  if (health_ != nullptr) health_->load_state(dec);
  last_fired_.clear();
  std::uint64_t fired_count = dec.u64();
  for (std::uint64_t i = 0; i < fired_count; ++i) {
    PotentialId potential = dec.u64();
    last_fired_[potential] = dec.i64();
  }
  next_window_ = dec.i64();
  std::uint32_t shard_count = dec.u32();
  if (shard_count != shards_.size()) {
    throw store::StoreError(
        store::StoreError::Kind::kCorrupt,
        "snapshot shard count does not match engine configuration");
  }
  for (auto& shard : shards_) shard->load_state(dec);
}

CommunityMonitor::Stats Engine::community_stats() const {
  CommunityMonitor::Stats total;
  for (const auto& shard : shards_) {
    const CommunityMonitor::Stats& s = shard->community_monitor().stats();
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
