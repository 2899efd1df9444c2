// Behavioral tests of signals::Engine policies: signal cooldown, freshness
// lifecycle, refresh grading, revocation (§4.3.2), and the refresh planner
// wiring (§4.3.1).
#include <gtest/gtest.h>

#include "eval/world.h"

namespace rrr {
namespace {

eval::WorldParams tiny_params(std::uint64_t seed = 71) {
  eval::WorldParams params;
  params.days = 5;
  params.warmup_days = 1;
  params.corpus_pair_target = 250;
  params.corpus_dest_count = 15;
  params.public_dest_count = 60;
  params.public_traces_per_window = 400;
  params.platform.num_probes = 300;
  params.topology.num_transit = 30;
  params.topology.num_stub = 100;
  params.recalibration_interval_windows = 0;
  params.dynamics = routing::DynamicsParams{};
  params.dynamics.interconnect_flap_per_day = 0;
  params.dynamics.egress_shift_per_day = 0;
  params.dynamics.adjacency_flap_per_day = 0;
  params.dynamics.preferred_link_shift_per_day = 0;
  params.dynamics.te_community_churn_per_day = 0;
  params.dynamics.parrot_update_per_day = 0;
  params.dynamics.ixp_join_per_day = 0;
  params.prober.silent_router_fraction = 0;
  params.prober.intermittent_loss_prob = 0;
  params.prober.unresponsive_destination_prob = 0;
  params.seed = seed;
  return params;
}

class EngineBehavior : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = std::make_unique<eval::World>(tiny_params());
    hooks_.on_signals = [this](std::int64_t, TimePoint,
                               std::vector<signals::StalenessSignal>&& s) {
      for (auto& signal : s) signals_.push_back(std::move(signal));
    };
    world_->run_until(world_->corpus_t0(), hooks_);
    world_->initialize_corpus();
  }

  void inject(routing::Event event) {
    auto impact = world_->control_plane().apply(event);
    for (bgp::BgpRecord& record : world_->feed().on_event(event, impact)) {
      world_->engine().on_bgp_record(record);
    }
    world_->ground_truth().on_impact(event, impact);
  }

  // Finds (pair, crossing, link) on a multihomed link.
  struct Target {
    tr::PairKey pair;
    topo::InterconnectId interconnect;
    topo::LinkId link;
  };
  std::optional<Target> find_target() {
    for (const tr::PairKey& pair : world_->ground_truth().pairs()) {
      const auto& path = world_->ground_truth().current(pair);
      for (const auto& crossing : path.crossings) {
        topo::LinkId link =
            world_->topology().interconnect_at(crossing.interconnect).link;
        if (world_->topology().link_interconnects(link).size() >= 2) {
          return Target{pair, crossing.interconnect, link};
        }
      }
    }
    return std::nullopt;
  }

  std::unique_ptr<eval::World> world_;
  eval::World::Hooks hooks_;
  std::vector<signals::StalenessSignal> signals_;
};

TEST_F(EngineBehavior, RefreshClearsStalenessAndGradesOutcome) {
  world_->run_until(world_->corpus_t0() + kSecondsPerDay, hooks_);
  auto target = find_target();
  ASSERT_TRUE(target.has_value());

  routing::Event down;
  down.kind = routing::EventKind::kInterconnectDown;
  down.time = world_->corpus_t0() + kSecondsPerDay;
  down.interconnect = target->interconnect;
  down.link = target->link;
  inject(down);
  world_->run_until(world_->corpus_t0() + 2 * kSecondsPerDay, hooks_);

  auto stale = world_->engine().stale_pairs();
  ASSERT_FALSE(stale.empty());
  tr::PairKey victim = stale.front();

  TimePoint now = world_->corpus_t0() + 2 * kSecondsPerDay;
  tr::Traceroute fresh = world_->issue_corpus_traceroute(victim, now);
  auto outcome = world_->engine().apply_refresh(
      world_->platform().probe(victim.probe), fresh);
  EXPECT_TRUE(outcome.was_flagged_stale);
  EXPECT_NE(world_->engine().freshness(victim), tr::Freshness::kStale);
  // The pair is re-registered and monitorable again.
  EXPECT_NE(world_->engine().processed_of(victim), nullptr);
}

TEST_F(EngineBehavior, PlannerPrefersFlaggedPairs) {
  world_->run_until(world_->corpus_t0() + kSecondsPerDay, hooks_);
  auto target = find_target();
  ASSERT_TRUE(target.has_value());
  routing::Event down;
  down.kind = routing::EventKind::kInterconnectDown;
  down.time = world_->corpus_t0() + kSecondsPerDay;
  down.interconnect = target->interconnect;
  down.link = target->link;
  inject(down);
  world_->run_until(world_->corpus_t0() + 2 * kSecondsPerDay, hooks_);

  auto stale = world_->engine().stale_pairs();
  ASSERT_FALSE(stale.empty());
  auto planned = world_->engine().plan_refreshes(
      static_cast<int>(stale.size()) + 100);
  ASSERT_FALSE(planned.empty());
  // Everything planned must be currently flagged.
  std::set<tr::PairKey> flagged(stale.begin(), stale.end());
  for (const tr::PairKey& pair : planned) {
    EXPECT_TRUE(flagged.contains(pair));
  }
  // No duplicates.
  std::set<tr::PairKey> unique(planned.begin(), planned.end());
  EXPECT_EQ(unique.size(), planned.size());
}

TEST_F(EngineBehavior, RevocationUnflagsAfterRevert) {
  world_->run_until(world_->corpus_t0() + kSecondsPerDay, hooks_);
  auto target = find_target();
  ASSERT_TRUE(target.has_value());

  TimePoint t_down = world_->corpus_t0() + kSecondsPerDay;
  routing::Event down;
  down.kind = routing::EventKind::kInterconnectDown;
  down.time = t_down;
  down.interconnect = target->interconnect;
  down.link = target->link;
  inject(down);
  world_->run_until(t_down + 6 * kSecondsPerHour, hooks_);
  auto stale_during = world_->engine().stale_pairs();
  ASSERT_FALSE(stale_during.empty());

  routing::Event up;
  up.kind = routing::EventKind::kInterconnectUp;
  up.time = t_down + 6 * kSecondsPerHour;
  up.interconnect = target->interconnect;
  up.link = target->link;
  inject(up);
  world_->run_until(t_down + 30 * kSecondsPerHour, hooks_);

  // §4.3.2: with the route back to its issue-time state, revocation must
  // return at least one of the flagged pairs to fresh without any refresh
  // measurement. (The restore itself fires *new* signals for other pairs —
  // a revert is a change — so the overall stale count may well grow.)
  bool any_revoked = false;
  for (const tr::PairKey& pair : stale_during) {
    if (world_->engine().freshness(pair) != tr::Freshness::kStale) {
      any_revoked = true;
      break;
    }
  }
  EXPECT_TRUE(any_revoked) << "no pair was revoked after the revert";
}

TEST_F(EngineBehavior, CooldownLimitsRepeatSignals) {
  world_->run_until(world_->corpus_t0() + kSecondsPerDay, hooks_);
  auto target = find_target();
  ASSERT_TRUE(target.has_value());
  routing::Event down;
  down.kind = routing::EventKind::kInterconnectDown;
  down.time = world_->corpus_t0() + kSecondsPerDay;
  down.interconnect = target->interconnect;
  down.link = target->link;
  inject(down);
  signals_.clear();
  world_->run_until(world_->corpus_t0() + 3 * kSecondsPerDay, hooks_);

  // The change persists for two days: no potential may fire more than a
  // handful of times (cooldown is 8 windows = 2 h).
  std::map<signals::PotentialId, int> per_potential;
  for (const auto& signal : signals_) ++per_potential[signal.potential];
  for (const auto& [potential, count] : per_potential) {
    EXPECT_LE(count, 2 * 24 / 2 + 2) << "potential " << potential;
  }
}

}  // namespace
}  // namespace rrr
