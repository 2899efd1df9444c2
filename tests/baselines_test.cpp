// Tests for the baseline strategies (§5.3) and iPlane splicing (Appendix D).
#include <gtest/gtest.h>

#include "baselines/iplane.h"
#include "baselines/strategies.h"

namespace rrr::baselines {
namespace {

// A scripted oracle: per-path border tokens change at scheduled times.
class ScriptedOracle final : public PathOracle {
 public:
  explicit ScriptedOracle(std::size_t paths) : states_(paths) {
    for (std::size_t i = 0; i < paths; ++i) {
      states_[i].push_back({TimePoint(0),
                            {100 + i, 200 + i, 300 + i}});
    }
  }

  // After `t`, path `i` has tokens `tokens`.
  void schedule(std::size_t path, TimePoint t,
                std::vector<std::uint64_t> tokens) {
    states_[path].push_back({t, std::move(tokens)});
  }

  std::size_t path_count() const override { return states_.size(); }
  std::vector<std::uint64_t> border_tokens(std::size_t path,
                                           TimePoint t) const override {
    const std::vector<std::uint64_t>* current = nullptr;
    for (const auto& [when, tokens] : states_[path]) {
      if (when <= t) current = &tokens;
    }
    return *current;
  }
  std::uint64_t hop_token(std::size_t path, std::size_t index,
                          TimePoint t) const override {
    auto tokens = border_tokens(path, t);
    return index < tokens.size() ? tokens[index] : 0;
  }

 private:
  std::vector<std::vector<std::pair<TimePoint, std::vector<std::uint64_t>>>>
      states_;
};

TEST(RoundRobin, CyclesAndDetects) {
  ScriptedOracle oracle(4);
  oracle.schedule(2, TimePoint(100), {42});
  CorpusTracker tracker(oracle, TimePoint(0));
  ProbeBudget budget;
  budget.packets_per_second = 1.0;  // 1 traceroute per 15 s
  budget.traceroute_cost = 15;
  RoundRobinStrategy strategy(tracker, budget);
  EmulationStats stats;
  strategy.advance(TimePoint(0), stats);  // establishes the clock
  strategy.advance(TimePoint(150), stats);
  // 150 seconds => 10 traceroutes: 2.5 cycles; path 2 visited.
  EXPECT_EQ(stats.traceroutes, 10);
  EXPECT_EQ(stats.changes_detected, 1);
}

TEST(Sibyl, PatchesSharedSubpathsWithoutMeasuring) {
  ScriptedOracle oracle(3);
  // Paths 0 and 1 share token 500; both change at t=10.
  oracle.schedule(0, TimePoint(0), {500, 1});
  oracle.schedule(1, TimePoint(0), {500, 2});
  CorpusTracker tracker(oracle, TimePoint(0));
  oracle.schedule(0, TimePoint(10), {501, 1});
  oracle.schedule(1, TimePoint(10), {501, 2});
  ProbeBudget budget;
  budget.packets_per_second = 0.1;  // exactly one traceroute per 150 s
  budget.traceroute_cost = 15;
  SibylStrategy strategy(tracker, budget);
  EmulationStats stats;
  strategy.advance(TimePoint(0), stats);
  strategy.advance(TimePoint(150), stats);
  // One measurement (path 0) detects its change AND patches path 1.
  EXPECT_EQ(stats.traceroutes, 1);
  EXPECT_EQ(stats.changes_detected, 2);
  EXPECT_EQ(tracker.stored(1), oracle.border_tokens(1, TimePoint(150)));
}

TEST(Dtrack, DetectionProbesTriggerRemaps) {
  ScriptedOracle oracle(2);
  CorpusTracker tracker(oracle, TimePoint(0));
  oracle.schedule(0, TimePoint(10), {7, 8, 9});
  ProbeBudget budget;
  budget.packets_per_second = 2.0;
  budget.traceroute_cost = 15;
  budget.detection_cost = 1;
  DtrackStrategy strategy(tracker, budget, 1);
  EmulationStats stats;
  strategy.advance(TimePoint(0), stats);
  strategy.advance(TimePoint(600), stats);
  EXPECT_GT(stats.detection_probes, 100);
  EXPECT_GE(stats.changes_detected, 1);
  EXPECT_EQ(tracker.stored(0), oracle.border_tokens(0, TimePoint(600)));
  // The detected path's estimated change rate must now exceed the other's.
  EXPECT_GT(strategy.change_rate(0), strategy.change_rate(1));
}

TEST(CorpusTracker, ChangeCallbackFires) {
  ScriptedOracle oracle(1);
  oracle.schedule(0, TimePoint(5), {1});
  CorpusTracker tracker(oracle, TimePoint(0));
  int callbacks = 0;
  tracker.set_on_change([&](std::size_t path, TimePoint t) {
    EXPECT_EQ(path, 0u);
    EXPECT_EQ(t, TimePoint(60));
    ++callbacks;
  });
  EXPECT_FALSE(tracker.remeasure(0, TimePoint(2)));
  EXPECT_TRUE(tracker.remeasure(0, TimePoint(60)));
  EXPECT_FALSE(tracker.remeasure(0, TimePoint(61)));  // already synced
  EXPECT_EQ(callbacks, 1);
}

tracemap::ProcessedTrace trace_through(std::vector<std::pair<int, int>>
                                           as_city_hops) {
  tracemap::ProcessedTrace trace;
  for (auto [asn, city] : as_city_hops) {
    tracemap::ProcessedHop hop;
    hop.ip = Ipv4(static_cast<std::uint32_t>(asn * 1000 + city));
    hop.asn = Asn(static_cast<std::uint32_t>(asn));
    hop.city = static_cast<topo::CityId>(city);
    trace.hops.push_back(hop);
  }
  return trace;
}

TEST(IPlane, SplicesAtSharedPop) {
  IPlane iplane;
  // (probe 1 -> dst A) passes PoP (20, 5); (probe 2 -> dst B) also does.
  tr::PairKey first{1, *Ipv4::parse("10.0.0.1")};
  tr::PairKey second{2, *Ipv4::parse("11.0.0.1")};
  iplane.add(first, trace_through({{10, 1}, {20, 5}, {30, 9}}));
  iplane.add(second, trace_through({{40, 2}, {20, 5}, {50, 3}}));

  // Predict probe 1 -> dst B: splice at (20, 5).
  auto spliced = iplane.predict(1, *Ipv4::parse("11.0.0.1"));
  ASSERT_TRUE(spliced.has_value());
  EXPECT_EQ(spliced->first, first);
  EXPECT_EQ(spliced->second, second);
  EXPECT_EQ(spliced->junction.asn, Asn(20));
  EXPECT_EQ(spliced->junction.city, 5);
}

TEST(IPlane, NoJunctionNoPrediction) {
  IPlane iplane;
  iplane.add({1, *Ipv4::parse("10.0.0.1")},
             trace_through({{10, 1}, {20, 5}}));
  iplane.add({2, *Ipv4::parse("11.0.0.1")},
             trace_through({{40, 2}, {50, 3}}));
  EXPECT_FALSE(iplane.predict(1, *Ipv4::parse("11.0.0.1")).has_value());
}

TEST(IPlane, RemovePrunesStaleTraces) {
  IPlane iplane;
  tr::PairKey first{1, *Ipv4::parse("10.0.0.1")};
  tr::PairKey second{2, *Ipv4::parse("11.0.0.1")};
  iplane.add(first, trace_through({{10, 1}, {20, 5}}));
  iplane.add(second, trace_through({{40, 2}, {20, 5}}));
  ASSERT_TRUE(iplane.predict(1, *Ipv4::parse("11.0.0.1")).has_value());
  iplane.remove(second);
  EXPECT_FALSE(iplane.predict(1, *Ipv4::parse("11.0.0.1")).has_value());
  EXPECT_EQ(iplane.trace_count(), 1u);
}

TEST(IPlane, UngeolocatedHopsActAsSoloPops) {
  tracemap::ProcessedTrace trace;
  tracemap::ProcessedHop mapped;
  mapped.ip = Ipv4(1);
  mapped.asn = Asn(10);
  mapped.city = 3;
  tracemap::ProcessedHop unmapped;
  unmapped.ip = Ipv4(2);  // no ASN/city: keyed by address
  trace.hops = {mapped, unmapped};
  auto pops = IPlane::pops_of(trace);
  ASSERT_EQ(pops.size(), 2u);
  EXPECT_EQ(pops[1].solo_ip, 2u);
}

}  // namespace
}  // namespace rrr::baselines
