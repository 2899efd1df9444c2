// Corpus-refresh strategies compared in §5.3: periodic round-robin
// traceroutes, Sibyl's corpus patching, and DTRACK's predictive
// change-detection probing.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "baselines/oracle.h"
#include "netbase/rng.h"

namespace rrr::baselines {

// Shared per-path state: the last measured border path and the set of
// ground-truth-distinct states already credited as detected.
class CorpusTracker {
 public:
  CorpusTracker(const PathOracle& oracle, TimePoint t0);

  // Remeasures `path` at `t`: updates stored state; returns whether the
  // measurement revealed a change relative to the stored state.
  bool remeasure(std::size_t path, TimePoint t);

  const std::vector<std::uint64_t>& stored(std::size_t path) const {
    return stored_[path];
  }
  void overwrite(std::size_t path, std::vector<std::uint64_t> tokens,
                 TimePoint t) {
    stored_[path] = std::move(tokens);
    notify(path, t);
  }
  const PathOracle& oracle() const { return oracle_; }

  // Observer invoked whenever a strategy captures a change on a path
  // (measured or patched); the evaluation harness matches these against the
  // ground-truth change log.
  using ChangeCallback = std::function<void(std::size_t path, TimePoint t)>;
  void set_on_change(ChangeCallback callback) {
    on_change_ = std::move(callback);
  }

 private:
  void notify(std::size_t path, TimePoint t) {
    if (on_change_) on_change_(path, t);
  }

  const PathOracle& oracle_;
  std::vector<std::vector<std::uint64_t>> stored_;
  ChangeCallback on_change_;
};

// Periodic round-robin refresh (Ark / Atlas built-in campaign style).
class RoundRobinStrategy {
 public:
  RoundRobinStrategy(CorpusTracker& tracker, const ProbeBudget& budget)
      : tracker_(tracker), budget_(budget) {}

  // Advances to `now`, spending the accumulated budget on the next paths in
  // cyclic order.
  void advance(TimePoint now, EmulationStats& stats);

 private:
  CorpusTracker& tracker_;
  ProbeBudget budget_;
  double credit_ = 0.0;
  TimePoint last_{};
  bool started_ = false;
  std::size_t cursor_ = 0;
};

// Sibyl's patching (§5.3): round-robin measurements, but every observed
// change patches the other corpus paths that share the changed subpath. The
// emulation is optimistic, as in the paper: a patch is only applied when it
// matches ground truth, and wrong patches are not penalized.
class SibylStrategy {
 public:
  SibylStrategy(CorpusTracker& tracker, const ProbeBudget& budget)
      : tracker_(tracker), budget_(budget) {}

  void advance(TimePoint now, EmulationStats& stats);

 private:
  void patch_others(std::size_t measured,
                    const std::vector<std::uint64_t>& old_tokens,
                    TimePoint now, EmulationStats& stats);

  CorpusTracker& tracker_;
  ProbeBudget budget_;
  double credit_ = 0.0;
  TimePoint last_{};
  bool started_ = false;
  std::size_t cursor_ = 0;
};

// DTRACK (Cunha et al., SIGCOMM 2011): predicts per-path change likelihood
// (rate estimated from observed changes, NM-style) and allocates
// single-packet TTL probes proportionally; a probe revealing a divergent
// hop triggers a full remap traceroute.
class DtrackStrategy {
 public:
  DtrackStrategy(CorpusTracker& tracker, const ProbeBudget& budget,
                 std::uint64_t seed);

  void advance(TimePoint now, EmulationStats& stats);

  double change_rate(std::size_t path) const;

 private:
  void remap(std::size_t path, TimePoint now, EmulationStats& stats);

  CorpusTracker& tracker_;
  ProbeBudget budget_;
  Rng rng_;
  double credit_ = 0.0;
  TimePoint last_{};
  bool started_ = false;
  std::vector<int> observed_changes_;
  std::vector<TimePoint> monitored_since_;
};

}  // namespace rrr::baselines
