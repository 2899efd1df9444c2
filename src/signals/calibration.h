// §4.3.1 — signal calibration and refresh scheduling.
//
// Every remeasurement grades the potential signals related to the old
// traceroute: fired-and-changed (TP), fired-and-unchanged (FP),
// silent-and-unchanged (TN), silent-and-changed (FN). Tallies slide over
// the last l=30 signal-generation windows and yield per-(VP, signal)
// TPR/TNR, which drive which vantage point refreshes next and with what
// probability. Until tallies initialize, signals are ordered by the Table 1
// attribute priority list.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "netbase/rng.h"
#include "signals/signal.h"
#include "store/serial.h"

namespace rrr::signals {

enum class Outcome : std::uint8_t {
  kTruePositive,
  kFalsePositive,
  kTrueNegative,
  kFalseNegative,
};
inline Outcome enum_last(Outcome) { return Outcome::kFalseNegative; }

class Calibration {
 public:
  // The sliding tally horizon l, in generation windows (§4.3.1).
  static constexpr std::int64_t kSlidingWindows = 30;

  void record(tr::ProbeId vp, PotentialId signal, std::int64_t window,
              Outcome outcome);

  // TPR = TP / (TP + FN); nullopt while uninitialized (too little history).
  std::optional<double> tpr(tr::ProbeId vp, PotentialId signal) const;
  // TNR = TN / (TN + FP).
  std::optional<double> tnr(tr::ProbeId vp, PotentialId signal) const;

  // Fingerprint of the full calibration state (every (VP, signal) tally and
  // its outcome sequence). Two engines with equal digests grade refreshes
  // identically; determinism tests compare serial vs. parallel runs by it.
  std::uint64_t digest() const;

  // Checkpoint support: round-trips every tally's outcome deque and window
  // bounds. The section lists each (VP, potential) key once, in ascending
  // order, with outcome bytes 0-3; load_state rejects anything else as
  // kCorrupt, so a loaded state re-saves the bytes it read. A load that
  // throws leaves the tallies as they were.
  void save_state(store::Encoder& enc) const { io(enc, *this); }
  void load_state(store::Decoder& dec) {
    Calibration loaded;
    io(dec, loaded);
    *this = std::move(loaded);
  }

 private:
  struct Tally {
    std::deque<std::pair<std::int64_t, Outcome>> events;
    std::int64_t first_window = -1;
    std::int64_t last_window = -1;

    template <class Io, class Self>
    static void io(Io& io, Self& tally) {
      io(tally.events, tally.first_window, tally.last_window);
    }
  };
  struct Counts {
    int tp = 0, fp = 0, tn = 0, fn = 0;
  };
  Counts counts_of(const Tally& tally) const;
  const Tally* find(tr::ProbeId vp, PotentialId signal) const;

  std::map<std::pair<tr::ProbeId, PotentialId>, Tally> tallies_;

  template <class Io, class Self>
  static void io(Io& io, Self& self) {
    io.ordered(self.tallies_, "calibration keys");
  }
};

// A signal currently indicating that its pair is stale.
struct ActiveSignal {
  PotentialId potential = kNoPotential;
  Technique technique = Technique::kBgpAsPath;
  SignalMeta meta;
  tr::PairKey pair;
  Community community{};  // set for community signals (Appendix B)
};

// Table 1: lexicographic priority with the in-attribute VP-count /
// deviation tie-break. Returns true when `a` outranks `b`.
bool bootstrap_priority_less(const ActiveSignal& a, const ActiveSignal& b);

// Chooses which pairs to refresh this round (§4.3.1 steps 1-5).
class RefreshScheduler {
 public:
  // `related`: for each pair, all related potentials and whether each is
  // currently firing. Returns at most `budget` distinct pairs.
  struct PairState {
    std::vector<ActiveSignal> firing;
    std::vector<PotentialId> silent;
  };
  static std::vector<tr::PairKey> plan(
      const std::map<tr::PairKey, PairState>& pairs,
      const Calibration& calibration, int budget, Rng& rng);
};

}  // namespace rrr::signals
