// §4.2.2 — staleness signals from router-level border usage between
// ⟨AS, city⟩ pairs.
//
// When IP-level subpaths are too noisy, routing decisions are still
// consistent at PoP granularity: if public traceroutes between ⟨AS_m, c_m⟩
// and ⟨AS_n, c_n⟩ consistently cross border router r and later consistently
// cross r', the ASes changed routing policy (Figure 5). The monitor keeps,
// per city pair, one adaptive ratio series per border router that corpus
// traceroutes use, fed by public traceroutes crossing the same city pair.
#pragma once

#include <deque>
#include <map>
#include <optional>

#include "signals/trace_series_monitor.h"
#include "tracemap/alias.h"

namespace rrr::signals {

class BorderMonitor final : public TraceSeriesMonitor {
 public:
  explicit BorderMonitor(bool drop_outliers_from_history = true)
      : TraceSeriesMonitor(Technique::kTraceBorder,
                           drop_outliers_from_history) {}

  void watch(const CorpusView& view, PotentialIndex& index);
  void on_public_trace(const tracemap::ProcessedTrace& trace,
                       std::int64_t window);

  // Checkpoint support: city pairs in key order, each followed by its
  // router series in the order they were opened (each as its id, its
  // router and its series), then the series index. A load accepts only
  // what a save writes: city pairs strictly ascending and each router once
  // per pair, else kCorrupt.
  void save_state(store::Encoder& enc) const;
  void load_state(store::Decoder& dec);

 private:
  // ⟨AS_m, c_m⟩ -> ⟨AS_n, c_n⟩.
  struct CityPairKey {
    Asn as_m;
    topo::CityId c_m = topo::kNoCity;
    Asn as_n;
    topo::CityId c_n = topo::kNoCity;
    auto operator<=>(const CityPairKey&) const = default;
  };
  struct RouterSeries : Series {
    using Series::Series;
    tracemap::RouterKey router;
  };

  static std::optional<CityPairKey> key_of(const tracemap::BorderView& b);

  std::deque<RouterSeries> routers_;  // storage; entries_ points into it
  std::map<CityPairKey, std::vector<RouterSeries*>> entries_;
};

}  // namespace rrr::signals
