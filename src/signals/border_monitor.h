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
  // router and its series), then the touched list. A load accepts only
  // what a save writes: city pairs strictly ascending and each router once
  // per pair, else kCorrupt.
  void save_state(store::Encoder& enc) const { io(enc, *this); }
  void load_state(store::Decoder& dec) { io(dec, *this); }

 private:
  // ⟨AS_m, c_m⟩ -> ⟨AS_n, c_n⟩.
  struct CityPairKey {
    Asn as_m;
    topo::CityId c_m = topo::kNoCity;
    Asn as_n;
    topo::CityId c_n = topo::kNoCity;
    auto operator<=>(const CityPairKey&) const = default;

    template <class Io, class Self>
    static void io(Io& io, Self& key) {
      io(key.as_m, key.c_m, key.as_n, key.c_n);
    }
  };
  struct RouterSeries : Series {
    using Series::Series;
    tracemap::RouterKey router;
  };

  static std::optional<CityPairKey> key_of(const tracemap::BorderView& b);

  std::deque<RouterSeries> routers_;  // storage; entries_ points into it
  std::map<CityPairKey, std::vector<RouterSeries*>> entries_;

  // Re-registers loaded series; a router twice under one city pair is
  // kCorrupt.
  void register_loaded();

  template <class Io, class Self>
  static void io(Io& io, Self& self) {
    if constexpr (Io::kLoading) self.routers_.clear();
    // A router series holds at least its id and its router.
    auto routers = [&self](auto& io, auto& list) {
      io.each(list, 8 + 8, [&self]<class I>(I& io, auto& series) {
        if constexpr (I::kLoading) {
          series = &self.routers_.emplace_back(self.zscore());
        }
        io(series->id, series->router);
        Series::io(io, *series);
      });
    };
    io.ordered(self.entries_, "border city pairs", routers);
    if constexpr (Io::kLoading) self.register_loaded();
    index_io(io, self);
  }
};

}  // namespace rrr::signals
