// The traceroute corpus: the atlas of measurements a system maintains and
// wants to keep fresh (the paper's §3 "corpus of traceroutes").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "traceroute/traceroute.h"

namespace rrr::tr {

// Identifies a monitored (source probe, destination) pair.
struct PairKey {
  ProbeId probe = kNoProbe;
  Ipv4 dst;
  auto operator<=>(const PairKey&) const = default;
};

enum class Freshness : std::uint8_t {
  kFresh,    // no staleness signal since measurement; fully monitored
  kStale,    // at least one staleness prediction signal fired
  kUnknown,  // monitoring cannot see every border of this traceroute
};

struct CorpusEntry {
  PairKey key;
  Traceroute trace;           // latest measurement
  Freshness freshness = Freshness::kFresh;
  TimePoint measured;         // when `trace` was taken
  std::uint32_t refresh_count = 0;
};

class Corpus {
 public:
  // Inserts or replaces the entry for the traceroute's (probe, dst) pair;
  // replacement resets freshness and bumps the refresh counter.
  CorpusEntry& upsert(Traceroute trace);

  CorpusEntry* find(const PairKey& key);
  const CorpusEntry* find(const PairKey& key) const;

  void set_freshness(const PairKey& key, Freshness freshness);

  std::size_t size() const { return entries_.size(); }

  template <typename Visitor>
  void for_each(Visitor&& visit) const {
    for (const auto& [key, entry] : entries_) visit(entry);
  }

  std::vector<PairKey> keys() const;

 private:
  std::map<PairKey, CorpusEntry> entries_;
};

}  // namespace rrr::tr
