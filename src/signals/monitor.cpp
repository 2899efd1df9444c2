#include "signals/monitor.h"

#include <algorithm>

namespace rrr::signals {

const char* to_string(Technique technique) {
  switch (technique) {
    case Technique::kBgpAsPath:
      return "BGP AS-paths";
    case Technique::kBgpCommunity:
      return "BGP communities";
    case Technique::kBgpBurst:
      return "BGP update bursts";
    case Technique::kColocation:
      return "Colocation changes";
    case Technique::kTraceSubpath:
      return "Traceroute subpaths";
    case Technique::kTraceBorder:
      return "Traceroute borders";
  }
  return "?";
}

std::string StalenessSignal::to_string() const {
  std::string out = "[";
  out += signals::to_string(technique);
  out += "] pair(probe=" + std::to_string(pair.probe) +
         ", dst=" + pair.dst.to_string() + ") window=" +
         std::to_string(window);
  if (border_index != kWholePath) {
    out += " border#" + std::to_string(border_index);
  } else {
    out += " (AS-level)";
  }
  return out;
}

PotentialId PotentialIndex::create(Technique technique) {
  obs::inc(opened_[technique_index(technique)]);
  return ++created_;
}

void PotentialIndex::relate(PotentialId id, const tr::PairKey& pair,
                            std::size_t border_index) {
  auto& relations = by_pair_[pair];
  Relation relation{id, border_index};
  for (const Relation& existing : relations) {
    if (existing == relation) return;
  }
  relations.push_back(relation);
}

void PotentialIndex::unrelate_pair(const tr::PairKey& pair) {
  by_pair_.erase(pair);
}

void PotentialIndex::check_relations() const {
  auto corrupt = [](const char* what) {
    return store::StoreError(store::StoreError::Kind::kCorrupt, what);
  };
  for (const auto& [pair, relations] : by_pair_) {
    for (auto it = relations.begin(); it != relations.end(); ++it) {
      if (it->id == kNoPotential || it->id > created_) {
        throw corrupt("potential-index relation names no potential");
      }
      if (std::find(relations.begin(), it, *it) != it) {
        throw corrupt("potential-index relation repeated within its pair");
      }
    }
  }
}

const std::vector<PotentialIndex::Relation>& PotentialIndex::relations_of(
    const tr::PairKey& pair) const {
  static const std::vector<Relation> kEmpty;
  auto it = by_pair_.find(pair);
  return it == by_pair_.end() ? kEmpty : it->second;
}

}  // namespace rrr::signals
