#include "signals/monitor.h"

#include <algorithm>
#include <stdexcept>

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
  techniques_.push_back(technique);
  obs::inc(opened_[technique_index(technique)]);
  return static_cast<PotentialId>(techniques_.size());
}

Technique PotentialIndex::technique_of(PotentialId id) const {
  if (id == kNoPotential || id > techniques_.size()) {
    throw std::out_of_range("unknown potential id");
  }
  return techniques_[id - 1];
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

void PotentialIndex::load_state(store::Decoder& dec) {
  techniques_.clear();
  by_pair_.clear();
  std::uint64_t count = dec.count(1);
  techniques_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    techniques_.push_back(get_technique(dec));
  }
  auto corrupt = [](const char* what) {
    return store::StoreError(store::StoreError::Kind::kCorrupt, what);
  };
  std::uint64_t pair_count = dec.u64();
  for (std::uint64_t i = 0; i < pair_count; ++i) {
    tr::PairKey pair = get_pair(dec);
    if (!by_pair_.empty() && !(by_pair_.rbegin()->first < pair)) {
      throw corrupt("potential-index pairs repeated or out of order");
    }
    std::vector<Relation>& relations =
        by_pair_.emplace_hint(by_pair_.end(), pair, std::vector<Relation>{})
            ->second;
    std::uint64_t relation_count = dec.count(8 + 8);
    relations.reserve(relation_count);
    for (std::uint64_t j = 0; j < relation_count; ++j) {
      Relation relation;
      relation.id = dec.u64();
      relation.border_index = dec.u64();
      if (relation.id == kNoPotential || relation.id > techniques_.size()) {
        throw corrupt("potential-index relation names no potential");
      }
      if (std::find(relations.begin(), relations.end(), relation) !=
          relations.end()) {
        throw corrupt("potential-index relation repeated within its pair");
      }
      relations.push_back(relation);
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
