#include "serve/snapshot.h"

#include <algorithm>

namespace rrr::serve {

const PairVerdict* ServingSnapshot::find(const tr::PairKey& pair) const {
  auto it = std::lower_bound(
      pairs.begin(), pairs.end(), pair,
      [](const PairVerdict& v, const tr::PairKey& key) { return v.pair < key; });
  if (it == pairs.end() || it->pair != pair) return nullptr;
  return &*it;
}

SnapshotPublisher::SnapshotPublisher()
    : current_(std::make_shared<const ServingSnapshot>()) {}

void SnapshotPublisher::publish(SnapshotPtr snapshot) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_.swap(snapshot);
  }
  // `snapshot` now holds the previous one; dropping it here, outside the
  // lock, keeps a last-reference teardown off the readers' critical path.
}

SnapshotPtr SnapshotPublisher::read() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

const char* freshness_label(tr::Freshness freshness) {
  switch (freshness) {
    case tr::Freshness::kFresh: return "fresh";
    case tr::Freshness::kStale: return "stale";
    case tr::Freshness::kUnknown: return "unknown";
  }
  return "?";
}

}  // namespace rrr::serve
