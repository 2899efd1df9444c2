// Shared state the BGP-based monitors read: the standing per-VP table view
// and the vantage points.
//
// Reader role: everything reached through this struct is *read-only* during
// the parallel phases of a window close. `table` points at the engine's
// VpTableView, which holds the start-of-window state while the shards' BGP
// monitors close on the pool; the engine absorbs the window's records only
// after every shard is joined, so a monitor never sees the table change
// under it mid-close.
#pragma once

#include <vector>

#include "bgp/record.h"
#include "bgp/table_view.h"

namespace rrr::signals {

struct BgpContext {
  const bgp::VpTableView* table = nullptr;
  const std::vector<bgp::VantagePoint>* vps = nullptr;
};

}  // namespace rrr::signals
