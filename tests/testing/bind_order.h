// Per-node bind order, read back from a lifecycle trace's `mig_bind` events.
#pragma once

#include <algorithm>
#include <map>
#include <vector>

#include "common/ids.h"
#include "obs/trace.h"

namespace dyrs::testing {

using BindOrder = std::map<NodeId, std::vector<BlockId>>;

/// Each node's bound blocks, in bind order. A sim trace carries no `tseq`
/// and is already in emission order, which the stable sort keeps. A merged
/// rt trace is grouped by block, so its binds are put back in master-lane
/// `tseq` order: the rt master binds only under its mutex, so that order is
/// bind order.
inline BindOrder bind_order(const std::vector<obs::TraceEvent>& events) {
  std::vector<const obs::TraceEvent*> binds;
  for (const obs::TraceEvent& e : events) {
    if (e.type == "mig_bind") binds.push_back(&e);
  }
  std::stable_sort(binds.begin(), binds.end(),
                   [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
                     return a->i64("tseq", 0) < b->i64("tseq", 0);
                   });
  BindOrder order;
  for (const obs::TraceEvent* e : binds) {
    order[NodeId(e->i64("node"))].push_back(BlockId(e->i64("block")));
  }
  return order;
}

}  // namespace dyrs::testing
