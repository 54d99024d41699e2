// Slave queue-depth policy shared by both backends (paper §III-B).
//
// A slave's local queue must be deep enough that the disk never idles
// between master pulls, yet shallow enough that binding stays late:
//
//   depth = max(1, ceil(heartbeat interval / unloaded reference-block read time))
//
// Each slave takes it from its master's core::ControlPlaneConfig.
#pragma once

#include <algorithm>
#include <cmath>

#include "common/units.h"

namespace dyrs::core {

struct QueueDepthPolicy {
  /// Added on top of the computed depth, head-room for bursty pulls.
  int extra_depth = 0;

  /// Queue depth for a slave pulled every `heartbeat` whose reference
  /// block takes `block_read_time` to read from an unloaded disk. A slave
  /// always accepts at least one migration.
  int depth_for(SimDuration heartbeat, SimDuration block_read_time) const {
    const int depth =
        block_read_time > 0
            ? static_cast<int>(std::ceil(static_cast<double>(heartbeat) /
                                         static_cast<double>(block_read_time)))
            : 1;
    return std::max(1, depth) + extra_depth;
  }

  /// Depth for a slave that drains (and reads) `drain_batch` migrations per
  /// worker cycle instead of one. The §III-B heuristic still has to cover
  /// the pull cadence, but a batching slave additionally needs room to hold
  /// the *next* batch while the current one's reads retire — otherwise the
  /// disk idles between batched pulls. Two batches of head-room keeps the
  /// token bucket saturated without deepening early binding beyond what the
  /// batch size already implies.
  int depth_for(SimDuration heartbeat, SimDuration block_read_time,
                int drain_batch) const {
    const int base = depth_for(heartbeat, block_read_time);
    if (drain_batch <= 1) return base;
    return std::max(base, 2 * drain_batch);
  }
};

}  // namespace dyrs::core
