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
  /// Queue depth for a slave pulled every `heartbeat` whose reference
  /// block takes `block_read_time` to read from an unloaded disk. A slave
  /// always accepts at least one migration.
  int depth_for(SimDuration heartbeat, SimDuration block_read_time) const {
    const int depth =
        block_read_time > 0
            ? static_cast<int>(std::ceil(static_cast<double>(heartbeat) /
                                         static_cast<double>(block_read_time)))
            : 1;
    return std::max(1, depth);
  }

  /// The same §III-B depth: the rt slave drains its whole queue per cycle,
  /// so no batch size widens it. Kept only because perfbench calls this
  /// spelling; the next benchmark change deletes it.
  int depth_for(SimDuration heartbeat, SimDuration block_read_time,
                int /*drain_batch*/) const {
    return depth_for(heartbeat, block_read_time);
  }
};

}  // namespace dyrs::core
