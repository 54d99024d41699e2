// FailureDetection — failure-detector cadence knobs of ControlPlaneConfig.
//
// The rt master's heartbeat monitor applies these timeouts directly
// (Alive -> Suspect -> Dead over heartbeat age). The sim backend's
// equivalent windows live in the dfs heartbeat/liveness machinery, so the
// sim master rejects `enabled`.
#pragma once

#include <chrono>

namespace dyrs::core {

struct FailureDetection {
  bool enabled = false;
  /// How often the monitor thread samples heartbeat ages.
  std::chrono::milliseconds monitor_interval{5};
  /// Heartbeat age past which a node is Suspect — still eligible for
  /// binding (the grace period for a slow disk slice).
  std::chrono::milliseconds suspect_after{500};
  /// Heartbeat age past which a node is declared Dead: bound work is
  /// reclaimed and the node leaves the targeting set until it beats again.
  std::chrono::milliseconds declare_dead_after{1500};
};

}  // namespace dyrs::core
