// TierPolicy — control-plane pressure knobs for the migrated-memory buffer.
//
// Migrated blocks are always admitted to memory; this policy decides what
// happens as memory fills. A demoted block falls back to its disk replicas:
// it is evicted and read at disk speed until migrated again. Both backend
// buffer managers evaluate the policy with the same code
// (core::BufferManager), so given the same per-node admission sequence the
// sim and rt backends make identical decisions — the differential test
// asserts it. The defaults are the paper's behaviour: no watermarks, refuse
// admission when full (the slave stalls its queue).
#pragma once

namespace dyrs::core {

struct TierPolicy {
  /// Watermark pair over the buffer's occupancy fraction. When an
  /// admission pushes occupancy to `high_watermark` or beyond, cold blocks
  /// are demoted to disk until occupancy drops below `low_watermark`. 1.0
  /// disables watermark eviction (the hard limit alone governs).
  double high_watermark = 1.0;
  double low_watermark = 1.0;

  /// What to do when an admission does not fit under the hard limit:
  /// demote the coldest resident blocks to make room (EvictColdFirst), or
  /// refuse so the slave stalls its queue until references drain
  /// (RefuseAdmission — the paper's behaviour and the default).
  enum class OnPressure { EvictColdFirst, RefuseAdmission };
  OnPressure on_pressure = OnPressure::RefuseAdmission;

  bool watermarks_enabled() const { return high_watermark < 1.0; }
};

}  // namespace dyrs::core
