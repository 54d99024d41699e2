// TierPolicy — control-plane pressure knobs for the storage tier hierarchy
// (disk -> SSD -> memory).
//
// Migrated blocks are always admitted to memory; this policy decides what
// happens as memory fills. Both backend buffer managers evaluate it with
// the same code (core::BufferManager), so given the same per-node
// admission sequence the sim and rt backends make identical tier
// decisions — the differential test asserts it. The defaults reproduce the
// pre-tier behaviour exactly: no watermarks, refuse admission when full
// (the slave stalls its queue), so default-configured runs stay
// byte-stable.
#pragma once

namespace dyrs::core {

struct TierPolicy {
  /// Watermark pair over the memory-tier occupancy fraction. When an
  /// admission pushes occupancy to `high_watermark` or beyond, cold blocks
  /// are demoted (memory -> SSD, overflowing SSD -> disk) until occupancy
  /// drops below `low_watermark`. 1.0 disables watermark eviction (the
  /// hard limit alone governs, as before tiering).
  double high_watermark = 1.0;
  double low_watermark = 1.0;

  /// What to do when an admission does not fit under the hard limit:
  /// demote the coldest resident blocks to make room (EvictColdFirst), or
  /// refuse so the slave stalls its queue until references drain
  /// (RefuseAdmission — the pre-tier behaviour and the default).
  enum class OnPressure { EvictColdFirst, RefuseAdmission };
  OnPressure on_pressure = OnPressure::RefuseAdmission;

  bool watermarks_enabled() const { return high_watermark < 1.0; }
};

}  // namespace dyrs::core
