// Storage tiers a block's data can be read from: its disk replicas, and
// the pinned-memory buffer DYRS migrates cold input into.
//
// Shared vocabulary for the buffer manager's tier-decision log and the
// `mig_demote` lifecycle events, which both name tiers with this enum.
// Ordered so that a numerically lower tier is colder (slower, larger).
#pragma once

namespace dyrs {

enum class Tier { Disk = 0, Memory = 1 };

inline const char* to_string(Tier t) {
  switch (t) {
    case Tier::Disk: return "disk";
    case Tier::Memory: return "memory";
  }
  return "?";
}

}  // namespace dyrs
