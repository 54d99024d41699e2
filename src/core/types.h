// Shared types of the DYRS migration control plane.
//
// These are backend-agnostic: the simulated master (src/dyrs) and the
// real-threaded master (src/rt) drive the same control-plane core
// (src/core) over the same pending/bound vocabulary.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace dyrs::core {

/// How a job's reference on a migrated block is dropped (paper §III-C3):
/// explicitly via an evict command (typically at job completion), or
/// implicitly as soon as the job has read the block.
enum class EvictionMode { Explicit, Implicit };

/// A block waiting at the master to be bound to a slave.
struct PendingMigration {
  BlockId block;
  Bytes size = 0;
  /// Jobs that requested this block, with their eviction mode.
  std::map<JobId, EvictionMode> jobs;
  /// Disk replica holders (raw placement; availability checked at use).
  std::vector<NodeId> replicas;
  /// Replica holders this block must not be targeted at again: nodes whose
  /// slave exhausted its retry budget on the block (persistent I/O errors).
  std::vector<NodeId> avoid;
  /// Node Algorithm 1 currently expects to finish this block soonest.
  NodeId target = NodeId::invalid();
  SimTime requested_at = 0;
};

/// A migration bound to a specific slave.
struct BoundMigration {
  BlockId block;
  Bytes size = 0;
  std::map<JobId, EvictionMode> jobs;
  /// Disk replica holders, carried from the pending entry so a requeue can
  /// re-target without consulting a namenode (the rt backend has none).
  std::vector<NodeId> replicas;
  /// Enqueue time of the pending entry this binding consumed, for
  /// pending-wait accounting.
  SimTime requested_at = 0;
  SimTime bound_at = 0;
  /// Migration attempts consumed on the bound slave (transient I/O errors
  /// retried with capped exponential backoff).
  int attempts = 0;
  /// Replica holders that already exhausted a retry budget on this block,
  /// carried through binding so a requeue accumulates failures instead of
  /// ping-ponging between two bad replicas.
  std::vector<NodeId> avoid;
};

/// Adds `node` to `avoid` unless already present (avoid lists are small
/// ordered vectors; order records failure history).
inline void merge_avoid(std::vector<NodeId>& avoid, NodeId node) {
  if (std::find(avoid.begin(), avoid.end(), node) == avoid.end()) avoid.push_back(node);
}

inline void merge_avoid(std::vector<NodeId>& avoid, const std::vector<NodeId>& add) {
  for (NodeId n : add) merge_avoid(avoid, n);
}

/// A slave's completion report to its master (one per finished migration).
struct MigrationRecord {
  BlockId block;
  NodeId node;
  Bytes size = 0;
  SimTime started_at = 0;
  SimTime finished_at = 0;
};

/// Why a migration never completed (on the node it was bound to — the
/// master may still re-queue and re-target it at another replica).
enum class CancelReason { MissedRead, SlaveCrash, Superseded, IoError, HeartbeatLoss };

inline const char* to_string(CancelReason reason) {
  switch (reason) {
    case CancelReason::MissedRead: return "missed-read";
    case CancelReason::SlaveCrash: return "slave-crash";
    case CancelReason::Superseded: return "superseded";
    case CancelReason::IoError: return "io-error";
    case CancelReason::HeartbeatLoss: return "heartbeat-loss";
  }
  return "?";
}

struct CancelRecord {
  BlockId block;
  NodeId node = NodeId::invalid();  // invalid if cancelled while pending
  CancelReason reason = CancelReason::MissedRead;
  SimTime at = 0;
};

}  // namespace dyrs::core
