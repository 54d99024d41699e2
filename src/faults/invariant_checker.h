// Cross-layer invariant checking under fault injection.
//
// The checker inspects master, namenode, datanode and cluster state
// together and reports violations of properties that must hold no matter
// which faults fired:
//
//  1. Registry/buffer agreement — every in-memory replica the namenode has
//     registered is actually buffered by the slave on that node, and the
//     node's process is alive; conversely (outside the post-failover
//     rebuild window) every buffered block is registered.
//  2. No bound migration targets a dead process (strict: crash cleanup is
//     synchronous), and none targets a node the namenode has declared
//     unavailable for longer than the detection grace window (partition
//     reclamation happens on the next master pulse after detection).
//  3. Buffer accounting — per-node buffered bytes never exceed the buffer
//     limit or node memory, and (migration being the only pinning client in
//     master-based schemes) pinned memory equals buffered bytes.
//  4. A block is never simultaneously pending and bound.
//  5. Every bound migration targets a node holding a disk replica.
//  6. The post-failover `rebuilding` flag clears within one master pulse.
//
// Violations are recorded; the chaos soak asserts the list stays empty.
// Checks run every second and, via FaultInjector::after_event, immediately
// after every fault transition.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "dfs/namenode.h"
#include "dyrs/master.h"
#include "sim/simulator.h"

namespace dyrs::faults {

struct InvariantViolation {
  SimTime at = 0;
  std::string invariant;  // short name, e.g. "bound-target-serving"
  std::string detail;
};

class ClusterInvariantChecker {
 public:
  /// `master` may be null (HDFS / inputs-in-RAM schemes): only the
  /// master-independent invariants are checked then. The grace windows
  /// come from the namenode's and the master's heartbeat intervals.
  ClusterInvariantChecker(sim::Simulator& sim, cluster::Cluster& cluster,
                          dfs::NameNode& namenode, core::MigrationMaster* master);
  ~ClusterInvariantChecker();
  ClusterInvariantChecker(const ClusterInvariantChecker&) = delete;
  ClusterInvariantChecker& operator=(const ClusterInvariantChecker&) = delete;

  /// Runs every invariant once; `context` tags any violations found.
  void check_now(const std::string& context);

  const std::vector<InvariantViolation>& violations() const { return violations_; }
  long checks_run() const { return checks_run_; }

 private:
  void violate(const std::string& invariant, const std::string& detail);

  sim::Simulator& sim_;
  cluster::Cluster& cluster_;
  dfs::NameNode& namenode_;
  core::MigrationMaster* master_;
  /// How long a bound migration may keep targeting a node that stopped
  /// heartbeating: namenode detection (miss limit plus the in-flight
  /// interval) and one master pulse, with a pulse and a second of slack.
  SimDuration detection_grace_ = 0;
  /// How long `rebuilding` may stay set after a master failover: one
  /// master pulse, with a pulse and a second of slack.
  SimDuration rebuild_grace_ = 0;

  // First time a (block, node) binding was seen targeting an unavailable
  // node / first time `rebuilding` was seen set — for the grace windows.
  std::unordered_map<BlockId, SimTime> unreachable_since_;
  SimTime rebuilding_since_ = -1;

  std::string context_;
  std::vector<InvariantViolation> violations_;
  long checks_run_ = 0;
  sim::EventHandle timer_;
};

}  // namespace dyrs::faults
