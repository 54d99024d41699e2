// Executes a FaultPlan against a live cluster on the simulator clock.
//
// The injector owns the mechanics of each fault kind:
//  * ProcessCrash    — DataNode::crash_process() now, restart_process() at
//                      `until`. The DYRS slave's crash hook fires, buffers
//                      die, the master re-queues lost migrations.
//  * ServerDeath     — Node::set_alive(false) plus a process crash (the
//                      daemon dies with the machine); both restored at
//                      `until`. On-disk replicas survive.
//  * Partition       — DataNode::set_partitioned(true): the heartbeat
//                      driver stops reporting the node, the namenode
//                      declares it dead after its miss limit, and the
//                      migration master reclaims work bound there. Local
//                      state survives and the partition heals at `until`.
//  * IoErrors        — in [at, until) each migration read on the node fails
//                      with probability `rate` (rolled on the injector's
//                      own seeded Rng); the slave retries with capped
//                      exponential backoff and eventually reports a
//                      permanent failure to the master.
//  * DiskDegradation — Disk::set_degradation(factor) for the window;
//                      overlapping windows multiply.
//
// The record of each applied transition is its `fault` trace event; two
// runs with the same plan and seed yield identical traces (the chaos soak
// asserts this). An `after_event` hook lets the invariant checker run
// immediately after every fault transition.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"
#include "dfs/namenode.h"
#include "faults/fault_plan.h"
#include "obs/obs_context.h"
#include "sim/simulator.h"

namespace dyrs::faults {

class FaultInjector {
 public:
  FaultInjector(sim::Simulator& sim, cluster::Cluster& cluster, dfs::NameNode& namenode,
                std::uint64_t seed = 1);
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every event of `plan` (start and end transitions) and
  /// installs the migration-read fault hooks. Call once, before running.
  void install(const FaultPlan& plan);

  /// Emits `fault` trace events (kind/node/phase start|end) alongside each
  /// transition, so trace tooling can reconstruct node-liveness windows —
  /// the live-bind invariant needs them. The default no-op context
  /// disables emission.
  void set_obs(const obs::ObsContext& obs) { obs_ = obs; }

  /// Migration reads failed by an active IoErrors window so far.
  long io_errors_injected() const { return io_errors_injected_; }
  /// Fault transitions applied so far.
  int events_applied() const { return events_applied_; }

  /// Invoked after every applied fault transition (the invariant checker
  /// registers itself here to check right after each fault).
  std::function<void()> after_event;

 private:
  void apply_start(const FaultEvent& e);
  void apply_end(const FaultEvent& e);
  /// Emits the transition's `fault` event and counts it.
  void trace_transition(const FaultEvent& e, const char* phase);
  bool roll_io_error(NodeId node);
  void refresh_degradation(NodeId node);

  sim::Simulator& sim_;
  cluster::Cluster& cluster_;
  dfs::NameNode& namenode_;
  Rng rng_;

  struct ErrorWindow {
    SimTime from = 0;
    SimTime until = 0;
    double rate = 0.0;
  };
  std::unordered_map<NodeId, std::vector<ErrorWindow>> error_windows_;
  std::unordered_map<NodeId, std::vector<double>> degradations_;  // active factors
  std::unordered_map<NodeId, int> partitions_;                    // nesting count

  std::vector<sim::EventHandle> timers_;
  obs::ObsContext obs_;
  int events_applied_ = 0;
  long io_errors_injected_ = 0;
};

}  // namespace dyrs::faults
