// Executes a FaultPlan against the real-threaded runtime on wall-clock
// time.
//
// Where the sim FaultInjector schedules plan events on the simulator
// clock, this driver replays the same declarative plan with a timeline
// thread: install() captures "now" as t=0 and the thread sleeps up to
// each transition's offset before applying it. The fault kinds map onto
// the rt failure surface:
//  * ProcessCrash /   — RtSlave::crash() at `at` (worker thread torn down,
//    ServerDeath       in-flight work abandoned), restart() at `until`.
//                      The master's failure detector notices the silent
//                      heartbeats, declares the node dead and requeues
//                      what was bound there.
//  * Partition       — RtSlave::set_partitioned(true): the daemon keeps
//                      working but its heartbeats stop reaching the
//                      master; healed at `until` (overlaps nest).
//  * IoErrors        — a probabilistic read-fault hook on the node fails
//                      migration reads with probability `rate` while the
//                      wall clock is inside [at, until); rolled on a
//                      per-node seeded Rng, retried by the slave's local
//                      retry policy.
//  * DiskDegradation — ThrottledDisk::set_degradation with `factor` for
//                      the window; overlapping windows multiply. The
//                      device's nominal rate is untouched, so fault
//                      windows compose with runtime reconfiguration.
//
// The record of each applied transition is its `fault` trace marker. The
// markers ride the rt merge-key scheme on a dedicated injector lane
// (blockless lseq 0, tid kInjectorTid, tseq = the transition's ordinal), so
// two runs of the same plan and seed merge identically even though wall
// clocks differ.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "faults/fault_plan.h"
#include "obs/obs_context.h"
#include "rt/master.h"

namespace dyrs::faults {

class RtFaultInjector {
 public:
  /// Trace-lane thread id for fault markers: far above any slave lane
  /// (node + 1) so merged traces keep injector events in their own group.
  static constexpr int kInjectorTid = 1'000'000;

  explicit RtFaultInjector(rt::RtMaster& master, std::uint64_t seed = 1);
  ~RtFaultInjector();
  RtFaultInjector(const RtFaultInjector&) = delete;
  RtFaultInjector& operator=(const RtFaultInjector&) = delete;

  /// Installs the read-fault hooks and starts the timeline thread; the
  /// moment of the call is the plan's t=0. Call once, before the workload.
  void install(const FaultPlan& plan);

  /// Emits a `fault` trace marker (kind/node/phase start|end) with each
  /// transition; the default no-op context disables emission.
  void set_obs(const obs::ObsContext& obs);

  /// Fault transitions applied so far.
  int events_applied() const;
  /// Migration reads failed by an active IoErrors window so far.
  long io_errors_injected() const;

  /// Blocks until every scheduled transition was applied, or `timeout`
  /// elapsed. Returns true when the timeline ran to completion.
  bool wait_done(std::chrono::milliseconds timeout);

  /// Stops the timeline thread early; read-fault hooks are uninstalled
  /// (the slaves outlive the injector) and active degradations and
  /// partitions restored so the cluster is healthy afterwards. Idempotent.
  void stop();

 private:
  struct Transition {
    FaultEvent event;
    SimTime at = 0;  // planned offset from install time, microseconds
    bool start = true;
  };
  /// Per-node IoErrors state shared with the slave's read-fault hook. Its
  /// own leaf mutex: the hook runs under the slave lock, and the injector
  /// must never make a slave hook wait on timeline work (crash() joins a
  /// worker that may be inside the hook).
  struct IoState {
    std::mutex mu;
    std::vector<FaultEvent> windows;
    Rng rng{1};
  };

  void timeline(std::stop_token st);
  void apply(const Transition& t);
  /// Counts the transition and emits its `fault` marker.
  void trace_transition(const FaultEvent& e, const char* phase);
  /// Wall-clock offset from install time, in microseconds.
  SimTime since_install() const;

  rt::RtMaster& master_;
  const std::uint64_t seed_;
  std::chrono::steady_clock::time_point install_epoch_{};

  std::vector<Transition> transitions_;
  std::unordered_map<NodeId, std::unique_ptr<IoState>> io_states_;
  std::unordered_map<NodeId, std::vector<double>> degradations_;  // timeline thread only
  std::unordered_map<NodeId, int> partitions_;            // nesting; timeline thread only
  std::atomic<long> io_errors_injected_{0};

  mutable std::mutex mu_;  // guards obs_, events_applied_, done_
  obs::ObsContext obs_;
  int events_applied_ = 0;
  bool done_ = false;
  std::condition_variable done_cv_;

  std::mutex sleep_mu_;
  std::condition_variable_any sleep_cv_;
  std::jthread timeline_;  // last member: joins before the rest dies
};

}  // namespace dyrs::faults
