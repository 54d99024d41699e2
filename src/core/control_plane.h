// ControlPlane — the backend-agnostic migration policy engine.
//
// Owns the *pending* half of the master's soft state (the indexed queue of
// not-yet-bound migrations) and every policy decision over it: merge-or-
// create on enqueue, Algorithm 1 earliest-finish targeting, binding-order
// selection (FIFO / SmallestJobFirst), eligibility under the configured
// binding mode, and requeue-with-avoid-list semantics after failures. It
// also owns the lifecycle trace vocabulary via its LifecycleEmitter.
//
// Backends stay thin drivers that supply mechanism, not policy:
//   * the sim master (src/dyrs) supplies SimTime, event-handle timers, the
//     namenode (replica lookup, memory-replica registry) and owns the
//     *bound* state (block -> node map, slave queues);
//   * the rt master (src/rt) supplies steady_clock microseconds, a mutex
//     and worker threads, and owns bound state as the slaves' local queues.
//
// All calls assume external synchronization (the sim event loop or the rt
// master mutex); the core itself is single-threaded by design.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "core/binding.h"
#include "core/failure_detection.h"
#include "core/lifecycle.h"
#include "core/pending_queue.h"
#include "core/queue_depth.h"
#include "core/replica_selector.h"
#include "core/retry_policy.h"
#include "core/tier_policy.h"
#include "core/types.h"

namespace dyrs::core {

/// Holds no policy: Algorithm 1 has one engine, the full sweep. The
/// repository benchmark's control-plane replay still copies
/// `defaults.retarget`; the benchmark change that drops that copy deletes
/// this field and the type.
struct RetargetConfig {};

/// The migration policy, declared once. Both masters' configs derive from
/// it (core::MasterConfig, rt::RtMaster::Options) and every slave is
/// constructed with its master's, so each knob has one declaration and one
/// route to every slave. A master that cannot honour a field rejects it at
/// construction or fixes it; it never reinterprets it.
struct ControlPlaneConfig {
  Binding binding = Binding::LateTargeted;
  Ordering ordering = Ordering::Fifo;
  /// When `mig_target` is emitted: at every retarget pass that changes an
  /// entry's target (sim profile — the full decision history), or once at
  /// bind time for the decision that stuck (rt profile — intermediate
  /// passes follow thread timing and would make event counts
  /// nondeterministic across runs). Each master fixes its profile on the
  /// copy it hands its ControlPlane (sim AtRetarget, rt AtBind), so the
  /// field only matters where a ControlPlane is built directly.
  enum class TargetTrace { AtRetarget, AtBind };
  TargetTrace target_trace = TargetTrace::AtRetarget;
  /// Empty; see RetargetConfig. Every pass is the full sweep.
  RetargetConfig retarget;
  /// Slave local-queue depth (§III-B). The control plane never binds more
  /// than a slave's advertised free slots; every slave derives them from
  /// this policy.
  QueueDepthPolicy queue_depth;
  /// Slave-local retry budget for transient read failures.
  RetryPolicy retry;
  /// Failure-detector cadence (heartbeat age -> Suspect -> Dead). The rt
  /// master's monitor thread applies it; the sim master rejects `enabled`,
  /// because the sim detects failures through the dfs heartbeat machinery.
  FailureDetection failure_detection;
  /// Memory-pressure policy (watermark pair, pressure response). Every
  /// slave's buffer manager evaluates it with the same core::BufferManager
  /// code, so demotions are identical across backends given the same
  /// admission sequence.
  TierPolicy tier;
};

class ControlPlane {
 public:
  explicit ControlPlane(ControlPlaneConfig config = {}) : config_(config) {}

  /// Wires lifecycle tracing (with the backend's merge-key stamper, if any)
  /// and the work counters: `ctrl.bind.entries_scanned` (entries bind_for
  /// visited), `ctrl.retarget.entries_scored` (entries Algorithm 1 passes
  /// scored) and `ctrl.retarget.snapshot_nodes` (node snapshots they read).
  void set_observability(const obs::ObsContext& obs,
                         LifecycleEmitter::Stamper stamper = nullptr) {
    emitter_ = LifecycleEmitter(obs, std::move(stamper));
    ctr_bind_scanned_ = obs.counter("ctrl.bind.entries_scanned");
    ctr_scored_ = obs.counter("ctrl.retarget.entries_scored");
    ctr_snapshot_nodes_ = obs.counter("ctrl.retarget.snapshot_nodes");
  }
  LifecycleEmitter& emitter() { return emitter_; }
  PendingQueue& queue() { return queue_; }
  const PendingQueue& queue() const { return queue_; }
  const ControlPlaneConfig& config() const { return config_; }

  struct Enqueued {
    PendingMigration* entry = nullptr;
    bool created = false;
  };
  /// Adds `block` to the pending queue, or merges the job (and avoid
  /// history) into an existing entry — in which case `size` and `replicas`
  /// are ignored. Emits `mig_enqueue` per call: with the full entry fields
  /// for created entries, and a `merged=1` marker when the job joined an
  /// already-open entry (so trace consumers see multi-job demand).
  Enqueued enqueue(JobId job, EvictionMode mode, BlockId block, Bytes size,
                   std::vector<NodeId> replicas, const std::vector<NodeId>& avoid, SimTime now);

  /// Algorithm 1 pass: sets each pending entry's earliest-finish target
  /// and files it under that target's list. `snapshots` lists every
  /// reporting node.
  TargetingStats retarget(const std::vector<SlaveSnapshot>& snapshots, SimTime now);
  /// The same pass, reading a node's snapshot only when an entry first
  /// names it as a candidate replica (not on its avoid list), at most once
  /// per pass; `fetch` returns false for a node that is not reporting. Both
  /// masters use this form, so a pass costs the nodes the queue names, not
  /// the cluster.
  TargetingStats retarget(const TargetScorer::Fetch& fetch, SimTime now);

  /// Binds up to `free_slots` pending entries eligible for `node` under
  /// the configured binding mode (target match for LateTargeted; replica
  /// holder not on the avoid list for LateAnyReplica; nothing for
  /// EagerRandom — eager strategies pick nodes themselves via bind_entry).
  /// LateTargeted with Fifo walks only `node`'s target list; the other
  /// modes walk the queue in consideration order. The walk stops once the
  /// slots are filled. Emits `mig_bind` (and `mig_target` in AtBind mode)
  /// per binding.
  std::vector<BoundMigration> bind_for(NodeId node, int free_slots, double sec_per_byte,
                                       SimTime now);

  /// Binds one specific entry to `node` and removes it from the queue.
  BoundMigration bind_entry(PendingQueue::iterator it, NodeId node, double sec_per_byte,
                            SimTime now);

  /// Re-queues lost migrations for their still-active jobs. `avoid` (when
  /// valid) joins each migration's carried avoid history before `add` is
  /// invoked per (job, migration) — the driver supplies insertion because
  /// it may resolve replicas or short-circuit (block already in memory).
  /// Emits `mig_requeue` per migration that was re-added for at least one
  /// job; returns how many were.
  using AddPending = std::function<void(JobId, EvictionMode, const BoundMigration&)>;
  int requeue(std::vector<BoundMigration> lost, NodeId avoid,
              const std::function<bool(JobId)>& job_active, const AddPending& add, SimTime now);

 private:
  /// Runs the pass `scorer_` was started for over the whole queue.
  TargetingStats run_pass(SimTime now);

  ControlPlaneConfig config_;
  PendingQueue queue_;
  TargetScorer scorer_;  // reused pass to pass, so a pass allocates nothing
  LifecycleEmitter emitter_;
  obs::Counter* ctr_bind_scanned_ = nullptr;
  obs::Counter* ctr_scored_ = nullptr;
  obs::Counter* ctr_snapshot_nodes_ = nullptr;
};

}  // namespace dyrs::core
