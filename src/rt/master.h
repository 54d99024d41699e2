// Real-threaded DYRS master.
//
// Demonstrates the production shape of the protocol: slaves pull from their
// own worker threads, the Algorithm 1 retargeting pass runs in a separate
// thread off the pull path (§III-D), and the policy state (the pending
// queue) is guarded by the master mutex. Settlement state stripes over a
// fixed set of shards — the bound registry and per-block cycle counters by
// block id, per-job accounting by job id — with the completion counters
// lock-free atomics, so completion reports settle and the `completed*`
// accessors read without the master mutex, off the pull path. A pull binds
// and hands the migrations to the slave's queue in one step under the
// master mutex, so a bound block is always either pending here or held by
// exactly one slave, where cancel() and evict_job() find it.
//
// The master is the *rt backend driver* of the shared migration control
// plane (src/core): policy decisions (pending ordering, Algorithm 1
// targeting, binding eligibility, requeue semantics, lifecycle tracing)
// live in core::ControlPlane; this class supplies steady_clock
// microseconds, the master mutex, worker-thread slaves, and the rt trace
// merge key (every event is stamped with (lseq, tid, tseq) so
// merge_thread_buffers() restores a canonical per-block order). Bound
// state lives in the slaves' local queues.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/binding.h"
#include "core/control_plane.h"
#include "core/replica_selector.h"
#include "obs/metrics_registry.h"
#include "obs/obs_context.h"
#include "rt/slave.h"

namespace dyrs::rt {

struct RtBlock {
  BlockId block;
  Bytes size = 0;
  std::vector<NodeId> replicas;
  /// Requesting job; drives per-job SJF ordering, per-job completion
  /// accounting, and evict_job().
  JobId job = JobId(0);
};

class RtMaster {
 public:
  /// Per-node health as seen by the failure detector: heartbeat fresh
  /// (Alive), stale past `suspect_after` (Suspect — still eligible, the
  /// grace period for a slow disk slice), stale past `declare_dead_after`
  /// (Dead — bound work reclaimed, node excluded from targeting until its
  /// heartbeats resume).
  enum class NodeState { Alive, Suspect, Dead };

  /// The rt master's options: the migration policy it inherits from
  /// core::ControlPlaneConfig plus the knobs only this master has.
  /// Inheriting, rather than holding a ControlPlaneConfig member, keeps
  /// `options.ordering` and `options.retarget` spelled as on the core
  /// config. The constructor rejects a `binding` other than LateTargeted
  /// before any slave thread starts, and fixes `target_trace` to AtBind.
  ///
  /// Every `retarget` pass re-scores the whole pending queue against fresh
  /// snapshots: a snapshot's queued_bytes is the slave's bound bytes,
  /// which move on every bind and completion. With
  /// `failure_detection.enabled`, a monitor thread applies a timeout ->
  /// suspicion -> declared-dead state machine over the age of the slaves'
  /// wall-clock heartbeats (published every worker-loop iteration, every
  /// disk slice and every member a flush settles). Declaring a node dead
  /// aborts its bound-but-incomplete lifecycles (heartbeat-loss) and
  /// requeues the blocks through the control plane with the node on the
  /// avoid list; a node whose heartbeats resume rejoins the retargeter's
  /// eligible set.
  struct Options : core::ControlPlaneConfig {
    std::vector<RtSlave::Options> slaves;
    std::chrono::milliseconds retarget_interval{5};
    /// Observability handle shared by the master and every slave. The
    /// atomic counters (rt.migrations.*, rt.retarget.passes, rt.pulls) are
    /// safe to bump from worker threads. Tracing additionally requires a
    /// thread-safe sink — ThreadLocalBufferSink is the intended one: every
    /// event carries a stable merge key (block, lseq, tid, tseq) so
    /// merge_thread_buffers() restores a canonical per-block order that is
    /// identical across runs even though wall-clock interleavings differ.
    obs::ObsContext obs;
  };

  explicit RtMaster(Options options);
  ~RtMaster();
  RtMaster(const RtMaster&) = delete;
  RtMaster& operator=(const RtMaster&) = delete;

  /// Queues blocks for migration (thread-safe; callable from any thread).
  /// A block already pending merges its job into the existing entry
  /// instead of opening a second lifecycle.
  void migrate(const std::vector<RtBlock>& blocks);

  /// Blocks the caller until every queued migration completed or
  /// cancelled, or until `timeout` elapses, or until shutdown() discards
  /// the remaining work. Returns true only if actually drained.
  bool wait_idle(std::chrono::milliseconds timeout);

  /// Missed-read cancellation: drops `block` from the pending list or
  /// interrupts it at whichever slave holds it. Returns true if found — the
  /// migration then settles as cancelled and never reports completion.
  bool cancel(BlockId block);

  /// Drops `job` from every pending migration (cancelling entries no other
  /// job wants) and releases its buffer references at every slave.
  void evict_job(JobId job);

  RtSlave& slave(NodeId id);
  /// Fixed slave set in the deterministic snapshot order.
  const std::vector<NodeId>& nodes() const { return node_order_; }
  /// Current failure-detector classification (Alive when detection is
  /// disabled — the state machine never runs).
  NodeState node_state(NodeId id) const;
  std::size_t pending() const;
  /// The completion accessors snapshot lock-free counters (per-node) or
  /// per-shard accounting (per-job) and never take the master mutex, so
  /// polling them cannot stall pulls — tests/rt cover that regression.
  long completed() const;
  /// Completed migrations per node.
  std::unordered_map<NodeId, long> completed_per_node() const;
  /// Completed migrations per requesting job.
  std::unordered_map<JobId, long> completed_per_job() const;
  /// Migrations returned to pending after a permanent slave failure.
  long requeued() const;

  /// Wall-clock microseconds since the master's trace epoch — the
  /// timestamp lane every emitter (slaves, fault injector) shares.
  std::int64_t now_us() const;

  /// Stops the monitor, the retargeting thread and all slaves.
  void shutdown();

 private:
  /// Settlement state striped by block id (`block % kSettleShards`), and
  /// per-job accounting by job id (`job % kSettleShards`). The completion
  /// path takes the block's stripe, then each job's, one after the other.
  /// Lock order: mu_ may be held when taking a shard lock, never the
  /// reverse; shard locks never nest; and no emission happens while a
  /// shard lock is held (the master stamper itself reads a shard for the
  /// cycle).
  struct BoundRec;
  struct SettleShard;
  /// Eight stripes: a report holds a stripe only for a map update, so with
  /// one worker per slave (16 in micro_rt_throughput's widest config) eight
  /// keep collisions rare, while completed_per_job() locks every stripe and
  /// should stay cheap to poll; 16 stripes drained no faster.
  static constexpr std::size_t kSettleShards = 8;

  /// Binds up to `space` migrations to `slave` and hands them to its queue
  /// before mu_ is released.
  void pull(RtSlave& slave, int space);
  /// Settles a drain cycle's completion report under the shard locks; mu_
  /// is touched only to wake wait_idle (settle_outstanding). Zombie
  /// suppression is keyed on each *member's* (block, node, cycle) — a
  /// member whose binding was reclaimed drops individually while the rest
  /// of the report settles.
  void on_complete(std::vector<RtMigrationDone> dones);
  /// A migration exhausted its local retry budget at `node`: abort that
  /// lifecycle and requeue the block with the node on its avoid list.
  void on_failed(NodeId node, RtMigration mig);
  void retarget_loop(std::stop_token st);
  void retarget_locked();
  /// One failure-detector pass over heartbeat ages (monitor thread).
  void check_health();
  void monitor_loop(std::stop_token st);
  /// Declares `node` dead: aborts every lifecycle bound there with
  /// heartbeat-loss and requeues the blocks, dead node on the avoid list.
  void declare_dead_locked(NodeId node);
  /// A settled binding (complete / failed / cancelled) leaves the bound
  /// registry; reports whose (node, cycle) no longer match the registry
  /// are zombies from a reclaimed binding and must be ignored. Locks the
  /// block's shard internally (mu_ optional).
  bool settle_bound(BlockId block, NodeId node, std::uint64_t cycle);
  /// Retires `n` settled lifecycles without holding mu_: decrements the
  /// outstanding count and, on reaching zero, wakes wait_idle() through a
  /// mu_ round-trip so the wakeup orders after the waiter's predicate.
  void settle_outstanding(long n);
  bool node_dead_locked(NodeId node) const;
  /// `node_state` marker on the master lane (blockless: lseq 0, tid 0).
  void emit_node_state_locked(NodeId node, const char* state);
  /// Adds (or merges) one pending migration; bumps the block's cycle and
  /// the outstanding count only when a new entry (= new lifecycle) opens.
  void enqueue_locked(JobId job, core::EvictionMode mode, BlockId block, Bytes size,
                      const std::vector<NodeId>& replicas, const std::vector<NodeId>& avoid);
  /// Emits per-node est_s_per_block samples so the trace policy oracle can
  /// replay Algorithm 1 against rt traces. Blockless events sort ahead of
  /// every lifecycle in the merged order.
  void sample_estimates_locked();
  /// Aborts pending entries whose every replica is on the avoid list —
  /// nothing can ever bind them, and wait_idle() must not hang on them.
  void drop_untargetable_locked();
  std::uint64_t cycle_for(BlockId block) const;
  SettleShard& shard_for(BlockId block) const;
  SettleShard& shard_for(JobId job) const;
  bool tracing() const { return options_.obs.tracing(); }

  /// Registry entry for a bound-but-unsettled migration: which (node,
  /// cycle) the block is out at. The failure detector reclaims from it;
  /// settlement reports that no longer match it are zombies and dropped.
  struct BoundRec {
    core::BoundMigration m;
    NodeId node;
    std::uint64_t cycle = 1;
  };
  struct SettleShard {
    mutable std::mutex mu;
    std::unordered_map<BlockId, BoundRec> bound;
    /// Per-block lifecycle count (bumped when a new pending entry opens).
    std::unordered_map<BlockId, std::uint64_t> cycle;
    /// Completions of the jobs that stripe here; aggregated across shards
    /// on read.
    std::unordered_map<JobId, long> per_job;
  };

  Options options_;
  const std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  core::ControlPlane plane_;          // pending state + policy; under mu_
  std::vector<NodeId> node_order_;    // deterministic snapshot order; fixed at ctor
  /// Settlement shards; a fixed set, so shard_for needs no lock of its own.
  mutable std::array<SettleShard, kSettleShards> shards_;
  /// Lifecycle counters, lock-free so settlement and the `completed*`
  /// accessors never touch mu_. outstanding_ = queued at master + bound at
  /// slaves, not done; its transient mid-update dips only ever happen while
  /// mu_ is held, and wait_idle's predicate runs under mu_, so a waiter
  /// never observes them.
  std::atomic<long> outstanding_{0};
  std::atomic<long> completed_{0};
  std::atomic<long> requeued_{0};
  /// Per-node completion counters. Keys are fixed at construction (the
  /// slave set never changes), so concurrent .at() lookups are safe and
  /// the accessor snapshot takes no lock.
  std::unordered_map<NodeId, std::atomic<long>> per_node_;
  /// Cycle override for emissions on the current thread (0 = resolve from
  /// the shard). Thread-local: settlement paths on worker threads and the
  /// master thread each stamp their own lifecycle's cycle.
  static thread_local std::uint64_t stamp_cycle_;
  std::atomic<std::uint64_t> trace_seq_{0};  // master-lane tseq (tid 0)
  std::unordered_map<NodeId, std::unique_ptr<RtSlave>> slaves_;
  /// Failure-detector state per node; all Alive when detection is off.
  std::unordered_map<NodeId, NodeState> health_;  // under mu_
  obs::Counter* ctr_completed_ = nullptr;
  obs::Counter* ctr_cancelled_ = nullptr;
  obs::Counter* ctr_requeued_ = nullptr;
  obs::Counter* ctr_retarget_passes_ = nullptr;
  obs::Counter* ctr_pulls_ = nullptr;
  obs::Counter* ctr_nodes_dead_ = nullptr;
  obs::Counter* ctr_nodes_rejoined_ = nullptr;
  std::atomic<bool> shut_down_{false};
  std::jthread retargeter_;
  std::jthread monitor_;  // running only when failure detection is enabled
};

}  // namespace dyrs::rt
