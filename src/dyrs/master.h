// DYRS master — implemented "within the NameNode" (paper §IV).
//
// The master is the *sim backend driver* of the shared migration control
// plane (src/core): policy decisions (pending ordering, Algorithm 1
// targeting, binding eligibility, requeue semantics, lifecycle tracing)
// live in core::ControlPlane; this class supplies the simulator clock and
// event-handle timers, the namenode integration (replica lookup,
// memory-replica registry), and owns the *bound* half of the soft state
// (block -> node map plus the slaves' local queues).
//
// Baseline behaviours are configuration, not separate code paths:
//   * Binding::LateTargeted  + cancel + serialize        -> DYRS
//   * Binding::LateAnyReplica+ cancel + serialize        -> naive balancer (Fig 10 foil)
//   * Binding::EagerRandom   + no-cancel + concurrent    -> Ignem
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "cluster/cluster.h"
#include "common/random.h"
#include "core/binding.h"
#include "core/control_plane.h"
#include "core/replica_selector.h"
#include "dfs/namenode.h"
#include "dyrs/service.h"
#include "dyrs/slave.h"
#include "obs/metrics_registry.h"
#include "obs/obs_context.h"
#include "obs/trace.h"

namespace dyrs::core {

/// The sim master's config: the migration policy it inherits from
/// ControlPlaneConfig (binding, ordering, queue depth, retry, tier) plus
/// the knobs only this master has. Inheriting, rather
/// than holding a ControlPlaneConfig member, keeps `config.binding` and
/// `config.tier.*` spelled as on the core config. The constructor rejects
/// `failure_detection.enabled` (the sim detects failures through the dfs
/// heartbeat machinery) and fixes `target_trace` to AtRetarget.
struct MasterConfig : ControlPlaneConfig {
  using Binding = ::dyrs::core::Binding;
  using Ordering = ::dyrs::core::Ordering;
  /// Discard a block's migration once a read for it starts (§IV-A1:
  /// "discarded due to missed reads"). Ignem lacks this.
  bool cancel_missed_reads = true;
  /// Period of the Algorithm 1 retargeting pass (separate thread in the
  /// paper; an administrator-tunable rate, §III-D).
  SimDuration retarget_interval = milliseconds(500);
  std::uint64_t seed = 99;
  SlaveConfig slave;
};

class MigrationMaster final : public MigrationService {
 public:
  /// Builds one slave per datanode currently registered at the namenode
  /// and starts the heartbeat and retargeting loops.
  MigrationMaster(cluster::Cluster& cluster, dfs::NameNode& namenode, MasterConfig config);
  ~MigrationMaster() override;

  /// Resolves `files` to their blocks and migrates those, for callers that
  /// hold file names rather than blocks (benches, tests).
  void migrate_files(JobId job, const std::vector<std::string>& files, EvictionMode mode);

  // --- MigrationService --------------------------------------------------
  void migrate_blocks(JobId job, const std::vector<BlockId>& blocks,
                      EvictionMode mode) override;
  void evict_job(JobId job) override;
  void on_blocks_deleted(const std::vector<BlockId>& blocks) override;

  // --- ReadHooks -----------------------------------------------------------
  void on_read_started(BlockId block, JobId job) override;
  void on_read_completed(BlockId block, JobId job, const dfs::ReadInfo& info) override;

  // --- failure ------------------------------------------------------------
  /// Master process restart: all master soft state is lost. Slave buffers
  /// survive and are re-reported on subsequent heartbeats, after which the
  /// in-memory replica registry is consistent again.
  void master_failover();

  // --- introspection for tests & benches -----------------------------------
  MigrationSlave& slave(NodeId id);
  const MigrationSlave& slave(NodeId id) const;
  std::size_t pending_count() const { return plane_.queue().size(); }
  std::size_t bound_count() const { return bound_.size(); }
  long migrations_completed() const { return completed_; }
  double bytes_migrated() const { return bytes_migrated_; }

  // --- failure-handling introspection ------------------------------------
  /// True between a master failover and the first heartbeat pulse that
  /// rebuilt the in-memory replica registry from slave reports.
  bool rebuilding() const { return rebuilding_; }
  /// Every (block, target node) currently bound but not completed, in
  /// deterministic order — for the cross-layer invariant checker.
  std::vector<std::pair<BlockId, NodeId>> bound_migrations() const;
  /// Blocks currently pending at the master, in FIFO order.
  std::vector<BlockId> pending_blocks() const;
  /// Transient I/O errors absorbed by slave-local retries (all slaves).
  long migration_retries() const;
  /// Migrations that exhausted a slave's retry budget (all slaves).
  long migration_permanent_failures() const;
  /// Migrations returned to pending after a slave crash, heartbeat loss or
  /// permanent I/O failure instead of being dropped.
  long migrations_requeued() const { return requeued_; }

  /// Forces an immediate Algorithm 1 pass (normally periodic).
  void retarget_now();

  // --- observability ------------------------------------------------------
  /// Wires the migration-lifecycle tracing (enqueue -> target -> bind ->
  /// transfer -> complete/abort) and registry counters through the master
  /// and its slaves. A default-constructed context is a no-op; with a
  /// disabled tracer the instrumented paths cost one null/flag check.
  void set_observability(const obs::ObsContext& obs);

  /// Cluster-scheduler liveness oracle, forwarded to slave scavengers.
  void set_job_active_query(std::function<bool(JobId)> q);

  const MasterConfig& config() const { return config_; }

 private:
  /// Per heartbeat: slave heartbeats, reports and pulls, for the slaves
  /// that have something to do.
  void pulse();
  void pull_for(MigrationSlave& slave);
  /// True if pull_for could bind work to `slave`.
  bool has_work_for(const MigrationSlave& slave) const;
  /// Records that `slave` was handed a reference of `job`, so evict_job
  /// releases the job there.
  void note_handed(JobId job, const MigrationSlave& slave);
  /// A slave the master can currently exchange messages with: process and
  /// server up, no partition, and not declared dead by the namenode.
  bool reachable(NodeId id, const MigrationSlave& slave) const;
  /// Driver half of a binding: bound-state bookkeeping and slave handoff
  /// for a migration the control plane already selected and traced.
  void finish_bind(BoundMigration bm, MigrationSlave& slave);
  void eager_bind_all();
  void handle_migration_complete(const MigrationRecord& record);
  void handle_evicted(NodeId node, const std::vector<BlockId>& blocks);
  void handle_slave_crash(NodeId node);
  void handle_migration_failed(NodeId node, BoundMigration m);
  /// Returns bound migrations targeting `node` to the pending list (the
  /// node stopped heartbeating: partitioned or silently dead).
  void reclaim_bound_on(NodeId node, CancelReason reason);
  /// Re-queues lost migrations for their still-active jobs; `avoid` (when
  /// valid) joins each migration's carried avoid history and is excluded
  /// from future targeting of those blocks.
  void requeue_lost(std::vector<BoundMigration> lost, NodeId avoid);
  void add_pending(JobId job, BlockId block, EvictionMode mode,
                   const std::vector<NodeId>& avoid = {});
  /// Counts the cancel and emits the matching `mig_abort` trace event.
  void record_cancel(const CancelRecord& rec);
  bool tracing() const { return obs_.tracing(); }

  cluster::Cluster& cluster_;
  dfs::NameNode& namenode_;
  MasterConfig config_;
  Rng rng_;

  std::unordered_map<NodeId, std::unique_ptr<MigrationSlave>> slaves_;
  /// The slaves in `slaves_`'s iteration order, which pulse and evict_job
  /// keep (the set is fixed at construction, so the order never changes).
  std::vector<MigrationSlave*> pulse_order_;
  /// Per node id (dense, 0..N-1): its slave, null where there is none, and
  /// that slave's position in pulse_order_. Every lookup by node goes here.
  struct SlaveSlot {
    MigrationSlave* slave = nullptr;
    std::size_t position = 0;
  };
  std::vector<SlaveSlot> by_node_;
  /// The slave on `id`, or null.
  MigrationSlave* find_slave(NodeId id) const;
  /// Per job, a bitmask over pulse_order_ positions of the slaves handed
  /// one of its references (a binding, or refs added to a buffered or
  /// bound block). evict_job releases the job only there, and drops it.
  std::unordered_map<JobId, std::vector<std::uint64_t>> handed_;
  ControlPlane plane_;                         // pending state + policy
  std::unordered_map<BlockId, NodeId> bound_;  // bound but not yet completed

  long completed_ = 0;
  double bytes_migrated_ = 0;
  bool rebuilding_ = false;
  long requeued_ = 0;
  std::function<bool(JobId)> job_active_;

  // Observability (optional; cached instrument pointers keep hot paths to
  // one atomic add each).
  obs::ObsContext obs_;
  obs::Counter* ctr_enqueued_ = nullptr;
  obs::Counter* ctr_bound_ = nullptr;
  obs::Counter* ctr_completed_ = nullptr;
  obs::Counter* ctr_cancelled_ = nullptr;
  obs::Counter* ctr_requeued_ = nullptr;
  obs::Counter* ctr_bytes_ = nullptr;
  obs::Counter* ctr_pulse_visits_ = nullptr;
  obs::Counter* ctr_retarget_requests_ = nullptr;  // passes asked of the plane
  obs::Histogram* hist_transfer_s_ = nullptr;
  obs::Histogram* hist_pending_wait_s_ = nullptr;

  sim::EventHandle heartbeat_timer_;
  sim::EventHandle retarget_timer_;
};

}  // namespace dyrs::core
