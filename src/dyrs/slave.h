// DYRS slave — the migration worker inside each DataNode (paper §III, §IV).
//
// Responsibilities:
//  * keep a bounded local FIFO queue of bound migrations, deep enough that
//    the disk never idles between master pulls, shallow enough that binding
//    stays late (depth = ceil(heartbeat / unloaded block read time), §III-B);
//  * execute migrations — one at a time by default, to avoid
//    seek-thrashing the disk (Ignem raises the concurrency cap);
//  * maintain the per-node migration-time estimate, with the overdue
//    correction applied every heartbeat (§IV-A);
//  * manage the memory buffer: reference lists, implicit/explicit eviction,
//    scavenging of dead jobs, hard memory limit with queue stalling.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>

#include "core/control_plane.h"
#include "core/lifecycle.h"
#include "core/types.h"
#include "dfs/datanode.h"
#include "dyrs/buffer_manager.h"
#include "dyrs/estimator.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace dyrs::core {

struct SlaveConfig {
  SimDuration heartbeat_interval = seconds(1);
  /// Migrations in flight at once, at least 1. DYRS serializes (1); Ignem
  /// copies concurrently.
  int max_concurrent_migrations = 1;
  bool overdue_correction = true;
  Bytes reference_block = 256 * kMiB;
  Bytes memory_limit = 0;             // cap for migrated data; 0 = node RAM
};

class MigrationSlave {
 public:
  /// Buffer fraction at which a heartbeat scavenges dead jobs' references.
  static constexpr double kScavengeThreshold = 0.9;

  struct Callbacks {
    /// A migration finished; the master registers the in-memory replica.
    std::function<void(const MigrationRecord&)> on_complete;
    /// Blocks were evicted from this slave's buffer; the master
    /// unregisters their in-memory replicas.
    std::function<void(NodeId, const std::vector<BlockId>&)> on_evicted;
    /// A migration exhausted its retry budget on this slave (persistent
    /// I/O errors); the master returns it to pending and re-targets it at
    /// a surviving replica instead of silently dropping it.
    std::function<void(NodeId, BoundMigration)> on_failed;
  };

  /// `policy` is the master's: the slave takes its queue depth (§III-B),
  /// its retry budget for (injected) read errors and its buffer manager's
  /// pressure policy from it.
  MigrationSlave(sim::Simulator& sim, dfs::DataNode& datanode, SlaveConfig config,
                 const ControlPlaneConfig& policy, Callbacks callbacks);

  NodeId id() const { return datanode_.id(); }

  // --- queue ------------------------------------------------------------
  /// Local queue depth (excluding the in-flight migration), §III-B.
  int queue_capacity() const;
  int queued_count() const { return static_cast<int>(queue_.size()); }
  int in_flight_count() const { return static_cast<int>(active_.size()); }
  /// Slots the master may fill on the next pull.
  int free_slots() const;
  /// Bytes bound locally and not yet migrated (queue + in-flight).
  Bytes bound_bytes() const;

  /// Binds a migration to this slave (final, §III-A). Respects nothing —
  /// capacity discipline is the *master's* job on the pull path; eager
  /// strategies (Ignem) push without limit. Returns false when the block
  /// is already buffered here (only references were added and no local
  /// migration exists) so the master can keep its bound set consistent.
  bool enqueue(BoundMigration m);

  /// Cancels a queued or in-flight migration of `block`. Returns true if
  /// one was found. Reserved memory is released.
  bool cancel_block(BlockId block);

  bool has_local_migration(BlockId block) const;

  /// Merges additional job references into a queued/in-flight migration of
  /// `block` (a later job requested a block already being migrated here).
  /// Returns false if the block is not bound locally.
  bool add_refs_if_local(BlockId block, const std::map<JobId, EvictionMode>& jobs);

  /// Drops `job`'s interest in a local migration of `block`; cancels the
  /// migration outright when no other job still wants it. Returns true if
  /// the migration was fully cancelled.
  bool cancel_for_job(BlockId block, JobId job);

  // --- heartbeat --------------------------------------------------------
  /// Periodic work: overdue estimator update, stalled-queue retry,
  /// threshold-triggered scavenging.
  void heartbeat();
  /// True when heartbeat() would change nothing: no migration in flight,
  /// queued or stalled, no scavenge due, and the memory gauge already at
  /// the buffers' size. The master's pulse skips an idle slave it has no
  /// work to hand.
  bool idle() const;

  // --- eviction entry points (routed via master) ------------------------
  std::vector<BlockId> release_job(JobId job);
  std::vector<BlockId> on_block_read(BlockId block, JobId job);

  // --- failure ----------------------------------------------------------
  struct CrashReport {
    /// Migrations (queued, in flight, or awaiting retry) that died with
    /// the process — the master re-queues the ones whose jobs still live.
    std::vector<BoundMigration> lost;
    /// Blocks that had completed into the buffer (the master may have
    /// registered them as in-memory replicas; it must drop those now).
    std::vector<BlockId> buffered;
  };
  /// Process crash: queue, in-flight and backing-off migrations die,
  /// buffers are reclaimed.
  CrashReport crash();

  /// Migration of `block` bound here, wherever it currently sits (queued,
  /// in flight, or in retry backoff); nullptr when not bound locally.
  const BoundMigration* local_migration(BlockId block) const;

  MigrationEstimator& estimator() { return estimator_; }
  const MigrationEstimator& estimator() const { return estimator_; }
  BufferManager& buffers() { return buffers_; }
  const BufferManager& buffers() const { return buffers_; }
  const SlaveConfig& config() const { return config_; }
  dfs::DataNode& datanode() { return datanode_; }
  const dfs::DataNode& datanode() const { return datanode_; }

  /// Cluster-scheduler liveness oracle used by the scavenger. Unset means
  /// "assume every referencing job is still active".
  std::function<bool(JobId)> job_active_query;

  long migrations_completed() const { return completed_; }
  bool stalled() const { return stalled_; }

  /// Transfer-phase trace events (mig_transfer_start/retry/failed) go
  /// through this context; the default no-op context disables them at the
  /// cost of one flag check per site.
  void set_obs(const obs::ObsContext& obs) {
    obs_ = obs;
    emitter_ = LifecycleEmitter(obs);
    gauge_memory_used_ = obs.gauge("node" + std::to_string(id().value()) +
                                   ".tier.memory.used_bytes");
    ctr_demotions_ = obs.counter("dyrs.migrations.demoted");
  }

  /// Blocks demoted to disk by capacity pressure.
  long demotions() const { return demotions_; }

  // --- retry statistics -------------------------------------------------
  /// Migrations currently waiting out a retry backoff.
  int backoff_count() const { return static_cast<int>(backoff_.size()); }
  /// Transient I/O errors absorbed by a local retry.
  long retries() const { return retries_; }
  /// Migrations that exhausted the retry budget and were reported failed.
  long permanent_failures() const { return permanent_failures_; }

 private:
  struct Active {
    BoundMigration m;
    SimTime started_at = 0;
    cluster::Disk::FlowId flow = 0;
  };
  struct Backoff {
    BoundMigration m;
    sim::EventHandle timer;
  };

  void maybe_start();
  bool start_migration(BoundMigration m);
  /// Emits mig_demote events, reports the demoted blocks as evictions to
  /// the master, and refreshes the buffer gauge.
  void process_demotions(const std::vector<BufferManager::Demotion>& demoted);
  void finish_migration(BlockId block, SimTime finished);
  void fail_migration(BlockId block);
  void retry_now(BlockId block);
  void report_evicted(const std::vector<BlockId>& evicted);
  bool tracing() const { return obs_.tracing(); }

  sim::Simulator& sim_;
  dfs::DataNode& datanode_;
  SlaveConfig config_;
  const ControlPlaneConfig policy_;
  Callbacks callbacks_;
  MigrationEstimator estimator_;
  BufferManager buffers_;

  obs::ObsContext obs_;
  LifecycleEmitter emitter_;

  std::deque<BoundMigration> queue_;
  std::unordered_map<BlockId, Active> active_;
  std::unordered_map<BlockId, Backoff> backoff_;
  bool stalled_ = false;
  long completed_ = 0;
  long retries_ = 0;
  long permanent_failures_ = 0;
  long demotions_ = 0;
  obs::Gauge* gauge_memory_used_ = nullptr;
  obs::Counter* ctr_demotions_ = nullptr;
};

}  // namespace dyrs::core
