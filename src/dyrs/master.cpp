#include "dyrs/master.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "common/log.h"

namespace dyrs::core {

namespace {

/// The sim profile traces every retarget pass that moves a target.
ControlPlaneConfig sim_plane_config(ControlPlaneConfig policy) {
  policy.target_trace = ControlPlaneConfig::TargetTrace::AtRetarget;
  return policy;
}

}  // namespace

MigrationMaster::MigrationMaster(cluster::Cluster& cluster, dfs::NameNode& namenode,
                                 MasterConfig config)
    : cluster_(cluster),
      namenode_(namenode),
      config_(std::move(config)),
      rng_(config_.seed),
      plane_(sim_plane_config(config_)) {
  DYRS_CHECK_MSG(!config_.failure_detection.enabled,
                 "the sim master detects failures through the dfs heartbeats; "
                 "failure_detection.enabled is an rt master knob");
  for (NodeId id : cluster_.node_ids()) {
    dfs::DataNode* dn = namenode_.datanode(id);
    MigrationSlave::Callbacks callbacks;
    callbacks.on_complete = [this](const MigrationRecord& r) { handle_migration_complete(r); };
    callbacks.on_evicted = [this](NodeId node, const std::vector<BlockId>& blocks) {
      handle_evicted(node, blocks);
    };
    callbacks.on_failed = [this](NodeId node, BoundMigration m) {
      handle_migration_failed(node, std::move(m));
    };
    auto slave = std::make_unique<MigrationSlave>(cluster_.simulator(), *dn, config_.slave,
                                                  config_, std::move(callbacks));
    dn->on_process_crash = [this, id]() { handle_slave_crash(id); };
    slaves_.emplace(id, std::move(slave));
  }
  for (auto& [id, slave] : slaves_) {
    const auto i = static_cast<std::size_t>(id.value());
    if (i >= by_node_.size()) by_node_.resize(i + 1);
    by_node_[i] = {.slave = slave.get(), .position = pulse_order_.size()};
    pulse_order_.push_back(slave.get());
  }
  heartbeat_timer_ =
      cluster_.simulator().every(config_.slave.heartbeat_interval, [this]() { pulse(); });
  if (config_.binding == MasterConfig::Binding::LateTargeted) {
    retarget_timer_ =
        cluster_.simulator().every(config_.retarget_interval, [this]() { retarget_now(); });
  }
}

MigrationMaster::~MigrationMaster() {
  heartbeat_timer_.cancel();
  retarget_timer_.cancel();
}

std::string MigrationMaster::name() const {
  switch (config_.binding) {
    case MasterConfig::Binding::LateTargeted: return "DYRS";
    case MasterConfig::Binding::LateAnyReplica: return "NaiveBalancer";
    case MasterConfig::Binding::EagerRandom: return "Ignem";
  }
  return "?";
}

MigrationSlave* MigrationMaster::find_slave(NodeId id) const {
  const auto i = static_cast<std::size_t>(id.value());
  return id.valid() && i < by_node_.size() ? by_node_[i].slave : nullptr;
}

MigrationSlave& MigrationMaster::slave(NodeId id) {
  MigrationSlave* s = find_slave(id);
  DYRS_CHECK_MSG(s != nullptr, "no slave on node " << id);
  return *s;
}

const MigrationSlave& MigrationMaster::slave(NodeId id) const {
  const MigrationSlave* s = find_slave(id);
  DYRS_CHECK_MSG(s != nullptr, "no slave on node " << id);
  return *s;
}

void MigrationMaster::set_job_active_query(std::function<bool(JobId)> q) {
  job_active_ = q;  // requeue paths skip migrations whose jobs finished
  for (auto& [id, slave] : slaves_) slave->job_active_query = q;
}

void MigrationMaster::set_observability(const obs::ObsContext& obs) {
  obs_ = obs;
  plane_.set_observability(obs);
  for (auto& [id, slave] : slaves_) slave->set_obs(obs);
  ctr_enqueued_ = obs.counter("dyrs.migrations.enqueued");
  ctr_bound_ = obs.counter("dyrs.migrations.bound");
  ctr_completed_ = obs.counter("dyrs.migrations.completed");
  ctr_cancelled_ = obs.counter("dyrs.migrations.cancelled");
  ctr_requeued_ = obs.counter("dyrs.migrations.requeued");
  ctr_bytes_ = obs.counter("dyrs.migrations.bytes");
  ctr_pulse_visits_ = obs.counter("dyrs.pulse.slave_visits");
  hist_transfer_s_ = obs.histogram("dyrs.migration.transfer_s");
  hist_pending_wait_s_ = obs.histogram("dyrs.migration.pending_wait_s");
}

void MigrationMaster::record_cancel(const CancelRecord& rec) {
  if (ctr_cancelled_ != nullptr) ctr_cancelled_->inc();
  plane_.emitter().abort(rec);
}

bool MigrationMaster::reachable(NodeId id, const MigrationSlave& slave) const {
  const dfs::DataNode& dn = slave.datanode();
  return dn.serving() && !dn.partitioned() && namenode_.available(id);
}

void MigrationMaster::migrate_files(JobId job, const std::vector<std::string>& files,
                                    EvictionMode mode) {
  migrate_blocks(job, namenode_.ns().blocks_of(files), mode);
}

void MigrationMaster::migrate_blocks(JobId job, const std::vector<BlockId>& blocks,
                                     EvictionMode mode) {
  for (BlockId block : blocks) add_pending(job, block, mode);
  if (config_.binding == MasterConfig::Binding::EagerRandom) {
    eager_bind_all();
  } else if (config_.binding == MasterConfig::Binding::LateTargeted) {
    // Give fresh requests targets right away rather than waiting out the
    // periodic pass; the pass itself is cheap (§III-D).
    retarget_now();
  }
}

void MigrationMaster::add_pending(JobId job, BlockId block, EvictionMode mode,
                                  const std::vector<NodeId>& avoid) {
  // Already in memory somewhere: only add references.
  const auto memory_nodes = namenode_.memory_locations(block);
  if (!memory_nodes.empty()) {
    std::map<JobId, EvictionMode> refs{{job, mode}};
    for (NodeId n : memory_nodes) {
      MigrationSlave& holder = slave(n);
      holder.buffers().add_refs(block, refs);
      note_handed(job, holder);
    }
    return;
  }
  // Already bound to a slave: merge the job into the local migration.
  auto bit = bound_.find(block);
  if (bit != bound_.end()) {
    MigrationSlave& holder = slave(bit->second);
    if (holder.add_refs_if_local(block, {{job, mode}})) {
      note_handed(job, holder);
      return;
    }
    bound_.erase(bit);  // stale (completed+evicted or crashed); fall through
  }
  // Already pending: merge without touching the namenode (the control
  // plane ignores size/replicas for merges).
  if (plane_.queue().contains(block)) {
    plane_.enqueue(job, mode, block, 0, {}, avoid, cluster_.simulator().now());
    return;
  }
  if (ctr_enqueued_ != nullptr) ctr_enqueued_->inc();
  plane_.enqueue(job, mode, block, namenode_.ns().block(block).size,
                 namenode_.raw_replicas(block), avoid, cluster_.simulator().now());
}

void MigrationMaster::eager_bind_all() {
  // Ignem: bind every pending block to a uniformly random replica holder
  // immediately upon receiving the migration command.
  PendingQueue& queue = plane_.queue();
  while (!queue.empty()) {
    auto it = queue.begin();
    std::vector<NodeId> candidates;
    bool unreachable = false;
    for (NodeId n : it->replicas) {
      if (std::find(it->avoid.begin(), it->avoid.end(), n) != it->avoid.end()) continue;
      const MigrationSlave* s = find_slave(n);
      if (s != nullptr && reachable(n, *s)) {
        candidates.push_back(n);
      } else {
        unreachable = true;
      }
    }
    if (candidates.empty()) {
      // No replica holder can take the block, so its lifecycle ends here:
      // heartbeat-loss when some holder is out of reach (process down,
      // partitioned or declared dead), io-error when every holder has
      // already failed it (as the rt master's drop_untargetable_locked).
      record_cancel({.block = it->block,
                     .reason = unreachable ? CancelReason::HeartbeatLoss : CancelReason::IoError,
                     .at = cluster_.simulator().now()});
      queue.erase(it);
      continue;
    }
    const NodeId choice = candidates[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
    MigrationSlave& target = slave(choice);
    finish_bind(plane_.bind_entry(it, choice, target.estimator().per_byte_estimate(),
                                  cluster_.simulator().now()),
                target);
  }
}

void MigrationMaster::retarget_now() {
  if (plane_.queue().empty()) return;
  // With every slave out of reach there is no pass: targets stay as they
  // were. Otherwise a pass reads only the replica holders entries name.
  if (std::none_of(pulse_order_.begin(), pulse_order_.end(),
                   [this](const MigrationSlave* s) { return reachable(s->id(), *s); })) {
    return;
  }
  plane_.retarget(
      [this](NodeId id, SlaveSnapshot& out) {
        const MigrationSlave* s = find_slave(id);
        if (s == nullptr || !reachable(id, *s)) return false;
        out = {.node = id,
               .sec_per_byte = s->estimator().per_byte_estimate(),
               .queued_bytes = s->bound_bytes()};
        return true;
      },
      cluster_.simulator().now());
}

bool MigrationMaster::has_work_for(const MigrationSlave& slave) const {
  switch (config_.binding) {
    case MasterConfig::Binding::LateTargeted:
      return plane_.queue().has_targeted(slave.id()) && slave.free_slots() > 0;
    case MasterConfig::Binding::LateAnyReplica:
      return !plane_.queue().empty() && slave.free_slots() > 0;
    case MasterConfig::Binding::EagerRandom: return false;
  }
  return true;
}

void MigrationMaster::pulse() {
  // Slaves are visited in the slaves_ map's order, as always. A slave
  // whose heartbeat would change nothing and that has no work to pull is
  // skipped: visiting it would change nothing either.
  for (MigrationSlave* slave : pulse_order_) {
    const NodeId id = slave->id();
    if (!reachable(id, *slave)) {
      // Once the namenode declares the node dead (heartbeat loss: silent
      // death or partition), work bound there moves back to pending and is
      // retargeted at a surviving replica rather than waiting forever.
      if (!namenode_.available(id)) {
        if (ctr_pulse_visits_ != nullptr) ctr_pulse_visits_->inc();
        reclaim_bound_on(id, CancelReason::HeartbeatLoss);
      }
      continue;
    }
    if (!rebuilding_ && slave->idle() && !has_work_for(*slave)) continue;
    if (ctr_pulse_visits_ != nullptr) ctr_pulse_visits_->inc();
    slave->heartbeat();
    if (rebuilding_) {
      for (BlockId block : slave->buffers().buffered_blocks()) {
        namenode_.register_memory_replica(block, id);
      }
    }
    pull_for(*slave);
  }
  rebuilding_ = false;
}

void MigrationMaster::pull_for(MigrationSlave& slave) {
  if (config_.binding == MasterConfig::Binding::EagerRandom) return;
  for (BoundMigration& bm :
       plane_.bind_for(slave.id(), slave.free_slots(), slave.estimator().per_byte_estimate(),
                       cluster_.simulator().now())) {
    finish_bind(std::move(bm), slave);
  }
}

void MigrationMaster::note_handed(JobId job, const MigrationSlave& slave) {
  std::vector<std::uint64_t>& mask = handed_[job];
  if (mask.empty()) mask.resize((pulse_order_.size() + 63) / 64);
  const std::size_t pos = by_node_[static_cast<std::size_t>(slave.id().value())].position;
  mask[pos / 64] |= std::uint64_t{1} << (pos % 64);
}

void MigrationMaster::finish_bind(BoundMigration bm, MigrationSlave& slave) {
  for (const auto& [job, mode] : bm.jobs) note_handed(job, slave);
  if (ctr_bound_ != nullptr) ctr_bound_->inc();
  if (hist_pending_wait_s_ != nullptr) {
    hist_pending_wait_s_->add(to_seconds(bm.bound_at - bm.requested_at));
  }
  const BlockId block = bm.block;
  if (slave.enqueue(std::move(bm))) {
    bound_[block] = slave.id();
  } else {
    // The block was already buffered there (post-failover rebuild window):
    // no migration runs, so record the memory replica instead of a binding
    // that would never complete.
    namenode_.register_memory_replica(block, slave.id());
  }
}

void MigrationMaster::handle_migration_complete(const MigrationRecord& record) {
  // Only clear the binding if it still points at the reporting node: a
  // partitioned slave may complete work the master meanwhile rebound
  // elsewhere.
  auto it = bound_.find(record.block);
  if (it != bound_.end() && it->second == record.node) bound_.erase(it);
  namenode_.register_memory_replica(record.block, record.node);
  ++completed_;
  bytes_migrated_ += static_cast<double>(record.size);
  const double transfer_s = to_seconds(record.finished_at - record.started_at);
  if (ctr_completed_ != nullptr) {
    ctr_completed_->inc();
    ctr_bytes_->add(static_cast<std::int64_t>(record.size));
    hist_transfer_s_->add(transfer_s);
  }
  plane_.emitter().complete(record.finished_at, record.block, record.node, record.size,
                            transfer_s);
}

void MigrationMaster::handle_evicted(NodeId node, const std::vector<BlockId>& blocks) {
  for (BlockId block : blocks) namenode_.unregister_memory_replica(block, node);
}

void MigrationMaster::handle_slave_crash(NodeId node) {
  MigrationSlave* s = find_slave(node);
  if (s == nullptr) return;
  auto report = s->crash();
  // The new slave process directs the master to drop state about blocks
  // previously buffered on that server (§III-C2).
  namenode_.drop_memory_replicas_on(node);
  for (auto bit = bound_.begin(); bit != bound_.end();) {
    if (bit->second == node) {
      record_cancel({.block = bit->first,
                     .node = node,
                     .reason = CancelReason::SlaveCrash,
                     .at = cluster_.simulator().now()});
      bit = bound_.erase(bit);
    } else {
      ++bit;
    }
  }
  // Migrations that died with the process go back to pending for their
  // still-active jobs. No avoid entry: the disk replica survives a process
  // crash, so the node is a valid target again once it restarts.
  requeue_lost(std::move(report.lost), NodeId::invalid());
}

void MigrationMaster::handle_migration_failed(NodeId node, BoundMigration m) {
  auto bit = bound_.find(m.block);
  if (bit != bound_.end() && bit->second == node) bound_.erase(bit);
  record_cancel({.block = m.block,
                 .node = node,
                 .reason = CancelReason::IoError,
                 .at = cluster_.simulator().now()});
  std::vector<BoundMigration> lost;
  lost.push_back(std::move(m));
  // The node's disk is returning persistent errors for this block: target a
  // surviving replica instead.
  requeue_lost(std::move(lost), node);
}

void MigrationMaster::reclaim_bound_on(NodeId node, CancelReason reason) {
  const MigrationSlave* s = find_slave(node);
  if (s == nullptr) return;
  std::vector<BoundMigration> lost;
  for (auto bit = bound_.begin(); bit != bound_.end();) {
    if (bit->second != node) {
      ++bit;
      continue;
    }
    // Copy, don't cancel: the master cannot reach the node, so the slave
    // keeps working. If it is merely partitioned and later completes, the
    // duplicate migration is benign (handle_migration_complete tolerates a
    // rebound block).
    if (const BoundMigration* m = s->local_migration(bit->first)) {
      lost.push_back(*m);
    }
    record_cancel({.block = bit->first,
                   .node = node,
                   .reason = reason,
                   .at = cluster_.simulator().now()});
    bit = bound_.erase(bit);
  }
  requeue_lost(std::move(lost), node);
}

void MigrationMaster::requeue_lost(std::vector<BoundMigration> lost, NodeId avoid) {
  const int requeued = plane_.requeue(
      std::move(lost), avoid, job_active_,
      [this](JobId job, EvictionMode mode, const BoundMigration& m) {
        add_pending(job, m.block, mode, m.avoid);
      },
      cluster_.simulator().now());
  if (requeued == 0) return;
  requeued_ += requeued;
  if (ctr_requeued_ != nullptr) ctr_requeued_->add(requeued);
  if (config_.binding == MasterConfig::Binding::EagerRandom) {
    eager_bind_all();
  } else if (config_.binding == MasterConfig::Binding::LateTargeted) {
    retarget_now();
  }
}

void MigrationMaster::evict_job(JobId job) {
  // Drop the job from pending migrations first.
  PendingQueue& queue = plane_.queue();
  for (auto it = queue.begin(); it != queue.end();) {
    it->jobs.erase(job);
    if (it->jobs.empty()) {
      record_cancel({.block = it->block,
                     .reason = CancelReason::Superseded,
                     .at = cluster_.simulator().now()});
      it = queue.erase(it);
    } else {
      ++it;
    }
  }
  // Then clear buffer references (and orphaned bound migrations). Only a
  // slave handed one of the job's references can hold one; the others'
  // release would be a no-op. Positions ascend in pulse order.
  if (auto hit = handed_.find(job); hit != handed_.end()) {
    const std::vector<std::uint64_t> mask = std::move(hit->second);
    handed_.erase(hit);
    for (std::size_t w = 0; w < mask.size(); ++w) {
      for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
        pulse_order_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))]->release_job(job);
      }
    }
  }
  for (auto bit = bound_.begin(); bit != bound_.end();) {
    if (slave(bit->second).cancel_for_job(bit->first, job)) {
      record_cancel({.block = bit->first,
                     .node = bit->second,
                     .reason = CancelReason::Superseded,
                     .at = cluster_.simulator().now()});
      bit = bound_.erase(bit);
    } else {
      ++bit;
    }
  }
}

void MigrationMaster::on_blocks_deleted(const std::vector<BlockId>& blocks) {
  for (BlockId block : blocks) {
    if (plane_.queue().erase(block)) {
      record_cancel({.block = block,
                     .reason = CancelReason::Superseded,
                     .at = cluster_.simulator().now()});
      continue;
    }
    auto bit = bound_.find(block);
    if (bit != bound_.end()) {
      slave(bit->second).cancel_block(block);
      record_cancel({.block = block,
                     .node = bit->second,
                     .reason = CancelReason::Superseded,
                     .at = cluster_.simulator().now()});
      bound_.erase(bit);
      continue;
    }
    // Buffered copies: drop from whichever slave holds one. The namenode
    // already cleared its registry entries.
    for (auto& [id, slave] : slaves_) {
      if (slave->buffers().contains(block)) slave->buffers().force_evict(block);
    }
  }
}

void MigrationMaster::on_read_started(BlockId block, JobId job) {
  if (!config_.cancel_missed_reads) return;
  // The read will be served from wherever it resolves *now*; a migration
  // that has not finished can no longer help this job.
  PendingQueue& queue = plane_.queue();
  auto it = queue.find(block);
  if (it != queue.end()) {
    it->jobs.erase(job);
    if (it->jobs.empty()) {
      record_cancel({.block = block,
                     .reason = CancelReason::MissedRead,
                     .at = cluster_.simulator().now()});
      queue.erase(it);
    }
    return;
  }
  auto bit = bound_.find(block);
  if (bit != bound_.end()) {
    if (slave(bit->second).cancel_for_job(block, job)) {
      record_cancel({.block = block,
                     .node = bit->second,
                     .reason = CancelReason::MissedRead,
                     .at = cluster_.simulator().now()});
      bound_.erase(bit);
    }
  }
}

void MigrationMaster::on_read_completed(BlockId block, JobId job, const dfs::ReadInfo& info) {
  if (!dfs::is_memory(info.medium)) return;
  if (MigrationSlave* s = find_slave(info.source)) s->on_block_read(block, job);
}

std::vector<std::pair<BlockId, NodeId>> MigrationMaster::bound_migrations() const {
  std::vector<std::pair<BlockId, NodeId>> out;
  out.reserve(bound_.size());
  for (const auto& [block, node] : bound_) out.emplace_back(block, node);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<BlockId> MigrationMaster::pending_blocks() const {
  std::vector<BlockId> out;
  out.reserve(plane_.queue().size());
  for (const auto& pm : plane_.queue()) out.push_back(pm.block);
  return out;
}

long MigrationMaster::migration_retries() const {
  long total = 0;
  for (const auto& [id, slave] : slaves_) total += slave->retries();
  return total;
}

long MigrationMaster::migration_permanent_failures() const {
  long total = 0;
  for (const auto& [id, slave] : slaves_) total += slave->permanent_failures();
  return total;
}

void MigrationMaster::master_failover() {
  // All master soft state dies with the process. Slave-side state (local
  // queues, in-flight migrations, buffers) survives and re-populates the
  // registry via heartbeat reports.
  plane_.queue().clear();
  bound_.clear();
  // The registry lives logically in the master.
  namenode_.clear_memory_replicas();
  rebuilding_ = true;
  if (tracing()) obs_.emit(obs::TraceEvent(cluster_.simulator().now(), "master_failover"));
}

}  // namespace dyrs::core
