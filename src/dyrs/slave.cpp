#include "dyrs/slave.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/log.h"

namespace dyrs::core {

MigrationSlave::MigrationSlave(sim::Simulator& sim, dfs::DataNode& datanode,
                               SlaveConfig config, const ControlPlaneConfig& policy,
                               Callbacks callbacks)
    : sim_(sim),
      datanode_(datanode),
      config_(config),
      policy_(policy),
      callbacks_(std::move(callbacks)),
      estimator_({.reference_block = config.reference_block,
                  .fallback_rate = datanode.node().disk().bandwidth(),
                  .overdue_correction = config.overdue_correction}),
      buffers_(&datanode.node().memory(), policy.tier, config.memory_limit) {
  DYRS_CHECK(config_.heartbeat_interval > 0);
}

int MigrationSlave::queue_capacity() const {
  // Depth that keeps the disk busy across one pull interval: how many
  // block reads fit in a heartbeat at full disk speed (§III-B). At least 1.
  const SimDuration block_time =
      datanode_.node().disk().unloaded_read_time(config_.reference_block);
  return policy_.queue_depth.depth_for(config_.heartbeat_interval, block_time);
}

int MigrationSlave::free_slots() const {
  // Backing-off migrations re-enter the queue when their timer fires, so
  // they count against the binding capacity too.
  return std::max(0, queue_capacity() - queued_count() - backoff_count());
}

Bytes MigrationSlave::bound_bytes() const {
  Bytes total = 0;
  for (const auto& m : queue_) total += m.size;
  for (const auto& [block, a] : active_) total += a.m.size;
  for (const auto& [block, b] : backoff_) total += b.m.size;
  return total;
}

bool MigrationSlave::enqueue(BoundMigration m) {
  DYRS_CHECK_MSG(datanode_.has_block(m.block),
                 "slave " << id() << " asked to migrate non-local block " << m.block);
  DYRS_CHECK_MSG(!has_local_migration(m.block),
                 "block " << m.block << " already bound to slave " << id());
  if (buffers_.contains(m.block)) {
    // Already in memory (another job migrated it earlier): just reference.
    buffers_.add_refs(m.block, m.jobs);
    return false;
  }
  queue_.push_back(std::move(m));
  maybe_start();
  return true;
}

bool MigrationSlave::has_local_migration(BlockId block) const {
  if (active_.count(block) || backoff_.count(block)) return true;
  return std::any_of(queue_.begin(), queue_.end(),
                     [block](const BoundMigration& m) { return m.block == block; });
}

const BoundMigration* MigrationSlave::local_migration(BlockId block) const {
  auto it = active_.find(block);
  if (it != active_.end()) return &it->second.m;
  auto bit = backoff_.find(block);
  if (bit != backoff_.end()) return &bit->second.m;
  auto qit = std::find_if(queue_.begin(), queue_.end(),
                          [block](const BoundMigration& m) { return m.block == block; });
  return qit == queue_.end() ? nullptr : &*qit;
}

bool MigrationSlave::add_refs_if_local(BlockId block, const std::map<JobId, EvictionMode>& jobs) {
  auto it = active_.find(block);
  if (it != active_.end()) {
    for (const auto& [job, mode] : jobs) it->second.m.jobs[job] = mode;
    buffers_.add_refs(block, jobs);  // reservation already installed refs
    return true;
  }
  auto bit = backoff_.find(block);
  if (bit != backoff_.end()) {
    for (const auto& [job, mode] : jobs) bit->second.m.jobs[job] = mode;
    return true;
  }
  auto qit = std::find_if(queue_.begin(), queue_.end(),
                          [block](const BoundMigration& m) { return m.block == block; });
  if (qit == queue_.end()) return false;
  for (const auto& [job, mode] : jobs) qit->jobs[job] = mode;
  return true;
}

bool MigrationSlave::cancel_for_job(BlockId block, JobId job) {
  auto it = active_.find(block);
  if (it != active_.end()) {
    it->second.m.jobs.erase(job);
    if (!it->second.m.jobs.empty()) return false;  // others still want it
    return cancel_block(block);
  }
  auto bit = backoff_.find(block);
  if (bit != backoff_.end()) {
    bit->second.m.jobs.erase(job);
    if (!bit->second.m.jobs.empty()) return false;
    return cancel_block(block);
  }
  auto qit = std::find_if(queue_.begin(), queue_.end(),
                          [block](const BoundMigration& m) { return m.block == block; });
  if (qit == queue_.end()) return false;
  qit->jobs.erase(job);
  if (!qit->jobs.empty()) return false;
  return cancel_block(block);
}

void MigrationSlave::maybe_start() {
  if (!datanode_.serving()) return;
  if (config_.serialize_migrations) {
    while (active_.empty() && !queue_.empty()) {
      BoundMigration next = std::move(queue_.front());
      queue_.pop_front();
      if (!start_migration(std::move(next))) break;  // stalled: requeued at front
    }
  } else {
    // Ignem-style: launch queued work concurrently, up to the cap.
    while (!queue_.empty() &&
           (config_.max_concurrent_migrations <= 0 ||
            static_cast<int>(active_.size()) < config_.max_concurrent_migrations)) {
      BoundMigration next = std::move(queue_.front());
      queue_.pop_front();
      if (!start_migration(std::move(next))) break;
    }
  }
}

bool MigrationSlave::start_migration(BoundMigration m) {
  // Reserve memory up front: mlock consumes pages as it reads. Under
  // EvictColdFirst (or past the high watermark) the reservation may demote
  // cold resident blocks to disk; with the default refuse policy a full
  // buffer stalls the queue until an eviction or a missed-read
  // cancellation makes room (§IV-A1).
  std::vector<BufferManager::Demotion> demoted;
  const bool admitted = buffers_.try_add(m.block, m.size, m.jobs, &demoted);
  process_demotions(demoted);
  if (!admitted) {
    stalled_ = true;
    queue_.push_front(std::move(m));
    return false;
  }
  stalled_ = false;
  const BlockId block = m.block;
  const Bytes size = m.size;
  const int attempt = m.attempts + 1;
  Active active;
  active.m = std::move(m);
  active.started_at = sim_.now();
  active.flow = datanode_.node().disk().start_io(
      cluster::IoClass::MigrationRead, size,
      [this, block](SimTime t) { finish_migration(block, t); });
  active_.emplace(block, std::move(active));
  emitter_.transfer_start(sim_.now(), block, id(), size, attempt);
  return true;
}

void MigrationSlave::finish_migration(BlockId block, SimTime finished) {
  auto it = active_.find(block);
  DYRS_CHECK(it != active_.end());
  // Fault injection: the read may have hit a transient I/O error, in which
  // case the time was spent but no usable data arrived.
  if (datanode_.migration_read_fault && datanode_.migration_read_fault()) {
    fail_migration(block);
    return;
  }
  const Active& a = it->second;
  buffers_.mark_resident(block);  // data fully arrived; demotable from now on
  const double duration_s = to_seconds(finished - a.started_at);
  estimator_.on_complete(a.m.size, duration_s);

  MigrationRecord record;
  record.block = block;
  record.node = id();
  record.size = a.m.size;
  record.started_at = a.started_at;
  record.finished_at = finished;
  active_.erase(it);
  ++completed_;
  if (callbacks_.on_complete) callbacks_.on_complete(record);
  maybe_start();
}

void MigrationSlave::fail_migration(BlockId block) {
  auto it = active_.find(block);
  DYRS_CHECK(it != active_.end());
  BoundMigration m = std::move(it->second.m);
  active_.erase(it);
  buffers_.force_evict(block);  // drop the partially-read pages
  ++m.attempts;
  if (policy_.retry.exhausted(m.attempts)) {
    ++permanent_failures_;
    DYRS_LOG(Debug, "slave") << "node " << id() << " giving up on block " << block << " after "
                             << m.attempts << " attempts";
    emitter_.transfer_failed(sim_.now(), block, id(), m.attempts);
    if (callbacks_.on_failed) callbacks_.on_failed(id(), std::move(m));
  } else {
    ++retries_;
    const SimDuration delay = policy_.retry.backoff_for(m.attempts);
    emitter_.transfer_retry(sim_.now(), block, id(), m.attempts, delay);
    Backoff b;
    b.m = std::move(m);
    b.timer = sim_.schedule_after(delay, [this, block]() { retry_now(block); });
    backoff_.emplace(block, std::move(b));
  }
  maybe_start();
}

void MigrationSlave::retry_now(BlockId block) {
  auto it = backoff_.find(block);
  if (it == backoff_.end()) return;  // cancelled meanwhile
  BoundMigration m = std::move(it->second.m);
  backoff_.erase(it);
  queue_.push_back(std::move(m));
  maybe_start();
}

bool MigrationSlave::cancel_block(BlockId block) {
  auto it = active_.find(block);
  if (it != active_.end()) {
    datanode_.node().disk().cancel(it->second.flow);
    active_.erase(it);
    buffers_.force_evict(block);  // releases the reserved pages
    maybe_start();
    return true;
  }
  auto bit = backoff_.find(block);
  if (bit != backoff_.end()) {
    bit->second.timer.cancel();
    backoff_.erase(bit);  // no buffer held: it was evicted on failure
    return true;
  }
  auto qit = std::find_if(queue_.begin(), queue_.end(),
                          [block](const BoundMigration& m) { return m.block == block; });
  if (qit != queue_.end()) {
    queue_.erase(qit);
    // Dropping a queued entry can unstall admission for the new head.
    maybe_start();
    return true;
  }
  return false;
}

void MigrationSlave::heartbeat() {
  if (!datanode_.serving()) return;
  // Overdue correction: fold in the elapsed time of in-flight migrations
  // that have outlived their estimate (§IV-A).
  for (const auto& [block, a] : active_) {
    estimator_.on_overdue(a.m.size, to_seconds(sim_.now() - a.started_at));
  }
  // Threshold-triggered scavenge of references held by dead jobs.
  if (job_active_query && buffers_.over_threshold(config_.scavenge_threshold)) {
    report_evicted(buffers_.scavenge(job_active_query));
  }
  if (gauge_memory_used_ != nullptr) {
    gauge_memory_used_->set(static_cast<double>(buffers_.used()));
  }
  if (stalled_ || (!queue_.empty() && (!config_.serialize_migrations || active_.empty()))) {
    maybe_start();
  }
}

bool MigrationSlave::idle() const {
  return active_.empty() && queue_.empty() && !stalled_ &&
         !(job_active_query && buffers_.over_threshold(config_.scavenge_threshold)) &&
         (gauge_memory_used_ == nullptr ||
          gauge_memory_used_->value() == static_cast<double>(buffers_.used()));
}

void MigrationSlave::process_demotions(const std::vector<BufferManager::Demotion>& demoted) {
  if (demoted.empty()) return;
  std::vector<BlockId> evicted;
  for (const auto& d : demoted) {
    ++demotions_;
    if (ctr_demotions_ != nullptr) ctr_demotions_->inc();
    emitter_.demote(sim_.now(), d.block, id(), d.size);
    evicted.push_back(d.block);
  }
  if (gauge_memory_used_ != nullptr) {
    gauge_memory_used_->set(static_cast<double>(buffers_.used()));
  }
  // Demoted blocks fell back to disk: the master must unregister their
  // replicas. Call the callback directly — demotions run inside an
  // admission attempt, so no unstall kick (report_evicted's job) is needed
  // or safe here.
  if (callbacks_.on_evicted) callbacks_.on_evicted(id(), evicted);
}

void MigrationSlave::report_evicted(const std::vector<BlockId>& evicted) {
  if (evicted.empty()) return;
  if (callbacks_.on_evicted) callbacks_.on_evicted(id(), evicted);
  // Freed memory may unstall the queue.
  if (stalled_) maybe_start();
}

std::vector<BlockId> MigrationSlave::release_job(JobId job) {
  auto evicted = buffers_.release_job(job);
  report_evicted(evicted);
  return evicted;
}

std::vector<BlockId> MigrationSlave::on_block_read(BlockId block, JobId job) {
  auto evicted = buffers_.on_block_read(block, job);
  report_evicted(evicted);
  return evicted;
}

MigrationSlave::CrashReport MigrationSlave::crash() {
  CrashReport report;
  // Abort in-flight migrations and drop their partial buffers first, so
  // the buffered list names only *completed* blocks the master may have
  // registered as in-memory replicas.
  for (auto& [block, a] : active_) {
    datanode_.node().disk().cancel(a.flow);
    buffers_.force_evict(block);
    report.lost.push_back(std::move(a.m));
  }
  active_.clear();
  for (auto& [block, b] : backoff_) {
    b.timer.cancel();
    report.lost.push_back(std::move(b.m));
  }
  backoff_.clear();
  for (auto& m : queue_) report.lost.push_back(std::move(m));
  queue_.clear();
  stalled_ = false;
  report.buffered = buffers_.clear_all();
  return report;
}

}  // namespace dyrs::core
