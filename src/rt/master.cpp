#include "rt/master.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "rt/rt_trace.h"

namespace dyrs::rt {

thread_local std::uint64_t RtMaster::stamp_cycle_ = 0;

namespace {

/// Slaves pull, so the rt master binds only late to Algorithm 1 targets;
/// and it traces each target once, at bind time, because intermediate
/// retarget passes follow thread timing. Runs in the member initializers,
/// before any slave thread starts.
core::ControlPlaneConfig rt_plane_config(core::ControlPlaneConfig policy) {
  DYRS_CHECK_MSG(policy.binding == core::Binding::LateTargeted,
                 "the rt master binds late to Algorithm 1 targets only, not "
                     << core::to_string(policy.binding));
  policy.target_trace = core::ControlPlaneConfig::TargetTrace::AtBind;
  return policy;
}

}  // namespace

RtMaster::RtMaster(Options options)
    : options_(std::move(options)), plane_(rt_plane_config(options_)) {
  DYRS_CHECK(!options_.slaves.empty());
  ctr_completed_ = options_.obs.counter("rt.migrations.completed");
  ctr_cancelled_ = options_.obs.counter("rt.migrations.cancelled");
  ctr_requeued_ = options_.obs.counter("rt.migrations.requeued");
  ctr_retarget_passes_ = options_.obs.counter("rt.retarget.passes");
  ctr_pulls_ = options_.obs.counter("rt.pulls");
  ctr_nodes_dead_ = options_.obs.counter("rt.nodes.declared_dead");
  ctr_nodes_rejoined_ = options_.obs.counter("rt.nodes.rejoined");
  // Master-lane lifecycle events (tid 0) stamp a lock-free tseq; causally
  // ordered same-block emissions synchronize through the block's shard (or
  // mu_), so their tseqs respect the lifecycle order. The cycle comes from
  // the per-block counter, or from the thread-local override when settling
  // an older cycle's migration.
  plane_.set_observability(
      options_.obs, [this](obs::TraceEvent& e, BlockId block, int rank) {
        const std::uint64_t cycle = stamp_cycle_ != 0 ? stamp_cycle_ : cycle_for(block);
        e.with("lseq", rt_lseq(cycle, rank))
            .with("tid", 0)
            .with("tseq", static_cast<std::int64_t>(
                              trace_seq_.fetch_add(1, std::memory_order_relaxed) + 1));
      });
  // Each RtSlave starts its worker in its constructor, and the worker's
  // first pull() reads `slaves_` under mu_ — so registration must hold mu_
  // too, or a pull racing the remaining emplaces reads a rehashing map.
  // Workers block on the lock until the whole set is registered; no slave
  // method is called here, so the master→slave lock order is respected.
  {
    std::lock_guard lock(mu_);
    for (auto slave_opts : options_.slaves) {
      // Slaves share the master's context and timestamp origin, so all trace
      // emitters agree on the epoch.
      slave_opts.obs = options_.obs;
      slave_opts.trace_epoch = epoch_;
      auto slave = std::make_unique<RtSlave>(
          slave_opts, options_,
          [this](std::vector<RtMigrationDone> dones) { on_complete(std::move(dones)); },
          [this](RtSlave& slave, int space) { pull(slave, space); },
          [this](NodeId node, RtMigration m) { on_failed(node, std::move(m)); });
      node_order_.push_back(slave_opts.node);
      slaves_.emplace(slave_opts.node, std::move(slave));
    }
    // The slave set is fixed for the master's lifetime: one deterministic
    // snapshot order, computed once instead of per retarget pass.
    std::sort(node_order_.begin(), node_order_.end());
    for (NodeId id : node_order_) {
      health_[id] = NodeState::Alive;
      per_node_.try_emplace(id);
    }
  }
  retargeter_ = std::jthread([this](std::stop_token st) { retarget_loop(st); });
  if (options_.failure_detection.enabled) {
    monitor_ = std::jthread([this](std::stop_token st) { monitor_loop(st); });
  }
}

std::int64_t RtMaster::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

RtMaster::SettleShard& RtMaster::shard_for(BlockId block) const {
  return shards_[static_cast<std::size_t>(block.value()) % kSettleShards];
}

RtMaster::SettleShard& RtMaster::shard_for(JobId job) const {
  return shards_[static_cast<std::size_t>(job.value()) % kSettleShards];
}

std::uint64_t RtMaster::cycle_for(BlockId block) const {
  SettleShard& sh = shard_for(block);
  std::lock_guard slock(sh.mu);
  auto it = sh.cycle.find(block);
  return it == sh.cycle.end() ? 1 : it->second;
}

RtMaster::~RtMaster() { shutdown(); }

void RtMaster::shutdown() {
  if (shut_down_.exchange(true)) return;
  // Wake wait_idle() callers: remaining work will never drain once the
  // slaves stop. The lock round-trip orders the wakeup after the predicate
  // re-check, so a concurrent waiter cannot miss it.
  {
    std::lock_guard lock(mu_);
  }
  idle_cv_.notify_all();
  monitor_.request_stop();
  if (monitor_.joinable()) monitor_.join();
  retargeter_.request_stop();
  if (retargeter_.joinable()) retargeter_.join();
  for (auto& [id, slave] : slaves_) slave->stop();
}

RtSlave& RtMaster::slave(NodeId id) {
  auto it = slaves_.find(id);
  DYRS_CHECK_MSG(it != slaves_.end(), "no rt slave " << id);
  return *it->second;
}

void RtMaster::enqueue_locked(JobId job, core::EvictionMode mode, BlockId block, Bytes size,
                              const std::vector<NodeId>& replicas,
                              const std::vector<NodeId>& avoid) {
  // A new entry opens a new lifecycle: bump the cycle *before* the control
  // plane emits mig_enqueue so the stamper keys it correctly (the shard
  // lock is released first — the stamper reacquires it). Merges join the
  // lifecycle already open.
  if (!plane_.queue().contains(block)) {
    SettleShard& sh = shard_for(block);
    std::lock_guard slock(sh.mu);
    ++sh.cycle[block];
  }
  const auto r = plane_.enqueue(job, mode, block, size, replicas, avoid, now_us());
  if (r.created) outstanding_.fetch_add(1, std::memory_order_relaxed);
}

void RtMaster::migrate(const std::vector<RtBlock>& blocks) {
  {
    std::lock_guard lock(mu_);
    for (const auto& b : blocks) {
      enqueue_locked(b.job, core::EvictionMode::Explicit, b.block, b.size, b.replicas, {});
    }
    sample_estimates_locked();
    retarget_locked();
  }
  for (auto& [id, slave] : slaves_) slave->poke();
}

void RtMaster::sample_estimates_locked() {
  if (!tracing()) return;
  const std::int64_t now = now_us();
  for (NodeId id : node_order_) {
    RtSlave& s = *slaves_.at(id);
    obs::TraceEvent e(now, "sample");
    e.with("name", "node" + std::to_string(id.value()) + ".dyrs.est_s_per_block")
        .with("value", s.sec_per_byte() * static_cast<double>(s.reference_block()))
        .with("lseq", 0)
        .with("tid", 0)
        .with("tseq", static_cast<std::int64_t>(++trace_seq_));
    options_.obs.emit(e);
  }
}

void RtMaster::retarget_locked() {
  if (plane_.queue().empty()) return;
  if (ctr_retarget_passes_ != nullptr) ctr_retarget_passes_->inc();
  std::vector<core::SlaveSnapshot> snapshots;
  snapshots.reserve(node_order_.size());
  for (NodeId id : node_order_) {
    // Declared-dead nodes leave the eligible set; Algorithm 1 only ranks
    // survivors until their heartbeats resume (rejoin re-admits them).
    if (node_dead_locked(id)) continue;
    RtSlave& s = *slaves_.at(id);
    snapshots.push_back(
        {.node = id, .sec_per_byte = s.sec_per_byte(), .queued_bytes = s.bound_bytes()});
  }
  if (snapshots.empty()) return;  // every node is down: nothing to rank
  plane_.retarget(snapshots, now_us());
}

bool RtMaster::node_dead_locked(NodeId node) const {
  auto it = health_.find(node);
  return it != health_.end() && it->second == NodeState::Dead;
}

RtMaster::NodeState RtMaster::node_state(NodeId id) const {
  std::lock_guard lock(mu_);
  auto it = health_.find(id);
  return it == health_.end() ? NodeState::Alive : it->second;
}

void RtMaster::emit_node_state_locked(NodeId node, const char* state) {
  if (!tracing()) return;
  obs::TraceEvent e(now_us(), "node_state");
  e.with("node", node.value())
      .with("state", state)
      .with("lseq", 0)
      .with("tid", 0)
      .with("tseq", static_cast<std::int64_t>(++trace_seq_));
  options_.obs.emit(e);
}

void RtMaster::declare_dead_locked(NodeId node) {
  health_[node] = NodeState::Dead;
  emit_node_state_locked(node, "dead");
  if (ctr_nodes_dead_ != nullptr) ctr_nodes_dead_->inc();
  // Reclaim what was bound there: every unsettled lifecycle aborts with
  // heartbeat-loss and its block requeues through the control plane with
  // the dead node on the avoid list — Algorithm 1 then re-targets the
  // survivors. The registry is scanned shard by shard; a completion that
  // wins its shard's lock first settles normally and is simply absent
  // here, one that loses finds its record gone and drops as a zombie —
  // per report member, never per report. Sorted by block so the requeue
  // order (and therefore the downstream binding order) is deterministic.
  std::vector<BoundRec> recs;
  for (SettleShard& sh : shards_) {
    std::lock_guard slock(sh.mu);
    for (auto it = sh.bound.begin(); it != sh.bound.end();) {
      if (it->second.node == node) {
        recs.push_back(std::move(it->second));
        it = sh.bound.erase(it);
      } else {
        ++it;
      }
    }
  }
  std::sort(recs.begin(), recs.end(),
            [](const BoundRec& a, const BoundRec& b) { return a.m.block < b.m.block; });
  std::vector<core::BoundMigration> lost;
  lost.reserve(recs.size());
  for (BoundRec& rec : recs) {
    stamp_cycle_ = rec.cycle;
    plane_.emitter().abort({.block = rec.m.block,
                            .node = node,
                            .reason = core::CancelReason::HeartbeatLoss,
                            .at = now_us()});
    stamp_cycle_ = 0;
    // Each reclaimed lifecycle settled; requeues reopen. mu_ is held, so
    // wait_idle cannot observe the transient dip.
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
    lost.push_back(std::move(rec.m));
  }
  const int n = plane_.requeue(
      std::move(lost), node, nullptr,
      [this](JobId job, core::EvictionMode mode, const core::BoundMigration& m) {
        enqueue_locked(job, mode, m.block, m.size, m.replicas, m.avoid);
      },
      now_us());
  if (n > 0) {
    requeued_.fetch_add(n, std::memory_order_relaxed);
    if (ctr_requeued_ != nullptr) ctr_requeued_->add(n);
  }
  drop_untargetable_locked();
  sample_estimates_locked();
  retarget_locked();
  if (outstanding_.load(std::memory_order_acquire) == 0) idle_cv_.notify_all();
}

void RtMaster::check_health() {
  const auto& fd = options_.failure_detection;
  const std::int64_t suspect_us =
      std::chrono::duration_cast<std::chrono::microseconds>(fd.suspect_after).count();
  const std::int64_t dead_us =
      std::chrono::duration_cast<std::chrono::microseconds>(fd.declare_dead_after).count();
  bool poke_slaves = false;
  {
    std::lock_guard lock(mu_);
    const std::int64_t now = now_us();
    for (NodeId id : node_order_) {
      const std::int64_t age = now - slaves_.at(id)->last_heartbeat_us();
      NodeState& state = health_[id];
      switch (state) {
        case NodeState::Alive:
        case NodeState::Suspect:
          if (age >= dead_us) {
            declare_dead_locked(id);
            poke_slaves = true;  // survivors should pull the requeued work
          } else if (age >= suspect_us) {
            if (state != NodeState::Suspect) {
              state = NodeState::Suspect;
              emit_node_state_locked(id, "suspect");
            }
          } else if (state != NodeState::Alive) {
            state = NodeState::Alive;
            emit_node_state_locked(id, "alive");
          }
          break;
        case NodeState::Dead:
          // Rejoin: heartbeats resumed (partition healed, process
          // restarted) — re-admit the node to the eligible set.
          if (age < suspect_us) {
            state = NodeState::Alive;
            emit_node_state_locked(id, "alive");
            if (ctr_nodes_rejoined_ != nullptr) ctr_nodes_rejoined_->inc();
            retarget_locked();
            poke_slaves = true;
          }
          break;
      }
    }
  }
  // Slave locks only after the master lock is released (fixed lock order).
  if (poke_slaves) {
    for (auto& [id, slave] : slaves_) slave->poke();
  }
}

void RtMaster::monitor_loop(std::stop_token st) {
  std::mutex sleep_mu;
  std::condition_variable_any cv;
  while (!st.stop_requested()) {
    check_health();
    std::unique_lock lock(sleep_mu);
    cv.wait_for(lock, st, options_.failure_detection.monitor_interval, [] { return false; });
  }
}

void RtMaster::retarget_loop(std::stop_token st) {
  // Stop-token-aware sleep: shutdown must not wait out the interval (an
  // operator can set it to seconds to pin targets between passes). It comes
  // before the first pass: every enqueue path runs its own, and a startup
  // pass landing late would re-target by timing rather than policy.
  std::mutex sleep_mu;
  std::condition_variable_any cv;
  std::unique_lock sleep(sleep_mu);
  while (!cv.wait_for(sleep, st, options_.retarget_interval,
                      [&st] { return st.stop_requested(); })) {
    std::lock_guard lock(mu_);
    retarget_locked();
  }
}

void RtMaster::pull(RtSlave& slave, int space) {
  if (ctr_pulls_ != nullptr) ctr_pulls_->inc();
  const NodeId node = slave.id();
  std::vector<RtMigration> bound;
  std::lock_guard lock(mu_);
  // A declared-dead node gets nothing: its bound work was reclaimed, and a
  // zombie worker (partitioned, not crashed) must not double-bind blocks.
  // Rejoin re-admits it before the next pull can succeed.
  if (node_dead_locked(node)) return;
  // The control plane emits `mig_target` once here, for the decision that
  // stuck (AtBind profile): intermediate retarget passes are
  // timing-dependent and would make the event count nondeterministic.
  // Binding happens in the same step — the pull IS the bind — so
  // `mig_bind`'s wait_us is exactly bind-time minus enqueue-time.
  for (core::BoundMigration& bm : plane_.bind_for(node, space, slave.sec_per_byte(), now_us())) {
    // Register the binding so the failure detector can reclaim it if this
    // node goes silent before settling it.
    SettleShard& sh = shard_for(bm.block);
    std::uint64_t cycle = 1;
    {
      std::lock_guard slock(sh.mu);
      cycle = sh.cycle.at(bm.block);
      sh.bound[bm.block] = BoundRec{bm, node, cycle};
    }
    bound.push_back({std::move(bm), cycle});
  }
  // The hand-off happens under mu_ (master -> slave, the order
  // retarget_locked uses): a block that just left the pending list is
  // already in the slave's queue when cancel() or evict_job() looks for it.
  if (!bound.empty()) slave.accept(std::move(bound));
}

bool RtMaster::settle_bound(BlockId block, NodeId node, std::uint64_t cycle) {
  SettleShard& sh = shard_for(block);
  std::lock_guard slock(sh.mu);
  auto it = sh.bound.find(block);
  if (it == sh.bound.end() || it->second.node != node || it->second.cycle != cycle) {
    // Zombie report: this binding was already reclaimed (declared-dead
    // requeue) — the lifecycle settled elsewhere, so the late completion
    // or failure from the silent node must be dropped, not double-counted.
    return false;
  }
  sh.bound.erase(it);
  return true;
}

void RtMaster::settle_outstanding(long n) {
  if (outstanding_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    // Lock round-trip so the wakeup orders after a concurrent waiter's
    // predicate re-check (same pattern as shutdown()).
    { std::lock_guard lock(mu_); }
    idle_cv_.notify_all();
  }
}

void RtMaster::on_complete(std::vector<RtMigrationDone> dones) {
  long n = 0;
  const std::int64_t now = now_us();
  for (const RtMigrationDone& done : dones) {
    // Zombie suppression is keyed on each member's (block, node, cycle): a
    // member whose binding was reclaimed during a partition window drops
    // here while the rest of its report settles exactly once.
    SettleShard& sh = shard_for(done.block);
    {
      std::lock_guard slock(sh.mu);
      auto it = sh.bound.find(done.block);
      if (it == sh.bound.end() || it->second.node != done.node ||
          it->second.cycle != done.cycle) {
        continue;
      }
      sh.bound.erase(it);
    }
    // Each job counts in its own stripe, so a job's blocks share one entry.
    // Counted before completed_ moves: a poller that reads completed()
    // first then finds the job counted.
    for (const auto& [job, mode] : done.jobs) {
      SettleShard& jsh = shard_for(job);
      std::lock_guard jlock(jsh.mu);
      ++jsh.per_job[job];
    }
    if (ctr_completed_ != nullptr) ctr_completed_->inc();
    completed_.fetch_add(1, std::memory_order_relaxed);
    per_node_.at(done.node).fetch_add(1, std::memory_order_relaxed);
    ++n;
    // Outside every shard lock, stamped with the member's own cycle, so how
    // many members a report carried stays invisible in the merge key.
    stamp_cycle_ = done.cycle;
    plane_.emitter().complete(now, done.block, done.node, done.size, done.duration_s);
    stamp_cycle_ = 0;
  }
  if (n > 0) settle_outstanding(n);
}

void RtMaster::on_failed(NodeId node, RtMigration mig) {
  bool requeued = false;
  {
    std::lock_guard lock(mu_);
    if (!settle_bound(mig.m.block, node, mig.cycle)) return;
    stamp_cycle_ = mig.cycle;
    plane_.emitter().abort({.block = mig.m.block,
                            .node = node,
                            .reason = core::CancelReason::IoError,
                            .at = now_us()});
    stamp_cycle_ = 0;
    std::vector<core::BoundMigration> lost;
    lost.push_back(std::move(mig.m));
    const int n = plane_.requeue(
        std::move(lost), node, nullptr,
        [this](JobId job, core::EvictionMode mode, const core::BoundMigration& m) {
          enqueue_locked(job, mode, m.block, m.size, m.replicas, m.avoid);
        },
        now_us());
    // The failed lifecycle settled; a requeue opened a new one (net zero).
    --outstanding_;
    if (n > 0) {
      requeued_ += n;
      if (ctr_requeued_ != nullptr) ctr_requeued_->add(n);
      drop_untargetable_locked();
      sample_estimates_locked();
      retarget_locked();
      requeued = true;
    }
    if (outstanding_ == 0) idle_cv_.notify_all();
  }
  if (requeued) {
    for (auto& [id, slave] : slaves_) slave->poke();
  }
}

void RtMaster::drop_untargetable_locked() {
  core::PendingQueue& queue = plane_.queue();
  for (auto it = queue.begin(); it != queue.end();) {
    bool targetable = false;
    for (NodeId n : it->replicas) {
      if (std::find(it->avoid.begin(), it->avoid.end(), n) != it->avoid.end()) continue;
      if (slaves_.count(n) != 0) {
        targetable = true;
        break;
      }
    }
    if (targetable) {
      ++it;
      continue;
    }
    // Every replica holder has permanently failed this block: nothing can
    // ever bind it, and wait_idle() must not hang on it.
    plane_.emitter().abort(
        {.block = it->block, .reason = core::CancelReason::IoError, .at = now_us()});
    if (ctr_cancelled_ != nullptr) ctr_cancelled_->inc();
    it = queue.erase(it);
    --outstanding_;
  }
}

bool RtMaster::cancel(BlockId block) {
  {
    std::lock_guard lock(mu_);
    auto it = plane_.queue().find(block);
    if (it != plane_.queue().end()) {
      plane_.queue().erase(it);
      if (ctr_cancelled_ != nullptr) ctr_cancelled_->inc();
      plane_.emitter().abort(
          {.block = block, .reason = core::CancelReason::MissedRead, .at = now_us()});
      if (--outstanding_ == 0) idle_cv_.notify_all();
      return true;
    }
  }
  // Bound somewhere: ask each slave. Slave locks are acquired after the
  // master lock is released, so the master->slave order never inverts.
  for (auto& [id, slave] : slaves_) {
    if (slave->cancel(block)) {
      if (ctr_cancelled_ != nullptr) ctr_cancelled_->inc();
      std::lock_guard lock(mu_);
      {
        // Shard lock released before the abort emission: the stamper reads
        // the cycle through cycle_for, which takes the same shard lock.
        SettleShard& sh = shard_for(block);
        std::lock_guard slock(sh.mu);
        auto it = sh.bound.find(block);
        if (it != sh.bound.end() && it->second.node == id) sh.bound.erase(it);
      }
      plane_.emitter().abort({.block = block,
                              .node = id,
                              .reason = core::CancelReason::MissedRead,
                              .at = now_us()});
      if (--outstanding_ == 0) idle_cv_.notify_all();
      return true;
    }
  }
  return false;
}

void RtMaster::evict_job(JobId job) {
  {
    std::lock_guard lock(mu_);
    core::PendingQueue& queue = plane_.queue();
    for (auto it = queue.begin(); it != queue.end();) {
      it->jobs.erase(job);
      if (!it->jobs.empty()) {
        ++it;
        continue;
      }
      plane_.emitter().abort(
          {.block = it->block, .reason = core::CancelReason::Superseded, .at = now_us()});
      if (ctr_cancelled_ != nullptr) ctr_cancelled_->inc();
      it = queue.erase(it);
      if (--outstanding_ == 0) idle_cv_.notify_all();
    }
  }
  // Bound migrations keep running for their other jobs (or settle
  // unreferenced); buffers nobody references anymore are freed.
  for (auto& [id, slave] : slaves_) slave->drop_job(job);
}

bool RtMaster::wait_idle(std::chrono::milliseconds timeout) {
  std::unique_lock lock(mu_);
  idle_cv_.wait_for(lock, timeout,
                    [this] { return outstanding_ == 0 || shut_down_.load(); });
  return outstanding_ == 0;
}

std::size_t RtMaster::pending() const {
  std::lock_guard lock(mu_);
  return plane_.queue().size();
}

long RtMaster::completed() const { return completed_.load(std::memory_order_relaxed); }

long RtMaster::requeued() const { return requeued_.load(std::memory_order_relaxed); }

std::unordered_map<NodeId, long> RtMaster::completed_per_node() const {
  // Lock-free snapshot: the key set is fixed at construction, so iterating
  // concurrently with worker-thread fetch_adds is safe — pollers never
  // stall a pull.
  std::unordered_map<NodeId, long> out;
  out.reserve(per_node_.size());
  for (const auto& [id, n] : per_node_) out.emplace(id, n.load(std::memory_order_relaxed));
  return out;
}

std::unordered_map<JobId, long> RtMaster::completed_per_job() const {
  // Per-job accounting lives in the job's stripe; the snapshot aggregates
  // shard by shard without ever touching mu_.
  std::unordered_map<JobId, long> out;
  for (const SettleShard& sh : shards_) {
    std::lock_guard slock(sh.mu);
    for (const auto& [job, n] : sh.per_job) out[job] += n;
  }
  return out;
}

std::vector<std::pair<BlockId, NodeId>> RtMaster::binding_log() const {
  std::lock_guard lock(mu_);
  return plane_.binding_log();
}

}  // namespace dyrs::rt
