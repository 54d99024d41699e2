#include "rt/slave.h"

#include <chrono>
#include <optional>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"
#include "rt/rt_trace.h"

namespace dyrs::rt {

RtSlave::Options RtSlave::resolve(Options options, const core::QueueDepthPolicy& depth) {
  if (options.queue_capacity == 0) {
    // §III-B depth: block reads per heartbeat at the unloaded disk rate —
    // the same heuristic the sim slave applies, via the shared policy.
    const auto heartbeat = std::chrono::duration_cast<std::chrono::microseconds>(
        options.heartbeat_interval);
    const auto block_time = static_cast<SimDuration>(
        static_cast<double>(options.reference_block) / options.disk_bandwidth * 1e6);
    options.queue_capacity =
        depth.depth_for(static_cast<SimDuration>(heartbeat.count()), block_time);
  }
  return options;
}

RtSlave::RtSlave(Options options, const core::ControlPlaneConfig& policy,
                 std::function<void(std::vector<RtMigrationDone>)> on_complete,
                 std::function<void(RtSlave&, int)> pull,
                 std::function<void(NodeId, RtMigration)> on_failed)
    : options_(resolve(std::move(options), policy.queue_depth)),
      policy_(policy),
      epoch_(options_.trace_epoch == std::chrono::steady_clock::time_point{}
                 ? std::chrono::steady_clock::now()
                 : options_.trace_epoch),
      disk_(options_.disk_bandwidth),
      ssd_(options_.ssd_bandwidth),
      on_complete_(std::move(on_complete)),
      pull_(std::move(pull)),
      on_failed_(std::move(on_failed)),
      pull_latency_(options_.obs.histogram(
          "node" + std::to_string(options_.node.value()) + ".rt.pull_us")),
      gauge_memory_used_(options_.obs.gauge(
          "node" + std::to_string(options_.node.value()) + ".tier.memory.used_bytes")),
      gauge_ssd_used_(options_.obs.gauge(
          "node" + std::to_string(options_.node.value()) + ".tier.ssd.used_bytes")),
      ctr_demotions_(options_.obs.counter("dyrs.migrations.demoted")),
      estimator_({.ewma_alpha = options_.ewma_alpha,
                  .reference_block = options_.reference_block,
                  .fallback_rate = options_.disk_bandwidth,
                  .overdue_correction = true}),
      mem_tier_(Tier::Memory, options_.memory_capacity, gib_per_sec(100)),
      ssd_tier_(Tier::Ssd, options_.ssd_capacity, options_.ssd_bandwidth),
      buffers_(mem_tier_, &ssd_tier_, policy_.tier,
               options_.memory_capacity == 0 ? mem_tier_.capacity()
                                             : options_.memory_capacity),
      emitter_(options_.obs,
               [this](obs::TraceEvent& e, BlockId /*block*/, int rank) {
                 // Worker-thread merge key: lseq from the lifecycle's cycle,
                 // tid node+1, per-thread monotonic tseq. Only the worker
                 // emits through this emitter, so no locking is needed.
                 e.with("lseq", rt_lseq(emit_cycle_, rank))
                     .with("tid", options_.node.value() + 1)
                     .with("tseq", static_cast<std::int64_t>(++tseq_));
               }),
      worker_([this](std::stop_token st) { worker_loop(st); }) {
  DYRS_CHECK(options_.queue_capacity >= 1);
  DYRS_CHECK(pull_ != nullptr);
  beat();
}

RtSlave::~RtSlave() { stop(); }

std::int64_t RtSlave::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void RtSlave::stop() {
  worker_.request_stop();
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void RtSlave::poke() {
  {
    std::lock_guard lock(mu_);
    poked_ = true;
  }
  cv_.notify_all();
}

void RtSlave::accept(std::vector<RtMigration> work) {
  std::lock_guard lock(mu_);
  for (RtMigration& m : work) queue_.push_back({.mig = std::move(m)});
}

bool RtSlave::cancel(BlockId block) {
  bool found = false;
  {
    std::lock_guard lock(mu_);
    // A member is cancellable until the flush settles it: queued (the read
    // skips it), reading (the read stops within a slice), in its retry
    // backoff (the wait wakes), or read but not flushed yet (the master has
    // not been told it is resident, so the flush drops it unreported).
    for (Member& held : queue_) {
      if (held.mig.m.block != block || held.state == kCancelled) continue;
      if (held.state == kActive) active_cancelled_.store(true, std::memory_order_relaxed);
      held.state = kCancelled;
      found = true;
      break;
    }
  }
  // A cancel can land while the worker sleeps out a retry backoff; wake it
  // so the migration settles immediately instead of after the delay.
  if (found) cv_.notify_all();
  return found;
}

void RtSlave::set_read_fault_hook(std::function<bool(BlockId)> hook) {
  std::lock_guard lock(mu_);
  read_fault_hook_ = std::move(hook);
}

void RtSlave::beat() {
  if (!partitioned_.load(std::memory_order_relaxed)) {
    last_beat_us_.store(now_us(), std::memory_order_relaxed);
  }
}

void RtSlave::set_partitioned(bool on) {
  partitioned_.store(on, std::memory_order_relaxed);
  // Healing publishes a beat immediately so the master re-admits the node
  // without waiting for the worker's next loop iteration.
  if (!on) last_beat_us_.store(now_us(), std::memory_order_relaxed);
}

bool RtSlave::running() const {
  std::lock_guard lock(mu_);
  return !crashed_;
}

void RtSlave::crash() {
  {
    std::lock_guard lock(mu_);
    if (crashed_) return;
    // The worker checks `crashed_` under mu_ before it pulls, at its flush
    // and in a retry backoff, and its read polls the stop request.
    crashed_ = true;
  }
  worker_.request_stop();
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  // The process is gone: local queue and buffers die with it. Nothing is
  // reported back — reclaiming what the master bound here is the failure
  // detector's job, exactly as with a real machine.
  std::lock_guard lock(mu_);
  queue_.clear();
  buffers_.clear_all();
  data_.clear();
}

void RtSlave::restart() {
  {
    std::lock_guard lock(mu_);
    if (!crashed_) return;
    crashed_ = false;
    // A restarted daemon has no history: estimate from the unloaded-disk
    // fallback until migrations complete again.
    estimator_ = core::MigrationEstimator({.ewma_alpha = options_.ewma_alpha,
                                           .reference_block = options_.reference_block,
                                           .fallback_rate = options_.disk_bandwidth,
                                           .overdue_correction = true});
    poked_ = false;
  }
  beat();
  worker_ = std::jthread([this](std::stop_token st) { worker_loop(st); });
}

void RtSlave::admit_settled_locked(const RtMigration& next,
                                   std::vector<core::BufferManager::Demotion>& demoted) {
  const BlockId block = next.m.block;
  const auto size = static_cast<std::size_t>(next.m.size);
  if (buffers_.contains(block)) {
    // A re-migrated block: fold the new references in; refresh the real
    // bytes only if the block still lives in the memory tier.
    buffers_.add_refs(block, next.m.jobs);
    if (buffers_.tier_of(block) == Tier::Memory) data_[block].assign(size, std::byte{});
    return;
  }
  const std::size_t before = demoted.size();
  if (buffers_.try_add(block, next.m.size, next.m.jobs, &demoted, next.cycle)) {
    // "Pin" the block: allocate and fill a real buffer, retained only
    // while some job references it. Residency makes it a demotion victim.
    buffers_.mark_resident(block);
    data_[block] = std::vector<std::byte>(size);
  }
  // A refused admission (pressure + RefuseAdmission) still settles the
  // migration — the block just is not buffered — and the attempt may still
  // have forced demotions out of the ssd cascade, so process them anyway.
  demotions_ += static_cast<long>(demoted.size() - before);
  if (ctr_demotions_) ctr_demotions_->add(static_cast<long>(demoted.size() - before));
  for (std::size_t i = before; i < demoted.size(); ++i) data_.erase(demoted[i].block);
  if (gauge_memory_used_) gauge_memory_used_->set(static_cast<double>(buffers_.used()));
  if (gauge_ssd_used_) gauge_ssd_used_->set(static_cast<double>(buffers_.ssd_used()));
}

void RtSlave::process_demotions(const std::vector<core::BufferManager::Demotion>& demoted) {
  for (const auto& d : demoted) {
    if (d.to == Tier::Ssd) {
      // Pace the spill onto the flash device; beats keep the node alive.
      ssd_.read({d.size}, nullptr, [this] { beat(); });
    }
    // Demote events merge under the victim's own lifecycle (its admission
    // cycle): kRankDemote sorts strictly after that cycle's terminal event.
    emit_cycle_ = d.cookie != 0 ? d.cookie : 1;
    emitter_.demote(now_us(), d.block, options_.node, d.from, d.to, d.size);
  }
}

void RtSlave::drop_job(JobId job) {
  std::lock_guard lock(mu_);
  // In-flight members too: the worker reads their jobs only under mu_, at
  // the flush, so a member left with no job settles unbuffered.
  for (Member& held : queue_) held.mig.m.jobs.erase(job);
  // Implicit eviction: buffers nobody references anymore are freed.
  for (BlockId block : buffers_.release_job(job)) data_.erase(block);
}

double RtSlave::sec_per_byte() const {
  std::lock_guard lock(mu_);
  return estimator_.per_byte_estimate();
}

Bytes RtSlave::bound_bytes() const {
  std::lock_guard lock(mu_);
  Bytes total = 0;
  for (const Member& held : queue_) total += held.mig.m.size;
  return total;
}

std::size_t RtSlave::buffered_count() const {
  std::lock_guard lock(mu_);
  return buffers_.buffered_count();
}

Bytes RtSlave::buffered_bytes() const {
  std::lock_guard lock(mu_);
  return buffers_.used() + buffers_.ssd_used();
}

Bytes RtSlave::memory_tier_bytes() const {
  std::lock_guard lock(mu_);
  return buffers_.used();
}

Bytes RtSlave::ssd_tier_bytes() const {
  std::lock_guard lock(mu_);
  return buffers_.ssd_used();
}

long RtSlave::demotions() const {
  std::lock_guard lock(mu_);
  return demotions_;
}

std::vector<core::BufferManager::TierDecision> RtSlave::tier_log() const {
  std::lock_guard lock(mu_);
  return buffers_.tier_log();
}

long RtSlave::completed() const {
  std::lock_guard lock(mu_);
  return completed_;
}

long RtSlave::retries() const {
  std::lock_guard lock(mu_);
  return retries_;
}

long RtSlave::permanent_failures() const {
  std::lock_guard lock(mu_);
  return permanent_failures_;
}

void RtSlave::worker_loop(std::stop_token st) {
  while (!st.stop_requested()) {
    beat();
    {
      std::lock_guard lock(mu_);
      if (crashed_) return;
    }
    // The slave holds nothing between drain cycles: refill the whole queue
    // from the master.
    const auto pull_started = std::chrono::steady_clock::now();
    pull_(*this, options_.queue_capacity);
    if (pull_latency_) {
      pull_latency_->add(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - pull_started)
                             .count());
    }
    {
      std::unique_lock lock(mu_);
      // What the pull accepted after a crash began is cleared by crash().
      if (crashed_) return;
      if (queue_.empty()) {
        // Nothing to do: sleep until poked or stopped. Short timeout keeps
        // the pull loop responsive even if a poke races the wait.
        poked_ = false;
        cv_.wait_for(lock, std::chrono::milliseconds(2),
                     [&] { return poked_ || st.stop_requested(); });
        continue;
      }
    }
    drain(st);
  }
}

void RtSlave::drain(const std::stop_token& st) {
  // The first read takes every member; each faulted member then retries
  // alone after its backoff.
  std::size_t n = queue_.size();
  while (n > 0 && read_and_flush(n, st)) {
    n = 0;
    while (n == 0 && !queue_.empty() && !st.stop_requested()) n = await_retry(st) ? 1 : 0;
  }
  std::lock_guard lock(mu_);
  queue_.clear();
}

bool RtSlave::read_and_flush(std::size_t n, const std::stop_token& st) {
  std::vector<Bytes> sizes(n);
  for (std::size_t i = 0; i < n; ++i) sizes[i] = queue_[i].mig.m.size;
  std::vector<double> service_s(n, 0.0);

  disk_.read(
      sizes, /*aborted=*/[&st] { return st.stop_requested(); },
      // Beat every disk slice: a long read must not look like a dead node.
      /*on_slice=*/[this] { beat(); },
      /*on_start=*/
      [this](std::size_t i) {
        {
          std::lock_guard lock(mu_);
          if (queue_[i].state == kCancelled) return false;
          queue_[i].state = kActive;
          active_cancelled_.store(false, std::memory_order_relaxed);
        }
        const RtMigration& m = queue_[i].mig;
        emit_cycle_ = m.cycle;
        emitter_.transfer_start(now_us(), m.m.block, options_.node, m.m.size, m.m.attempts + 1);
        return true;
      },
      /*item_cancelled=*/
      [this] { return active_cancelled_.load(std::memory_order_relaxed); },
      /*on_done=*/
      [&](std::size_t i, double s) {
        std::lock_guard lock(mu_);
        // A cancel that raced the final slice already returned true to the
        // caller, so the member must settle as cancelled, not completed.
        if (queue_[i].state == kCancelled) return;
        queue_[i].state = kDone;
        service_s[i] = s;
      });

  std::vector<RtMigrationDone> dones;
  std::vector<core::BufferManager::Demotion> demoted;
  {
    std::lock_guard lock(mu_);
    if (crashed_) return false;  // crash() clears the queue after joining us
    // Members [0, n) settle here; a faulted one stays for its retry, as do
    // the faulted members still waiting behind a retry (those past n).
    std::size_t kept = 0;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      Member& held = queue_[i];
      const RtMigration& m = held.mig;
      bool keep = i >= n && held.state != kCancelled;
      if (i < n && held.state == kDone) {
        if (read_fault_hook_ && read_fault_hook_(m.m.block)) {
          keep = true;  // time was spent but no usable data arrived
        } else {
          // Token time, not wall time: the estimator learns the disk's
          // rate, not how the host scheduled this thread.
          estimator_.on_complete(m.m.size, service_s[i]);
          if (!m.m.jobs.empty()) admit_settled_locked(m, demoted);
          ++completed_;
          dones.push_back({.block = m.m.block,
                           .node = options_.node,
                           .size = m.m.size,
                           .duration_s = service_s[i],
                           .cycle = m.cycle,
                           .jobs = m.m.jobs});
        }
        // Beat per member: pinning a large buffer can outlast a disk slice,
        // and a flush settles a whole queue under mu_.
        beat();
      }
      if (!keep) continue;
      held.state = kQueued;
      if (kept != i) queue_[kept] = std::move(held);
      ++kept;
    }
    queue_.resize(kept);
  }

  // Spill pacing and demote events happen outside mu_, before the cycle's
  // report (mirroring the sim slave, which demotes at admission time, ahead
  // of the new block's completion record).
  if (!demoted.empty()) process_demotions(demoted);
  if (!dones.empty() && on_complete_) on_complete_(std::move(dones));
  return true;
}

bool RtSlave::await_retry(const std::stop_token& st) {
  RtMigration& f = queue_.front().mig;
  const auto drop_front = [this] { queue_.erase(queue_.begin()); };
  std::optional<RtMigration> failed;
  {
    std::lock_guard lock(mu_);
    if (queue_.front().state == kCancelled) {
      drop_front();
      return false;
    }
    if (policy_.retry.exhausted(++f.m.attempts)) {
      ++permanent_failures_;
      failed = std::move(f);
      drop_front();
    } else {
      ++retries_;
    }
  }
  if (failed) {
    emit_cycle_ = failed->cycle;
    emitter_.transfer_failed(now_us(), failed->m.block, options_.node, failed->m.attempts);
    if (on_failed_) on_failed_(options_.node, std::move(*failed));
    return false;
  }

  // Capped exponential backoff on the worker thread, interruptible by
  // cancel (the migration then settles as cancelled), crash and stop.
  const SimDuration delay = policy_.retry.backoff_for(f.m.attempts);
  emit_cycle_ = f.cycle;
  emitter_.transfer_retry(now_us(), f.m.block, options_.node, f.m.attempts, delay);
  std::unique_lock lock(mu_);
  const auto settled = [&] {
    return st.stop_requested() || crashed_ || queue_.front().state == kCancelled;
  };
  cv_.wait_for(lock, std::chrono::microseconds(delay), settled);
  if (!settled()) return true;
  drop_front();
  return false;
}

}  // namespace dyrs::rt
