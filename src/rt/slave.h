// Real-threaded DYRS slave.
//
// One worker thread per slave serializes migrations like the simulated
// slave: read each queued block from the throttled disk into a freshly
// allocated pinned buffer, record its token service time in the shared
// MigrationEstimator, report completion. The local queue is bounded; the
// worker pulls from the master once it is empty and the master refills it
// — the late-binding protocol of §III-A1 with real threads and condition
// variables.
//
// Transient read failures (injected through the FaultSurface read-fault
// hook, see set_read_fault_hook) are retried in place with the shared
// core::RetryPolicy — capped exponential backoff on the worker thread,
// interruptible by cancel/stop. Exhausting the budget reports the
// migration back to the master via `on_failed`, which requeues it with
// this node on the avoid list.
//
// Settled blocks land in the shared core::BufferManager: the same SLRU
// segments, watermark demotion and admission policy the sim slave runs, so
// both backends make identical tier decisions. A demotion drops the
// block's buffer; the block is read from disk again.
//
// There is one data path and one drain cycle. The worker pulls only when it
// holds nothing, takes up to its queue capacity (by default the §III-B
// depth: one heartbeat of unloaded reads), reads everything it holds in one
// ThrottledDisk::read call (sleeps shared across the members; the call never
// returns before the token time of what it served) and flushes one
// `on_complete` report. A member stays cancellable until the flush settles
// it, even after its read finished; a faulted member retries alone after
// its backoff. Per-block trace emission does not depend on how many members
// a cycle holds, so merged span sequences are identical at every queue
// depth.
//
// The slave also exposes the rt failure surface: the worker publishes a
// wall-clock heartbeat every loop iteration, every disk slice and every
// member its flush settles (pinning a member's buffer can take longer than
// a slice); partitions silence it, crash() tears the worker down abandoning
// in-flight work, and restart() brings a fresh daemon back. The master's
// failure detector turns silent heartbeats into declared-dead reclaims.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "core/control_plane.h"
#include "core/lifecycle.h"
#include "core/types.h"
#include "dyrs/buffer_manager.h"
#include "dyrs/estimator.h"
#include "obs/obs_context.h"
#include "rt/throttled_disk.h"

namespace dyrs::rt {

struct RtMigration {
  /// The control plane's binding (jobs, replicas, avoid history, attempt
  /// count all ride along so requeues preserve them).
  core::BoundMigration m;
  /// Per-block migration-cycle number assigned by the master; trace events
  /// for this lifecycle derive their merge key (`lseq`) from it.
  std::uint64_t cycle = 1;
};

struct RtMigrationDone {
  BlockId block;
  NodeId node;
  Bytes size = 0;
  double duration_s = 0;
  std::uint64_t cycle = 1;
  /// Jobs that referenced the migration, for per-job accounting.
  std::map<JobId, core::EvictionMode> jobs;
};

class RtSlave {
 public:
  struct Options {
    NodeId node;
    Rate disk_bandwidth = mib_per_sec(100);
    /// Cap on the node's buffered bytes. 0 (the default) means unbounded:
    /// every admission succeeds and nothing is demoted.
    Bytes memory_capacity = 0;
    /// Local queue depth: the most a pull hands over, and so the most one
    /// drain cycle reads and reports. 0 (the default) derives it from the
    /// policy's `queue_depth`, `heartbeat_interval` and the unloaded
    /// reference-block read time — the same §III-B heuristic the sim slave
    /// applies.
    int queue_capacity = 0;
    /// Not an option: every cycle drains the whole queue. Kept only because
    /// perfbench reads it; the next benchmark change deletes it.
    static constexpr int drain_batch = 1;
    /// How often the worker publishes a wall-clock heartbeat (also the
    /// pull cadence the derived queue depth assumes).
    std::chrono::milliseconds heartbeat_interval{25};
    Bytes reference_block = mib(8);
    /// Observability handle shared with the master. Counter bumps are safe
    /// from the worker thread; tracing additionally requires a thread-safe
    /// sink (ThreadLocalBufferSink) — events are stamped with the rt merge
    /// key, not emission order.
    obs::ObsContext obs;
    /// Timestamp origin for trace events (shared with the master so all
    /// emitters agree); the slave's construction time when left default.
    std::chrono::steady_clock::time_point trace_epoch{};
  };

  /// `policy` is the master's: the slave takes its derived queue depth,
  /// its retry budget and its buffer manager's pressure policy from it.
  /// `on_complete` and `on_failed` run on the slave's worker thread.
  /// `on_complete` receives every settlement the current drain cycle
  /// produced, up to `queue_capacity` elements. `pull` is invoked (also on
  /// the worker thread) whenever the slave holds nothing, with room for
  /// `space` (the queue capacity) migrations; it hands the ones it binds to
  /// this slave to `accept` before it returns. `on_failed` reports a
  /// migration that exhausted the retry budget.
  RtSlave(Options options, const core::ControlPlaneConfig& policy,
          std::function<void(std::vector<RtMigrationDone>)> on_complete,
          std::function<void(RtSlave&, int)> pull,
          std::function<void(NodeId, RtMigration)> on_failed = nullptr);
  ~RtSlave();
  RtSlave(const RtSlave&) = delete;
  RtSlave& operator=(const RtSlave&) = delete;

  NodeId id() const { return options_.node; }
  ThrottledDisk& disk() { return disk_; }

  /// Thread-safe: current migration-time estimate in sec/byte.
  double sec_per_byte() const;
  /// Estimator reference block size (for est_s_per_block samples).
  Bytes reference_block() const { return options_.reference_block; }
  /// Bytes bound locally (queued + in flight).
  Bytes bound_bytes() const;

  /// Wakes the worker to pull for work (e.g. after new pending arrived).
  void poke();

  /// Hands migrations bound to this slave to its local queue. Only `pull`
  /// calls it, on the worker thread, while the slave holds nothing; the
  /// master calls it while still holding the lock it bound them under, so
  /// no cancel or eviction can miss a block in between.
  void accept(std::vector<RtMigration> work);

  /// Cancels a local migration of `block` (missed read) until the flush
  /// settles it: before, during or after its read, or in its retry
  /// backoff; a cancelled member is not reported, buffered or learned
  /// from. Returns true if anything was cancelled. Thread-safe.
  bool cancel(BlockId block);

  /// Read-fault hook (the FaultSurface; tests and RtFaultInjector):
  /// consulted after every finished read; returning true fails the read as
  /// if the device surfaced an I/O error, exercising the local retry path.
  /// Thread-safe; pass nullptr to clear.
  void set_read_fault_hook(std::function<bool(BlockId)> hook);

  // --- failure surface (driven by RtFaultInjector / RtMaster) -----------
  /// Wall-clock microseconds (on the shared trace epoch) of the last
  /// published heartbeat. The worker beats every loop iteration, every
  /// disk slice and every member a flush settles; a partitioned or crashed
  /// slave goes silent.
  std::int64_t last_heartbeat_us() const {
    return last_beat_us_.load(std::memory_order_relaxed);
  }

  /// Heartbeat partition: the daemon keeps working but its heartbeats no
  /// longer reach the master. Healing publishes a beat immediately.
  void set_partitioned(bool on);
  bool partitioned() const { return partitioned_.load(std::memory_order_relaxed); }

  /// Process crash: tears the worker thread down, abandoning in-flight
  /// work without reporting it (queued migrations, buffers and injected
  /// faults die with the process). The master's failure detector is
  /// responsible for reclaiming what was bound here. Idempotent.
  void crash();

  /// Restarts a crashed daemon: fresh worker thread, estimator reset to
  /// the unloaded-disk fallback (a restarted process has no history), and
  /// an immediate heartbeat so the master re-admits the node.
  void restart();

  /// False between crash() and restart().
  bool running() const;

  /// Drops `job`'s references: from held migrations (they still settle for
  /// the remaining jobs, or unbuffered if none remain) and from buffered
  /// blocks, freeing buffers nobody references anymore.
  /// Thread-safe.
  void drop_job(JobId job);

  /// Buffered blocks migrated so far (copies real bytes into real memory).
  std::size_t buffered_count() const;
  Bytes buffered_bytes() const;
  /// Blocks demoted to disk by capacity pressure.
  long demotions() const;
  /// Copy of the buffer manager's admission/demotion decision log — the
  /// sim-vs-rt differential test compares per-node projections of this.
  std::vector<core::BufferManager::TierDecision> tier_log() const;
  long completed() const;
  /// Transient failures absorbed by a local retry.
  long retries() const;
  /// Migrations that exhausted the retry budget and were reported failed.
  long permanent_failures() const;

  /// Asks the worker to stop after the current slice and joins it.
  void stop();

 private:
  /// Applies the derived queue capacity (§III-B) when the caller left it
  /// 0 — resolved before the worker starts, so no synchronization needed.
  static Options resolve(Options options, const core::QueueDepthPolicy& depth);

  /// Per-member state of the held queue, guarded by mu_ so cancel() can act
  /// on individual members mid-cycle.
  enum MemberState : std::uint8_t {
    kQueued = 0,     // waiting for its read (a faulted one: its retry)
    kActive = 1,     // consuming tokens now
    kDone = 2,       // read finished; completion pending flush
    kCancelled = 3,  // cancelled; the flush drops it
  };
  struct Member {
    RtMigration mig;
    MemberState state = kQueued;
  };

  void worker_loop(std::stop_token st);
  /// Settles queue_: reads every member in one call, then retries the
  /// faulted ones one at a time after their backoff, and empties it.
  void drain(const std::stop_token& st);
  /// Reads queue_[0, n) in one ThrottledDisk::read call and settles them
  /// under mu_: completions are admitted and reported in one on_complete;
  /// a faulted member stays in queue_ for its retry. Returns false when the
  /// slave crashed meanwhile (nothing is reported).
  bool read_and_flush(std::size_t n, const std::stop_token& st);
  /// Counts a retry attempt for queue_'s front member (a faulted read):
  /// fails it over to the master once the budget is spent, otherwise sleeps
  /// out its backoff. True when it should be read again; false once it left
  /// queue_ (failed, cancelled, or the worker is stopping).
  bool await_retry(const std::stop_token& st);
  /// Admits a settled migration into the buffer manager (or folds new refs
  /// into an already-buffered block), appending any demotions it forced to
  /// `demoted`. Caller holds mu_ and processes `demoted` after releasing it.
  void admit_settled_locked(const RtMigration& next,
                            std::vector<core::BufferManager::Demotion>& demoted);
  /// Emits the mig_demote lifecycle events. Worker thread, outside mu_.
  void process_demotions(const std::vector<core::BufferManager::Demotion>& demoted);
  /// Publishes a heartbeat unless partitioned.
  void beat();

  std::int64_t now_us() const;

  Options options_;
  const core::ControlPlaneConfig policy_;
  const std::chrono::steady_clock::time_point epoch_;
  ThrottledDisk disk_;
  std::function<void(std::vector<RtMigrationDone>)> on_complete_;
  std::function<void(RtSlave&, int)> pull_;
  std::function<void(NodeId, RtMigration)> on_failed_;
  /// Wall-clock latency of each master pull, recorded by the worker thread
  /// only (histograms are single-writer); null when metrics are off.
  obs::Histogram* pull_latency_ = nullptr;
  /// Buffered-bytes gauge + demotion counter; null when metrics are off.
  /// Cached before the worker starts, refreshed at settlement.
  obs::Gauge* gauge_memory_used_ = nullptr;
  obs::Counter* ctr_demotions_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// What the slave holds: one pull's migrations, each with its state;
  /// under mu_, empty between drain cycles. Only the worker resizes it or
  /// writes a member's block, size, cycle or attempts, so it reads those
  /// without the lock; drop_job() edits members' jobs, which the worker
  /// reads only under mu_.
  std::vector<Member> queue_;
  /// Set by cancel() when it cancels the member being read; polled every
  /// slice so the read stops without taking mu_.
  std::atomic<bool> active_cancelled_{false};
  core::MigrationEstimator estimator_;
  /// Shared buffer engine (SLRU segments, watermark demotion); under mu_.
  core::BufferManager buffers_;
  /// Real bytes for every buffered block (under mu_).
  std::unordered_map<BlockId, std::vector<std::byte>> data_;
  long demotions_ = 0;                            // under mu_
  std::function<bool(BlockId)> read_fault_hook_;  // under mu_
  bool crashed_ = false;                          // under mu_
  std::atomic<bool> partitioned_{false};
  std::atomic<std::int64_t> last_beat_us_{0};
  long completed_ = 0;
  long retries_ = 0;
  long permanent_failures_ = 0;
  bool poked_ = false;
  std::uint64_t tseq_ = 0;        // trace merge-key sequence; worker thread only
  std::uint64_t emit_cycle_ = 1;  // cycle the emitter stamps with; worker thread only
  core::LifecycleEmitter emitter_;

  std::jthread worker_;  // last member: joins before the rest is destroyed
};

}  // namespace dyrs::rt
