// LifecycleEmitter — the shared migration-lifecycle trace vocabulary.
//
// Both backends emit the same events with the same fields by construction:
//   mig_enqueue -> mig_target -> mig_bind -> mig_transfer_start
//     (-> mig_transfer_retry* -> mig_transfer_failed)
//   -> mig_complete | mig_abort, with mig_requeue marking a re-enqueue.
//
// The sim backend's tracer is single-threaded and relies on emission
// order; the rt backend's ThreadLocalBufferSink instead sorts by the merge
// key (block, lseq, tid, tseq). A backend that needs the key installs a
// Stamper, which receives every event together with its owning block and
// lifecycle rank just before emission and appends the backend's fields.
#pragma once

#include <functional>
#include <vector>

#include "common/tier.h"
#include "core/types.h"
#include "obs/obs_context.h"
#include "obs/trace.h"

namespace dyrs::core {

// Lifecycle ranks within one migration cycle (lseq = cycle * 8 + rank in
// the rt merge key). Transfer-phase events (start, retry, failed) share
// kRankTransfer: they are all emitted by the owning worker thread, whose
// monotonic per-thread sequence preserves their true order. Terminal
// events (complete, abort) share the top rank — a lifecycle has exactly
// one of them.
inline constexpr int kRankEnqueue = 1;
inline constexpr int kRankTarget = 2;
inline constexpr int kRankBind = 3;
inline constexpr int kRankTransfer = 4;
inline constexpr int kRankRetry = 5;  // historic; retries now use kRankTransfer
inline constexpr int kRankTerminal = 6;
// Demotions happen strictly after the owning cycle's mig_complete (a block
// must be resident before pressure can push it down), so they take the rank
// above terminal within the cycle that evicted them.
inline constexpr int kRankDemote = 7;

class LifecycleEmitter {
 public:
  using Stamper = std::function<void(obs::TraceEvent&, BlockId, int rank)>;

  LifecycleEmitter() = default;
  explicit LifecycleEmitter(const obs::ObsContext& obs, Stamper stamper = nullptr)
      : obs_(obs), stamper_(std::move(stamper)) {}

  /// Every emission below is a no-op (one flag check) when tracing is off.
  bool tracing() const { return obs_.tracing(); }

  void enqueue(SimTime at, BlockId block, JobId job, Bytes size,
               const std::vector<NodeId>& replicas);
  /// `mig_enqueue` with `merged=1`: `job` joined an already-open pending
  /// entry (size/replicas ride on the entry's original enqueue event).
  void enqueue_merged(SimTime at, BlockId block, JobId job);
  void target(SimTime at, BlockId block, NodeId node, double sec_per_byte);
  void bind(SimTime at, BlockId block, NodeId node, SimDuration wait);
  void transfer_start(SimTime at, BlockId block, NodeId node, Bytes size, int attempt);
  void transfer_retry(SimTime at, BlockId block, NodeId node, int attempt, SimDuration delay);
  void transfer_failed(SimTime at, BlockId block, NodeId node, int attempts);
  void complete(SimTime at, BlockId block, NodeId node, Bytes size, double transfer_s);
  void abort(const CancelRecord& rec);
  void requeue(SimTime at, BlockId block, NodeId avoid);
  /// `mig_demote`: capacity pressure moved a buffered block down a tier
  /// (memory -> ssd keeps it served from the node; ssd -> disk evicts it).
  void demote(SimTime at, BlockId block, NodeId node, Tier from, Tier to, Bytes size);

 private:
  void emit(obs::TraceEvent& e, BlockId block, int rank);

  obs::ObsContext obs_;
  Stamper stamper_;
};

}  // namespace dyrs::core
