// Slave-side buffer management for migrated blocks (paper §III-C3, §IV-A1).
//
// Each buffered block carries a reference list of job IDs expected to read
// it. A job's reference is dropped explicitly (evict command, typically at
// job end) or implicitly as soon as the job reads the block; when the list
// empties the block is released. A scavenger pass clears references held by
// jobs the cluster scheduler no longer reports as active, bounding leaks
// from failed jobs. A hard limit below node memory can be configured; when
// it is hit, admission fails and the slave stalls its queue until evictions
// make room (or the migration is discarded by a missed read).
//
// Pressure: blocks are admitted to pinned memory and tracked in a
// segmented LRU — admission lands in the probationary segment, renewed
// demand (a second job's references, or a read) promotes to the protected
// segment, so one-shot blocks drain from probation before hot blocks are
// touched. Capacity pressure (EvictColdFirst admission, or crossing the
// high watermark) demotes the coldest blocks to disk: their references are
// dropped and they are evicted (the caller reports them so the master
// unregisters the replicas, and later reads go to disk). Every admission
// and demotion is appended to a tier-decision log; the differential tests
// compare the per-node logs of both backends.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/tier.h"
#include "core/tier_policy.h"
#include "core/types.h"

namespace dyrs::cluster {
class Memory;
}

namespace dyrs::core {

class BufferManager {
 public:
  /// One block demoted to disk under pressure: its references were dropped
  /// and it was evicted. `cookie` echoes the backend cookie recorded when
  /// the block was admitted (the rt migration cycle), so demote events
  /// merge under the owning lifecycle.
  struct Demotion {
    BlockId block;
    Bytes size = 0;
    std::uint64_t cookie = 0;
  };

  /// One row of the tier-decision log. Admissions move a block from Disk
  /// (every replica's home) to Memory; demotions move it back.
  struct TierDecision {
    BlockId block;
    Tier from = Tier::Disk;
    Tier to = Tier::Memory;

    friend bool operator==(const TierDecision&, const TierDecision&) = default;
  };

  /// `memory` is the node memory the buffers pin, so a pin failure there
  /// also refuses admission and its footprint series sees them (the sim);
  /// null where nothing else pins (rt). `limit` caps bytes of migrated
  /// data; 0 means the node memory's capacity, or unbounded without one.
  /// `policy` picks the pressure response and the watermarks; the default
  /// refuses on pressure with watermarks off.
  explicit BufferManager(cluster::Memory* memory, TierPolicy policy = {}, Bytes limit = 0);

  /// Admits a block to memory and installs the reference list. Returns
  /// false if the hard limit (or the node memory) cannot fit it. Under
  /// EvictColdFirst or past the high watermark, cold blocks are demoted to
  /// make or reclaim room and reported through `demotions` — which may be
  /// populated even when admission itself is refused, so callers must
  /// process it regardless of the return value. `cookie` is stored with
  /// the block and echoed in any later Demotion of it.
  bool try_add(BlockId block, Bytes size, const std::map<JobId, EvictionMode>& jobs,
               std::vector<Demotion>* demotions = nullptr, std::uint64_t cookie = 0);

  /// Adds references for a block that is already buffered (a later job
  /// requested a block another job migrated). Counts as renewed demand:
  /// the block is promoted to the protected segment.
  void add_refs(BlockId block, const std::map<JobId, EvictionMode>& jobs);

  /// Marks an admitted block's data as fully arrived. Blocks are admitted
  /// as *reservations* (the sim reserves before the disk read runs) and a
  /// reservation is not a demotion victim — demoting a half-read block
  /// would corrupt it. Both backends mark at read completion, so the
  /// victim set at any admission is exactly the completed blocks. No-op
  /// when the reservation was already evicted mid-flight (a racing
  /// implicit read or job release dropped its last reference).
  void mark_resident(BlockId block);

  bool contains(BlockId block) const { return blocks_.count(block) > 0; }
  std::size_t buffered_count() const { return blocks_.size(); }
  /// Buffered bytes (the watermark/threshold base).
  Bytes used() const { return used_; }
  Bytes limit() const { return limit_; }
  bool over_threshold(double fraction) const;
  const TierPolicy& policy() const { return policy_; }

  /// Admission/demotion history in decision order. Per-node projections of
  /// this log are deterministic on both backends under serialized binding;
  /// the sim-vs-rt differential test compares them directly.
  const std::vector<TierDecision>& tier_log() const { return tier_log_; }

  /// Drops `job`'s reference from every block it holds; returns the blocks
  /// whose lists emptied and were evicted. (The explicit evict command.)
  std::vector<BlockId> release_job(JobId job);

  /// Implicit-eviction path: `job` finished reading `block`. The read
  /// touches the block's LRU position; the reference is dropped only if
  /// that job opted into implicit eviction for it. Returns evicted blocks
  /// (empty or one element).
  std::vector<BlockId> on_block_read(BlockId block, JobId job);

  /// Clears references of jobs for which `is_active` returns false, then
  /// evicts empty blocks. Returns evicted blocks.
  std::vector<BlockId> scavenge(const std::function<bool(JobId)>& is_active);

  /// Drops a block regardless of its reference list — used when a
  /// migration is cancelled after its memory was reserved (missed read).
  /// No-op if the block is not buffered.
  void force_evict(BlockId block);

  /// Process crash: the OS reclaims all pinned pages. Returns the blocks
  /// that were buffered (so the master can drop its soft state).
  std::vector<BlockId> clear_all();

  std::vector<BlockId> buffered_blocks() const;

 private:
  enum class Segment { Probation, Protected };

  struct Buffered {
    Bytes size = 0;
    std::map<JobId, EvictionMode> refs;
    Segment segment = Segment::Probation;
    bool resident = false;
    std::uint64_t cookie = 0;
    std::list<BlockId>::iterator where;
  };

  std::vector<BlockId> evict_if_unreferenced(BlockId block);
  /// Unlinks and unpins `block`; its references must already be gone.
  void evict(BlockId block);
  void unlink(Buffered& buf);
  void touch(BlockId block, Buffered& buf);
  void drop_refs(BlockId block, Buffered& buf);
  BlockId pick_victim(BlockId exclude) const;
  /// Demotes the coldest resident block (never `exclude`) to disk. Returns
  /// false when no victim remains.
  bool demote_one(BlockId exclude, std::vector<Demotion>& out);

  cluster::Memory* memory_;
  TierPolicy policy_;
  Bytes limit_;
  Bytes used_ = 0;
  std::unordered_map<BlockId, Buffered> blocks_;
  std::unordered_map<JobId, std::set<BlockId>> job_blocks_;
  std::list<BlockId> probation_;   // SLRU probationary segment, MRU at front
  std::list<BlockId> protected_;   // SLRU protected segment, MRU at front
  std::vector<TierDecision> tier_log_;
};

}  // namespace dyrs::core
