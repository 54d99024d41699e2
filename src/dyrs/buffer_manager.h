// Slave-side tier management for migrated blocks (paper §III-C3, §IV-A1).
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
// Tier hierarchy: blocks are admitted to the memory tier of a TierStore
// pair and tracked in a segmented LRU — admission lands in the
// probationary segment, renewed demand (a second job's references, or a
// read) promotes to the protected segment, so one-shot blocks drain from
// probation before hot blocks are touched. Capacity
// pressure (EvictColdFirst admission, or crossing the high watermark)
// demotes the coldest blocks downward: memory -> SSD keeps a block
// buffered and still served from the node; SSD -> disk force-drops its
// references and evicts it (the caller reports it so the master
// unregisters the replica). Every admission and demotion is appended to a
// tier-decision log; the differential tests compare the per-node logs of
// both backends.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "cluster/tier_store.h"
#include "common/tier.h"
#include "core/tier_policy.h"
#include "core/types.h"

namespace dyrs::core {

class BufferManager {
 public:
  /// One downward move decided under pressure. `cookie` echoes the backend
  /// cookie recorded when the block was admitted (the rt migration cycle),
  /// so demote events merge under the owning lifecycle. `to == Tier::Disk`
  /// means the block was evicted outright — its references were dropped.
  struct Demotion {
    BlockId block;
    Tier from = Tier::Memory;
    Tier to = Tier::Ssd;
    Bytes size = 0;
    std::uint64_t cookie = 0;
  };

  /// One row of the tier-decision log. Admissions enter from Disk (every
  /// replica's home); demotions move down one tier at a time.
  struct TierDecision {
    BlockId block;
    Tier from = Tier::Disk;
    Tier to = Tier::Memory;

    friend bool operator==(const TierDecision&, const TierDecision&) = default;
  };

  /// `limit` caps bytes of migrated data in the memory tier; 0 means "the
  /// memory tier's capacity". Single-tier form: no SSD, default policy
  /// (admit to memory, refuse on pressure, watermarks off).
  BufferManager(cluster::TierStore& memory, Bytes limit = 0);
  /// Full hierarchy. `ssd` may be null (demotions then go straight to
  /// disk); `policy` picks the pressure response and the watermarks.
  BufferManager(cluster::TierStore& memory, cluster::TierStore* ssd, TierPolicy policy,
                Bytes limit = 0);

  /// Admits a block to memory and installs the reference list. Returns
  /// false if the memory tier (or the hard limit) cannot fit it. Under
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
  /// Memory-tier bytes (the watermark/threshold base).
  Bytes used() const { return used_; }
  /// SSD-tier bytes held by this manager.
  Bytes ssd_used() const { return ssd_used_; }
  Bytes limit() const { return limit_; }
  bool over_threshold(double fraction) const;
  /// Tier currently holding `block`; requires contains(block).
  Tier tier_of(BlockId block) const;
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

  /// Process crash: the OS reclaims all pinned pages and spilled files.
  /// Returns the blocks that were buffered on any tier (so the master can
  /// drop its soft state).
  std::vector<BlockId> clear_all();

  std::vector<BlockId> buffered_blocks() const;

 private:
  enum class Segment { Probation, Protected, Ssd };

  struct Buffered {
    Bytes size = 0;
    std::map<JobId, EvictionMode> refs;
    Tier tier = Tier::Memory;
    Segment segment = Segment::Probation;
    bool resident = false;
    std::uint64_t cookie = 0;
    std::list<BlockId>::iterator where;
  };

  std::vector<BlockId> evict_if_unreferenced(BlockId block);
  void evict(BlockId block);
  void unlink(Buffered& buf);
  void touch(BlockId block, Buffered& buf);
  void drop_refs(BlockId block, Buffered& buf);
  void release_tier_bytes(const Buffered& buf);
  BlockId pick_memory_victim(BlockId exclude) const;
  /// Demotes the coldest memory block (never `exclude`) one tier down.
  /// Returns false when no victim remains.
  bool demote_one(BlockId exclude, std::vector<Demotion>& out);
  /// Reserves `size` SSD bytes, evicting the coldest SSD blocks to disk
  /// until the reservation fits (EvictColdFirst cascade).
  bool admit_ssd(Bytes size, std::vector<Demotion>& out);
  void demote_to_disk(BlockId block, std::vector<Demotion>& out);

  cluster::TierStore& memory_;
  cluster::TierStore* ssd_ = nullptr;
  TierPolicy policy_;
  Bytes limit_;
  Bytes used_ = 0;      // memory-tier bytes
  Bytes ssd_used_ = 0;  // ssd-tier bytes
  std::unordered_map<BlockId, Buffered> blocks_;
  std::unordered_map<JobId, std::set<BlockId>> job_blocks_;
  std::list<BlockId> probation_;   // SLRU probationary segment, MRU at front
  std::list<BlockId> protected_;   // SLRU protected segment, MRU at front
  std::list<BlockId> ssd_lru_;     // SSD-resident blocks, MRU at front
  std::vector<TierDecision> tier_log_;
};

}  // namespace dyrs::core
