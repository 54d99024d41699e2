#include "dyrs/buffer_manager.h"

#include "common/check.h"

namespace dyrs::core {

BufferManager::BufferManager(cluster::TierStore& memory, Bytes limit)
    : BufferManager(memory, nullptr, {}, limit) {}

BufferManager::BufferManager(cluster::TierStore& memory, cluster::TierStore* ssd,
                             TierPolicy policy, Bytes limit)
    : memory_(memory),
      ssd_(ssd),
      policy_(policy),
      limit_(limit > 0 ? limit : memory.capacity()) {
  DYRS_CHECK(limit_ > 0);
  DYRS_CHECK(policy_.low_watermark <= policy_.high_watermark);
}

bool BufferManager::try_add(BlockId block, Bytes size,
                            const std::map<JobId, EvictionMode>& jobs,
                            std::vector<Demotion>* demotions, std::uint64_t cookie) {
  DYRS_CHECK_MSG(!contains(block), "block " << block << " already buffered");
  DYRS_CHECK(size > 0);
  DYRS_CHECK_MSG(!jobs.empty(), "a buffered block needs at least one referencing job");
  std::vector<Demotion> local;
  std::vector<Demotion>& out = demotions ? *demotions : local;

  if (size > limit_) return false;  // can never fit; don't demote for it
  if (policy_.on_pressure == TierPolicy::OnPressure::EvictColdFirst) {
    while (used_ + size > limit_ && demote_one(block, out)) {
    }
  }
  if (used_ + size > limit_) return false;
  if (!memory_.admit(size)) return false;
  used_ += size;

  Buffered buf;
  buf.size = size;
  buf.refs = jobs;
  buf.cookie = cookie;
  probation_.push_front(block);
  buf.where = probation_.begin();
  blocks_.emplace(block, std::move(buf));
  for (const auto& [job, mode] : jobs) job_blocks_[job].insert(block);
  tier_log_.push_back({block, Tier::Disk, Tier::Memory});

  // Watermark pass: crossing the high mark drains memory down to the low
  // mark by demoting cold blocks — never the block just admitted.
  if (policy_.watermarks_enabled() &&
      static_cast<double>(used_) >=
          policy_.high_watermark * static_cast<double>(limit_)) {
    const double low = policy_.low_watermark * static_cast<double>(limit_);
    while (static_cast<double>(used_) > low && demote_one(block, out)) {
    }
  }
  return true;
}

void BufferManager::add_refs(BlockId block, const std::map<JobId, EvictionMode>& jobs) {
  auto it = blocks_.find(block);
  DYRS_CHECK_MSG(it != blocks_.end(), "block " << block << " not buffered");
  touch(block, it->second);
  for (const auto& [job, mode] : jobs) {
    it->second.refs[job] = mode;
    job_blocks_[job].insert(block);
  }
}

void BufferManager::mark_resident(BlockId block) {
  // The reservation may already be gone: an implicit read or a job release
  // can race an in-flight migration and evict the unreferenced reservation
  // before the data lands. Marking it then is a no-op, as in the pre-tier
  // code where completion never touched the buffer bookkeeping.
  auto it = blocks_.find(block);
  if (it == blocks_.end()) return;
  it->second.resident = true;
}

bool BufferManager::over_threshold(double fraction) const {
  DYRS_CHECK(fraction > 0.0 && fraction <= 1.0);
  return static_cast<double>(used_) >= fraction * static_cast<double>(limit_);
}

Tier BufferManager::tier_of(BlockId block) const {
  auto it = blocks_.find(block);
  DYRS_CHECK_MSG(it != blocks_.end(), "block " << block << " not buffered");
  return it->second.tier;
}

void BufferManager::unlink(Buffered& buf) {
  switch (buf.segment) {
    case Segment::Probation: probation_.erase(buf.where); break;
    case Segment::Protected: protected_.erase(buf.where); break;
    case Segment::Ssd: ssd_lru_.erase(buf.where); break;
  }
}

void BufferManager::touch(BlockId block, Buffered& buf) {
  unlink(buf);
  if (buf.segment == Segment::Ssd) {
    ssd_lru_.push_front(block);
    buf.where = ssd_lru_.begin();
  } else {
    // SLRU promotion: any renewed demand moves the block to (the front of)
    // the protected segment.
    buf.segment = Segment::Protected;
    protected_.push_front(block);
    buf.where = protected_.begin();
  }
}

void BufferManager::release_tier_bytes(const Buffered& buf) {
  if (buf.tier == Tier::Memory) {
    memory_.release(buf.size);
    used_ -= buf.size;
  } else {
    DYRS_CHECK(ssd_ != nullptr);
    ssd_->release(buf.size);
    ssd_used_ -= buf.size;
  }
}

void BufferManager::evict(BlockId block) {
  auto it = blocks_.find(block);
  DYRS_CHECK(it != blocks_.end());
  DYRS_CHECK_MSG(it->second.refs.empty(), "evicting block with live references");
  unlink(it->second);
  release_tier_bytes(it->second);
  blocks_.erase(it);
}

std::vector<BlockId> BufferManager::evict_if_unreferenced(BlockId block) {
  auto it = blocks_.find(block);
  if (it == blocks_.end() || !it->second.refs.empty()) return {};
  evict(block);
  return {block};
}

BlockId BufferManager::pick_memory_victim(BlockId exclude) const {
  // Coldest first: probation back (one-shot blocks), then protected back.
  // Reservations (data still arriving) are never victims.
  for (auto it = probation_.rbegin(); it != probation_.rend(); ++it) {
    if (*it != exclude && blocks_.at(*it).resident) return *it;
  }
  for (auto it = protected_.rbegin(); it != protected_.rend(); ++it) {
    if (*it != exclude && blocks_.at(*it).resident) return *it;
  }
  return BlockId::invalid();
}

bool BufferManager::admit_ssd(Bytes size, std::vector<Demotion>& out) {
  if (!ssd_ || size > ssd_->capacity()) return false;
  while (!ssd_->admit(size)) {
    BlockId victim = BlockId::invalid();
    for (auto it = ssd_lru_.rbegin(); it != ssd_lru_.rend(); ++it) {
      if (blocks_.at(*it).resident) {
        victim = *it;
        break;
      }
    }
    if (!victim.valid()) return false;
    demote_to_disk(victim, out);
  }
  ssd_used_ += size;
  return true;
}

bool BufferManager::demote_one(BlockId exclude, std::vector<Demotion>& out) {
  const BlockId victim = pick_memory_victim(exclude);
  if (!victim.valid()) return false;
  Buffered& buf = blocks_.at(victim);
  if (ssd_ && admit_ssd(buf.size, out)) {
    unlink(buf);
    memory_.release(buf.size);
    used_ -= buf.size;
    buf.tier = Tier::Ssd;
    buf.segment = Segment::Ssd;
    ssd_lru_.push_front(victim);
    buf.where = ssd_lru_.begin();
    out.push_back({victim, Tier::Memory, Tier::Ssd, buf.size, buf.cookie});
    tier_log_.push_back({victim, Tier::Memory, Tier::Ssd});
  } else {
    // No SSD (or it cannot fit the victim even after its own evictions):
    // fall straight off the bottom of the hierarchy.
    demote_to_disk(victim, out);
  }
  return true;
}

void BufferManager::demote_to_disk(BlockId block, std::vector<Demotion>& out) {
  auto it = blocks_.find(block);
  DYRS_CHECK(it != blocks_.end());
  Buffered& buf = it->second;
  out.push_back({block, buf.tier, Tier::Disk, buf.size, buf.cookie});
  tier_log_.push_back({block, buf.tier, Tier::Disk});
  drop_refs(block, buf);
  unlink(buf);
  release_tier_bytes(buf);
  blocks_.erase(it);
}

void BufferManager::drop_refs(BlockId block, Buffered& buf) {
  for (const auto& [job, mode] : buf.refs) {
    auto jit = job_blocks_.find(job);
    if (jit != job_blocks_.end()) {
      jit->second.erase(block);
      if (jit->second.empty()) job_blocks_.erase(jit);
    }
  }
  buf.refs.clear();
}

std::vector<BlockId> BufferManager::release_job(JobId job) {
  std::vector<BlockId> evicted;
  auto jit = job_blocks_.find(job);
  if (jit == job_blocks_.end()) return evicted;
  const std::set<BlockId> held = std::move(jit->second);
  job_blocks_.erase(jit);
  for (BlockId block : held) {
    auto it = blocks_.find(block);
    if (it == blocks_.end()) continue;
    it->second.refs.erase(job);
    auto gone = evict_if_unreferenced(block);
    evicted.insert(evicted.end(), gone.begin(), gone.end());
  }
  return evicted;
}

std::vector<BlockId> BufferManager::on_block_read(BlockId block, JobId job) {
  auto it = blocks_.find(block);
  if (it == blocks_.end()) return {};
  touch(block, it->second);
  auto ref = it->second.refs.find(job);
  if (ref == it->second.refs.end() || ref->second != EvictionMode::Implicit) return {};
  it->second.refs.erase(ref);
  auto jit = job_blocks_.find(job);
  if (jit != job_blocks_.end()) {
    jit->second.erase(block);
    if (jit->second.empty()) job_blocks_.erase(jit);
  }
  return evict_if_unreferenced(block);
}

std::vector<BlockId> BufferManager::scavenge(const std::function<bool(JobId)>& is_active) {
  DYRS_CHECK(is_active != nullptr);
  std::vector<BlockId> evicted;
  // Collect dead jobs first; erasing while iterating job_blocks_ would
  // invalidate iterators through release_job.
  std::vector<JobId> dead;
  for (const auto& [job, blocks] : job_blocks_) {
    if (!is_active(job)) dead.push_back(job);
  }
  for (JobId job : dead) {
    auto gone = release_job(job);
    evicted.insert(evicted.end(), gone.begin(), gone.end());
  }
  return evicted;
}

void BufferManager::force_evict(BlockId block) {
  auto it = blocks_.find(block);
  if (it == blocks_.end()) return;
  drop_refs(block, it->second);
  evict(block);
}

std::vector<BlockId> BufferManager::clear_all() {
  std::vector<BlockId> had;
  had.reserve(blocks_.size());
  for (auto& [block, buf] : blocks_) {
    had.push_back(block);
    if (buf.tier == Tier::Memory) {
      memory_.release(buf.size);
    } else {
      DYRS_CHECK(ssd_ != nullptr);
      ssd_->release(buf.size);
    }
  }
  blocks_.clear();
  job_blocks_.clear();
  probation_.clear();
  protected_.clear();
  ssd_lru_.clear();
  used_ = 0;
  ssd_used_ = 0;
  return had;
}

std::vector<BlockId> BufferManager::buffered_blocks() const {
  std::vector<BlockId> out;
  out.reserve(blocks_.size());
  for (const auto& [block, buf] : blocks_) out.push_back(block);
  return out;
}

}  // namespace dyrs::core
