#include "dyrs/buffer_manager.h"

#include <limits>

#include "cluster/memory.h"
#include "common/check.h"

namespace dyrs::core {

BufferManager::BufferManager(cluster::Memory* memory, TierPolicy policy, Bytes limit)
    : memory_(memory),
      policy_(policy),
      limit_(limit > 0         ? limit
             : memory != nullptr ? memory->capacity()
                                 : std::numeric_limits<Bytes>::max()) {
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
  if (memory_ != nullptr && !memory_->pin(size)) return false;
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
  // before the data lands. Marking it then is a no-op.
  auto it = blocks_.find(block);
  if (it == blocks_.end()) return;
  it->second.resident = true;
}

bool BufferManager::over_threshold(double fraction) const {
  DYRS_CHECK(fraction > 0.0 && fraction <= 1.0);
  return static_cast<double>(used_) >= fraction * static_cast<double>(limit_);
}

void BufferManager::unlink(Buffered& buf) {
  (buf.segment == Segment::Probation ? probation_ : protected_).erase(buf.where);
}

void BufferManager::touch(BlockId block, Buffered& buf) {
  // SLRU promotion: any renewed demand moves the block to (the front of)
  // the protected segment.
  unlink(buf);
  buf.segment = Segment::Protected;
  protected_.push_front(block);
  buf.where = protected_.begin();
}

void BufferManager::evict(BlockId block) {
  auto it = blocks_.find(block);
  DYRS_CHECK(it != blocks_.end());
  DYRS_CHECK_MSG(it->second.refs.empty(), "evicting block with live references");
  unlink(it->second);
  if (memory_ != nullptr) memory_->unpin(it->second.size);
  used_ -= it->second.size;
  blocks_.erase(it);
}

std::vector<BlockId> BufferManager::evict_if_unreferenced(BlockId block) {
  auto it = blocks_.find(block);
  if (it == blocks_.end() || !it->second.refs.empty()) return {};
  evict(block);
  return {block};
}

BlockId BufferManager::pick_victim(BlockId exclude) const {
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

bool BufferManager::demote_one(BlockId exclude, std::vector<Demotion>& out) {
  const BlockId victim = pick_victim(exclude);
  if (!victim.valid()) return false;
  Buffered& buf = blocks_.at(victim);
  out.push_back({victim, buf.size, buf.cookie});
  tier_log_.push_back({victim, Tier::Memory, Tier::Disk});
  drop_refs(victim, buf);
  evict(victim);
  return true;
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
  for (const auto& [block, buf] : blocks_) had.push_back(block);
  if (memory_ != nullptr) memory_->unpin(used_);
  blocks_.clear();
  job_blocks_.clear();
  probation_.clear();
  protected_.clear();
  used_ = 0;
  return had;
}

std::vector<BlockId> BufferManager::buffered_blocks() const {
  std::vector<BlockId> out;
  out.reserve(blocks_.size());
  for (const auto& [block, buf] : blocks_) out.push_back(block);
  return out;
}

}  // namespace dyrs::core
