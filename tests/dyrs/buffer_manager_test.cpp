#include "dyrs/buffer_manager.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/memory.h"
#include "common/check.h"
#include "common/random.h"
#include "sim/simulator.h"

namespace dyrs::core {
namespace {

std::map<JobId, EvictionMode> refs(std::initializer_list<std::pair<int, EvictionMode>> jobs) {
  std::map<JobId, EvictionMode> out;
  for (auto [id, mode] : jobs) out[JobId(id)] = mode;
  return out;
}

struct BufferFixture : ::testing::Test {
  sim::Simulator sim;
  cluster::Memory memory{sim, {.capacity = gib(1), .read_bandwidth = gib_per_sec(25)}};
};

TEST_F(BufferFixture, AddPinsMemory) {
  BufferManager bm(&memory);
  EXPECT_TRUE(bm.try_add(BlockId(1), mib(256), refs({{1, EvictionMode::Explicit}})));
  EXPECT_TRUE(bm.contains(BlockId(1)));
  EXPECT_EQ(bm.used(), mib(256));
  EXPECT_EQ(memory.pinned(), mib(256));
}

TEST_F(BufferFixture, HardLimitBelowNodeMemory) {
  BufferManager bm(&memory, {}, mib(300));
  EXPECT_TRUE(bm.try_add(BlockId(1), mib(256), refs({{1, EvictionMode::Explicit}})));
  EXPECT_FALSE(bm.try_add(BlockId(2), mib(256), refs({{1, EvictionMode::Explicit}})));
  EXPECT_FALSE(bm.contains(BlockId(2)));
  EXPECT_EQ(bm.used(), mib(256));
}

// The rt slave buffers without a node memory object, so its limit alone
// decides admission.
TEST_F(BufferFixture, WithoutNodeMemoryLimitAdmitsUpToCapacityAndRefusesBeyond) {
  BufferManager capped(nullptr, {}, gib(1));
  EXPECT_TRUE(capped.try_add(BlockId(1), mib(768), refs({{1, EvictionMode::Explicit}})));
  EXPECT_EQ(capped.used(), mib(768));
  // A refused admission changes nothing.
  EXPECT_FALSE(capped.try_add(BlockId(2), mib(512), refs({{1, EvictionMode::Explicit}})));
  EXPECT_FALSE(capped.contains(BlockId(2)));
  EXPECT_EQ(capped.used(), mib(768));
  EXPECT_TRUE(capped.try_add(BlockId(3), mib(256), refs({{1, EvictionMode::Explicit}})));
  EXPECT_EQ(capped.used(), gib(1));
  EXPECT_EQ(capped.release_job(JobId(1)).size(), 2u);
  EXPECT_EQ(capped.used(), 0);
  EXPECT_EQ(memory.pinned(), 0);  // nothing pinned the node's memory
}

TEST_F(BufferFixture, WithoutNodeMemoryZeroLimitMeansUnbounded) {
  BufferManager unbounded(nullptr);
  EXPECT_TRUE(unbounded.try_add(BlockId(1), gib(1024), refs({{1, EvictionMode::Explicit}})));
  EXPECT_TRUE(unbounded.try_add(BlockId(2), gib(1024), refs({{1, EvictionMode::Explicit}})));
  EXPECT_EQ(unbounded.used(), gib(2048));
  EXPECT_EQ(memory.pinned(), 0);
}

TEST_F(BufferFixture, NodeMemoryAlsoLimits) {
  BufferManager bm(&memory);  // limit = node capacity (1GiB)
  // Consume most node memory externally (e.g. tasks).
  ASSERT_TRUE(memory.pin(mib(900)));
  EXPECT_FALSE(bm.try_add(BlockId(1), mib(256), refs({{1, EvictionMode::Explicit}})));
}

TEST_F(BufferFixture, ExplicitReleaseEvictsWhenLastRefDrops) {
  BufferManager bm(&memory);
  ASSERT_TRUE(bm.try_add(BlockId(1), mib(64),
                         refs({{1, EvictionMode::Explicit}, {2, EvictionMode::Explicit}})));
  EXPECT_TRUE(bm.release_job(JobId(1)).empty());  // job 2 still holds it
  auto evicted = bm.release_job(JobId(2));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], BlockId(1));
  EXPECT_FALSE(bm.contains(BlockId(1)));
  EXPECT_EQ(memory.pinned(), 0);
}

TEST_F(BufferFixture, ImplicitEvictionOnRead) {
  BufferManager bm(&memory);
  ASSERT_TRUE(bm.try_add(BlockId(1), mib(64), refs({{1, EvictionMode::Implicit}})));
  auto evicted = bm.on_block_read(BlockId(1), JobId(1));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_FALSE(bm.contains(BlockId(1)));
}

TEST_F(BufferFixture, ExplicitModeIgnoresReads) {
  BufferManager bm(&memory);
  ASSERT_TRUE(bm.try_add(BlockId(1), mib(64), refs({{1, EvictionMode::Explicit}})));
  EXPECT_TRUE(bm.on_block_read(BlockId(1), JobId(1)).empty());
  EXPECT_TRUE(bm.contains(BlockId(1)));
}

TEST_F(BufferFixture, MixedModesPerJob) {
  // Job 1 implicit, job 2 explicit on the same block: job 1's read drops
  // only its own reference.
  BufferManager bm(&memory);
  ASSERT_TRUE(bm.try_add(BlockId(1), mib(64),
                         refs({{1, EvictionMode::Implicit}, {2, EvictionMode::Explicit}})));
  EXPECT_TRUE(bm.on_block_read(BlockId(1), JobId(1)).empty());
  EXPECT_TRUE(bm.contains(BlockId(1)));
  auto evicted = bm.release_job(JobId(2));
  EXPECT_EQ(evicted.size(), 1u);
}

TEST_F(BufferFixture, ReadByNonReferencingJobIsNoop) {
  BufferManager bm(&memory);
  ASSERT_TRUE(bm.try_add(BlockId(1), mib(64), refs({{1, EvictionMode::Implicit}})));
  EXPECT_TRUE(bm.on_block_read(BlockId(1), JobId(99)).empty());
  EXPECT_TRUE(bm.contains(BlockId(1)));
}

TEST_F(BufferFixture, AddRefsToBufferedBlock) {
  BufferManager bm(&memory);
  ASSERT_TRUE(bm.try_add(BlockId(1), mib(64), refs({{1, EvictionMode::Implicit}})));
  bm.add_refs(BlockId(1), refs({{2, EvictionMode::Implicit}}));
  bm.on_block_read(BlockId(1), JobId(1));
  EXPECT_TRUE(bm.contains(BlockId(1)));  // job 2 still references
  auto evicted = bm.on_block_read(BlockId(1), JobId(2));
  EXPECT_EQ(evicted.size(), 1u);
}

TEST_F(BufferFixture, ScavengeDropsDeadJobs) {
  // Paper §III-C3: when memory pressure hits, the slave asks the cluster
  // scheduler which jobs are active and clears dead jobs' references.
  BufferManager bm(&memory);
  ASSERT_TRUE(bm.try_add(BlockId(1), mib(64), refs({{1, EvictionMode::Explicit}})));
  ASSERT_TRUE(bm.try_add(BlockId(2), mib(64), refs({{2, EvictionMode::Explicit}})));
  ASSERT_TRUE(bm.try_add(BlockId(3), mib(64),
                         refs({{1, EvictionMode::Explicit}, {2, EvictionMode::Explicit}})));
  auto evicted = bm.scavenge([](JobId id) { return id == JobId(2); });  // job 1 dead
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], BlockId(1));
  EXPECT_TRUE(bm.contains(BlockId(2)));
  EXPECT_TRUE(bm.contains(BlockId(3)));  // job 2 still holds it
}

TEST_F(BufferFixture, OverThreshold) {
  BufferManager bm(&memory, {}, mib(100));
  EXPECT_FALSE(bm.over_threshold(0.9));
  ASSERT_TRUE(bm.try_add(BlockId(1), mib(95), refs({{1, EvictionMode::Explicit}})));
  EXPECT_TRUE(bm.over_threshold(0.9));
  EXPECT_FALSE(bm.over_threshold(1.0));
}

TEST_F(BufferFixture, ForceEvictIgnoresRefs) {
  BufferManager bm(&memory);
  ASSERT_TRUE(bm.try_add(BlockId(1), mib(64), refs({{1, EvictionMode::Explicit}})));
  bm.force_evict(BlockId(1));
  EXPECT_FALSE(bm.contains(BlockId(1)));
  EXPECT_EQ(memory.pinned(), 0);
  // Job bookkeeping is consistent afterwards: releasing the job is a noop.
  EXPECT_TRUE(bm.release_job(JobId(1)).empty());
  bm.force_evict(BlockId(42));  // unknown block: noop
}

TEST_F(BufferFixture, ClearAllReturnsEverythingAndUnpins) {
  BufferManager bm(&memory);
  ASSERT_TRUE(bm.try_add(BlockId(1), mib(64), refs({{1, EvictionMode::Explicit}})));
  ASSERT_TRUE(bm.try_add(BlockId(2), mib(64), refs({{2, EvictionMode::Implicit}})));
  auto had = bm.clear_all();
  EXPECT_EQ(had.size(), 2u);
  EXPECT_EQ(bm.used(), 0);
  EXPECT_EQ(bm.buffered_count(), 0u);
  EXPECT_EQ(memory.pinned(), 0);
}

TEST_F(BufferFixture, DoubleAddThrows) {
  BufferManager bm(&memory);
  ASSERT_TRUE(bm.try_add(BlockId(1), mib(64), refs({{1, EvictionMode::Explicit}})));
  EXPECT_THROW(bm.try_add(BlockId(1), mib(64), refs({{2, EvictionMode::Explicit}})),
               CheckError);
}

TEST_F(BufferFixture, EmptyRefsThrow) {
  BufferManager bm(&memory);
  EXPECT_THROW(bm.try_add(BlockId(1), mib(64), {}), CheckError);
}

// --- edge cases around the limits ---------------------------------------

TEST_F(BufferFixture, AdmissionExactlyAtHardLimit) {
  // A block that lands used() exactly on the limit is admitted; the next
  // byte is refused.
  BufferManager bm(&memory, {}, mib(300));
  EXPECT_TRUE(bm.try_add(BlockId(1), mib(300), refs({{1, EvictionMode::Explicit}})));
  EXPECT_EQ(bm.used(), bm.limit());
  EXPECT_FALSE(bm.try_add(BlockId(2), mib(1), refs({{1, EvictionMode::Explicit}})));
  // And a single block larger than the limit can never be admitted.
  BufferManager small(&memory, {}, mib(100));
  EXPECT_FALSE(small.try_add(BlockId(3), mib(100) + 1, refs({{1, EvictionMode::Explicit}})));
}

TEST_F(BufferFixture, OverThresholdAtExactBoundary) {
  // over_threshold is >= (crossing the watermark triggers the drain), so
  // used() exactly at fraction * limit counts as over.
  BufferManager bm(&memory, {}, mib(100));
  ASSERT_TRUE(bm.try_add(BlockId(1), mib(90), refs({{1, EvictionMode::Explicit}})));
  EXPECT_TRUE(bm.over_threshold(0.9));
  EXPECT_FALSE(bm.over_threshold(0.91));
  ASSERT_TRUE(bm.try_add(BlockId(2), mib(10), refs({{1, EvictionMode::Explicit}})));
  EXPECT_TRUE(bm.over_threshold(1.0));
}

TEST_F(BufferFixture, ScavengeRacingReleaseJob) {
  // The scheduler reports job 1 dead right as its explicit release lands:
  // whichever runs second must see consistent bookkeeping and evict
  // nothing twice.
  BufferManager bm(&memory);
  ASSERT_TRUE(bm.try_add(BlockId(1), mib(64), refs({{1, EvictionMode::Explicit}})));
  ASSERT_TRUE(bm.try_add(BlockId(2), mib(64),
                         refs({{1, EvictionMode::Explicit}, {2, EvictionMode::Explicit}})));
  auto released = bm.release_job(JobId(1));
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0], BlockId(1));
  auto scavenged = bm.scavenge([](JobId id) { return id != JobId(1); });
  EXPECT_TRUE(scavenged.empty());  // job 1's references are already gone
  EXPECT_TRUE(bm.contains(BlockId(2)));
  EXPECT_EQ(bm.used(), mib(64));
  EXPECT_EQ(memory.pinned(), mib(64));
  // The reverse order: scavenge first, then the (now stale) release.
  auto scavenged2 = bm.scavenge([](JobId) { return false; });
  ASSERT_EQ(scavenged2.size(), 1u);
  EXPECT_TRUE(bm.release_job(JobId(2)).empty());
  EXPECT_EQ(memory.pinned(), 0);
}

TEST_F(BufferFixture, ForceEvictWithLiveReferencesLeavesJobConsistent) {
  // A cancelled migration force-drops its block while the job still
  // references another: only the victim goes, and the job's remaining
  // bookkeeping stays intact.
  BufferManager bm(&memory);
  ASSERT_TRUE(bm.try_add(BlockId(1), mib(64), refs({{1, EvictionMode::Explicit}})));
  ASSERT_TRUE(bm.try_add(BlockId(2), mib(64), refs({{1, EvictionMode::Explicit}})));
  bm.force_evict(BlockId(1));
  EXPECT_FALSE(bm.contains(BlockId(1)));
  EXPECT_TRUE(bm.contains(BlockId(2)));
  EXPECT_EQ(memory.pinned(), mib(64));
  auto evicted = bm.release_job(JobId(1));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], BlockId(2));
  EXPECT_EQ(memory.pinned(), 0);
}

TEST_F(BufferFixture, MarkResidentOnEvictedReservationIsNoop) {
  // An implicit read can evict an unreferenced reservation while its data
  // is still arriving; the completion's mark_resident must be a no-op.
  BufferManager bm(&memory);
  ASSERT_TRUE(bm.try_add(BlockId(1), mib(64), refs({{1, EvictionMode::Implicit}})));
  ASSERT_EQ(bm.on_block_read(BlockId(1), JobId(1)).size(), 1u);
  bm.mark_resident(BlockId(1));  // must not throw
  EXPECT_FALSE(bm.contains(BlockId(1)));
}

// --- memory pressure -----------------------------------------------------

struct TierFixture : BufferFixture {
  static TierPolicy evict_cold() {
    TierPolicy p;
    p.on_pressure = TierPolicy::OnPressure::EvictColdFirst;
    return p;
  }

  /// Admits a resident (completed) 64 MiB block referenced by job 1.
  void add_resident(BufferManager& bm, int id,
                    std::vector<BufferManager::Demotion>* demotions = nullptr) {
    ASSERT_TRUE(bm.try_add(BlockId(id), mib(64), refs({{1, EvictionMode::Explicit}}),
                           demotions, /*cookie=*/static_cast<std::uint64_t>(id)));
    bm.mark_resident(BlockId(id));
  }
};

TEST_F(TierFixture, EvictColdFirstDemotesColdestToDisk) {
  BufferManager bm(&memory, evict_cold(), mib(128));  // two blocks
  std::vector<BufferManager::Demotion> demoted;
  add_resident(bm, 1);
  add_resident(bm, 2);
  add_resident(bm, 3, &demoted);  // pressure: block 1 (coldest) demotes
  ASSERT_EQ(demoted.size(), 1u);
  EXPECT_EQ(demoted[0].block, BlockId(1));
  EXPECT_EQ(demoted[0].size, mib(64));
  EXPECT_EQ(demoted[0].cookie, 1u);  // the victim's admission cookie
  // The demoted block falls back to disk: evicted, unpinned, and its
  // references dropped, so releasing the job frees only the other two.
  EXPECT_FALSE(bm.contains(BlockId(1)));
  EXPECT_TRUE(bm.contains(BlockId(3)));
  EXPECT_EQ(bm.used(), mib(128));
  EXPECT_EQ(memory.pinned(), mib(128));
  auto evicted = bm.release_job(JobId(1));
  EXPECT_EQ(evicted.size(), 2u);
  EXPECT_EQ(memory.pinned(), 0);
}

TEST_F(TierFixture, ReservationsAreNeverDemotionVictims) {
  // Both buffered blocks are still arriving: there is no safe victim, so
  // admission under pressure must refuse rather than demote one.
  BufferManager bm(&memory, evict_cold(), mib(128));
  ASSERT_TRUE(bm.try_add(BlockId(1), mib(64), refs({{1, EvictionMode::Explicit}})));
  ASSERT_TRUE(bm.try_add(BlockId(2), mib(64), refs({{1, EvictionMode::Explicit}})));
  std::vector<BufferManager::Demotion> demoted;
  EXPECT_FALSE(bm.try_add(BlockId(3), mib(64), refs({{1, EvictionMode::Explicit}}), &demoted));
  EXPECT_TRUE(demoted.empty());
  EXPECT_EQ(bm.used(), mib(128));
}

TEST_F(TierFixture, SlruReadProtectsHotBlocksFromDemotion) {
  BufferManager bm(&memory, evict_cold(), mib(128));
  add_resident(bm, 1);
  add_resident(bm, 2);
  // A read renews demand for block 1: it moves to the protected segment,
  // so the probationary block 2 is the next victim despite being newer.
  bm.on_block_read(BlockId(1), JobId(99));  // non-referencing: touch only
  std::vector<BufferManager::Demotion> demoted;
  add_resident(bm, 3, &demoted);
  ASSERT_EQ(demoted.size(), 1u);
  EXPECT_EQ(demoted[0].block, BlockId(2));
  EXPECT_TRUE(bm.contains(BlockId(1)));
}

TEST_F(TierFixture, WatermarkCrossingDrainsToLowMark) {
  TierPolicy p;  // refuse on pressure, but watermarks drain first
  p.high_watermark = 0.8;
  p.low_watermark = 0.5;
  BufferManager bm(&memory, p, mib(320));  // high at 256, low at 160
  std::vector<BufferManager::Demotion> demoted;
  add_resident(bm, 1);
  add_resident(bm, 2);
  add_resident(bm, 3);
  EXPECT_TRUE(demoted.empty());
  add_resident(bm, 4, &demoted);  // 256 MiB >= high: drain to <= 160
  ASSERT_EQ(demoted.size(), 2u);
  EXPECT_EQ(demoted[0].block, BlockId(1));
  EXPECT_EQ(demoted[1].block, BlockId(2));
  EXPECT_EQ(bm.used(), mib(128));
  EXPECT_EQ(memory.pinned(), mib(128));
  // The block that triggered the drain is never its victim.
  EXPECT_TRUE(bm.contains(BlockId(4)));
}

TEST_F(TierFixture, TierLogRecordsAdmissionsAndDemotionsInOrder) {
  BufferManager bm(&memory, evict_cold(), mib(128));
  std::vector<BufferManager::Demotion> demoted;
  add_resident(bm, 1);
  add_resident(bm, 2);
  add_resident(bm, 3, &demoted);
  const std::vector<BufferManager::TierDecision> expected = {
      {BlockId(1), Tier::Disk, Tier::Memory},
      {BlockId(2), Tier::Disk, Tier::Memory},
      {BlockId(1), Tier::Memory, Tier::Disk},
      {BlockId(3), Tier::Disk, Tier::Memory},
  };
  EXPECT_EQ(bm.tier_log(), expected);
}

// Invariant sweep: after arbitrary interleavings of add/release/read, used()
// equals the sum of sizes of contained blocks and memory.pinned matches.
class BufferInvariantTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BufferInvariantTest, AccountingStaysConsistent) {
  sim::Simulator sim;
  cluster::Memory memory(sim, {.capacity = gib(4), .read_bandwidth = gib_per_sec(25)});
  BufferManager bm(&memory, {}, gib(2));
  Rng rng(GetParam());
  std::vector<BlockId> live;
  Bytes expected_used = 0;
  std::map<BlockId, Bytes> sizes;
  for (int step = 0; step < 300; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 2));
    if (op == 0) {
      const BlockId block(rng.uniform_int(0, 1'000'000));
      if (bm.contains(block)) continue;
      const Bytes size = mib(rng.uniform_int(1, 128));
      const JobId job(rng.uniform_int(0, 5));
      const auto mode = rng.bernoulli(0.5) ? EvictionMode::Implicit : EvictionMode::Explicit;
      if (bm.try_add(block, size, std::map<JobId, EvictionMode>{{job, mode}})) {
        live.push_back(block);
        sizes[block] = size;
        expected_used += size;
      }
    } else if (op == 1 && !live.empty()) {
      const JobId job(rng.uniform_int(0, 5));
      for (BlockId gone : bm.release_job(job)) {
        expected_used -= sizes[gone];
        live.erase(std::remove(live.begin(), live.end(), gone), live.end());
      }
    } else if (op == 2 && !live.empty()) {
      const BlockId block = live[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
      const JobId job(rng.uniform_int(0, 5));
      for (BlockId gone : bm.on_block_read(block, job)) {
        expected_used -= sizes[gone];
        live.erase(std::remove(live.begin(), live.end(), gone), live.end());
      }
    }
    ASSERT_EQ(bm.used(), expected_used);
    ASSERT_EQ(memory.pinned(), expected_used);
    ASSERT_EQ(bm.buffered_count(), live.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferInvariantTest, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace dyrs::core
