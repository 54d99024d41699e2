#include "core/pending_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace dyrs::core {
namespace {

PendingMigration pm(int block, Bytes size, std::vector<JobId> jobs) {
  PendingMigration p;
  p.block = BlockId(block);
  p.size = size;
  for (JobId j : jobs) p.jobs[j] = EvictionMode::Explicit;
  return p;
}

std::vector<BlockId> order_of(PendingQueue& q, Ordering ordering) {
  std::vector<BlockId> out;
  q.visit(ordering, [&out](PendingQueue::iterator it) {
    out.push_back(it->block);
    return true;
  });
  return out;
}

TEST(PendingQueue, IndexTracksInsertAndErase) {
  PendingQueue q;
  q.push(pm(1, mib(1), {JobId(1)}));
  q.push(pm(2, mib(1), {JobId(1)}));
  EXPECT_TRUE(q.contains(BlockId(1)));
  ASSERT_NE(q.lookup(BlockId(2)), nullptr);
  EXPECT_EQ(q.lookup(BlockId(2))->size, mib(1));
  EXPECT_TRUE(q.erase(BlockId(1)));
  EXPECT_FALSE(q.erase(BlockId(1)));
  EXPECT_FALSE(q.contains(BlockId(1)));
  EXPECT_EQ(q.size(), 1u);
}

TEST(PendingQueue, FifoIsInsertionOrder) {
  PendingQueue q;
  q.push(pm(3, mib(9), {JobId(1)}));
  q.push(pm(1, mib(1), {JobId(2)}));
  q.push(pm(2, mib(4), {JobId(3)}));
  EXPECT_EQ(order_of(q, Ordering::Fifo),
            (std::vector<BlockId>{BlockId(3), BlockId(1), BlockId(2)}));
}

TEST(PendingQueue, SmallestJobFirstOrdersByOutstandingJobBytes) {
  PendingQueue q;
  // Job 1 has 3 pending MiB-blocks (3 MiB outstanding), job 2 one (1 MiB).
  q.push(pm(10, mib(1), {JobId(1)}));
  q.push(pm(11, mib(1), {JobId(1)}));
  q.push(pm(12, mib(1), {JobId(1)}));
  q.push(pm(20, mib(1), {JobId(2)}));
  EXPECT_EQ(order_of(q, Ordering::SmallestJobFirst),
            (std::vector<BlockId>{BlockId(20), BlockId(10), BlockId(11), BlockId(12)}));
}

TEST(PendingQueue, SmallestJobFirstTiesKeepFifoOrder) {
  PendingQueue q;
  // Two jobs with identical outstanding bytes: the stable sort must leave
  // the interleaved insertion order untouched.
  q.push(pm(1, mib(2), {JobId(1)}));
  q.push(pm(2, mib(2), {JobId(2)}));
  q.push(pm(3, mib(2), {JobId(1)}));
  q.push(pm(4, mib(2), {JobId(2)}));
  EXPECT_EQ(order_of(q, Ordering::SmallestJobFirst),
            (std::vector<BlockId>{BlockId(1), BlockId(2), BlockId(3), BlockId(4)}));
}

TEST(PendingQueue, SharedBlockInheritsMostUrgentJob) {
  PendingQueue q;
  // Block 5 is wanted by both the 9 MiB job and the 3 MiB job (its size
  // counts toward both); it sorts with the small job's priority.
  q.push(pm(1, mib(8), {JobId(1)}));
  q.push(pm(5, mib(1), {JobId(1), JobId(2)}));
  q.push(pm(6, mib(2), {JobId(2)}));
  EXPECT_EQ(order_of(q, Ordering::SmallestJobFirst),
            (std::vector<BlockId>{BlockId(5), BlockId(6), BlockId(1)}));
}

TEST(PendingQueue, RequeueTakesFreshTailPosition) {
  PendingQueue q;
  q.push(pm(1, mib(1), {JobId(1)}));
  q.push(pm(2, mib(1), {JobId(1)}));
  q.push(pm(3, mib(1), {JobId(1)}));
  // Block 1 is bound (removed), block 4 arrives, then block 1 comes back
  // after a slave failure: it must not jump ahead of work that queued
  // while it was bound.
  PendingMigration lost = *q.lookup(BlockId(1));
  q.erase(BlockId(1));
  q.push(pm(4, mib(1), {JobId(1)}));
  q.push(std::move(lost));
  EXPECT_EQ(order_of(q, Ordering::Fifo),
            (std::vector<BlockId>{BlockId(2), BlockId(3), BlockId(4), BlockId(1)}));
}

}  // namespace
}  // namespace dyrs::core
