#include "core/pending_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
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

// ---------------------------------------------------------------------------
// Per-target lists: after any mix of pushes, Fifo retarget passes and the
// erase paths the masters take (`erase(it)` mid-walk, `erase(block)`,
// `clear()`), each node's list holds exactly the entries targeted at it,
// in FIFO order.

std::vector<BlockId> targeted_at(PendingQueue& q, NodeId node) {
  std::vector<BlockId> out;
  q.visit_targeted(node, [&out](PendingQueue::iterator it) {
    out.push_back(it->block);
    return true;
  });
  return out;
}

std::vector<BlockId> fifo_filter(const PendingQueue& q, NodeId node) {
  std::vector<BlockId> out;
  for (const PendingMigration& p : q) {
    if (p.target == node) out.push_back(p.block);
  }
  return out;
}

TEST(PendingQueueTargets, ListsMatchTargetsInFifoOrderUnderEveryErasePath) {
  constexpr int kNodes = 5;
  std::uint64_t state = 0x7a11;
  auto below = [&state](int n) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>((state >> 33) % static_cast<std::uint64_t>(n));
  };
  PendingQueue q;
  int next_block = 0;
  int checks = 0;
  for (int step = 0; step < 3000; ++step) {
    const int op = below(100);
    if (op < 45) {
      q.push(pm(next_block++, mib(1), {JobId(1 + below(3))}));
    } else if (op < 65) {
      // A pass moves some entries, keeps others, and leaves some untargeted.
      q.retarget(Ordering::Fifo, [&](PendingMigration& p) {
        const int r = below(kNodes + 2);
        if (r < kNodes) {
          p.target = NodeId(r);
        } else if (r == kNodes) {
          p.target = NodeId::invalid();
        }  // else: keeps its target
      });
    } else if (op < 80) {
      // A pull: bind (erase) every other entry of one node's list.
      bool take = true;
      q.visit_targeted(NodeId(below(kNodes)), [&](PendingQueue::iterator it) {
        if (take) q.erase(it);
        take = !take;
        return true;
      });
    } else if (op < 92 && next_block > 0) {
      q.erase(BlockId(below(next_block)));
    } else if (op < 98) {
      // An evict-style walk: erase one job's entries through the iterator.
      const JobId job(1 + below(3));
      for (auto it = q.begin(); it != q.end();) {
        it = it->jobs.count(job) != 0 ? q.erase(it) : std::next(it);
      }
    } else {
      q.clear();
    }
    for (int n = 0; n < kNodes; ++n) {
      ASSERT_EQ(targeted_at(q, NodeId(n)), fifo_filter(q, NodeId(n))) << "step " << step;
      EXPECT_EQ(q.has_targeted(NodeId(n)), !fifo_filter(q, NodeId(n)).empty());
      ++checks;
    }
  }
  EXPECT_EQ(checks, 3000 * kNodes);
  EXPECT_FALSE(q.has_targeted(NodeId(kNodes + 3)));  // never a target
  EXPECT_FALSE(q.has_targeted(NodeId::invalid()));
}

TEST(PendingQueueTargets, SmallestJobFirstPassFilesInPassOrder) {
  PendingQueue q;
  q.push(pm(1, mib(8), {JobId(1)}));
  q.push(pm(2, mib(1), {JobId(2)}));
  q.push(pm(3, mib(8), {JobId(1)}));
  // The pass visits block 2 (the smaller job) first, and files in pass order.
  q.retarget(Ordering::SmallestJobFirst, [](PendingMigration& p) { p.target = NodeId(0); });
  EXPECT_EQ(targeted_at(q, NodeId(0)), (std::vector<BlockId>{BlockId(2), BlockId(1), BlockId(3)}));
  // A Fifo pass puts every list in FIFO order, including entries that keep
  // their target.
  q.retarget(Ordering::Fifo, [](PendingMigration& p) { p.target = NodeId(0); });
  EXPECT_EQ(targeted_at(q, NodeId(0)), (std::vector<BlockId>{BlockId(1), BlockId(2), BlockId(3)}));
}

}  // namespace
}  // namespace dyrs::core
