// Concurrency stress for the rt exchange: 16 slaves hammering 32-block
// pull/complete cycles against the striped settlement state while two of
// them crash and restart mid-drain and poller threads snapshot the
// lock-free accessors continuously. Runs in Release and in the tsan-rt CI
// job (with a scaled-down block count); the assertions are pure accounting
// — every block settles exactly once no matter how the cycles, reclaims and
// snapshots interleave.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "rt/master.h"

#if defined(__SANITIZE_THREAD__)
#define DYRS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DYRS_TSAN 1
#endif
#endif

namespace dyrs::rt {
namespace {

using namespace std::chrono_literals;

TEST(RtShardStress, BatchedCrashRestartWithConcurrentPollers) {
  constexpr int kNodes = 16;
#ifdef DYRS_TSAN
  constexpr int kBlocks = 4000;  // TSan multiplies per-access cost ~10x
#else
  constexpr int kBlocks = 50000;
#endif
  constexpr int kJobs = 4;

  RtMaster::Options options;
  for (int n = 0; n < kNodes; ++n) {
    RtSlave::Options s;
    s.node = NodeId(n);
    s.disk_bandwidth = mib_per_sec(2048);
    s.queue_capacity = 32;  // each drain cycle reads and reports up to 32
    s.reference_block = mib(1);
    s.heartbeat_interval = 5ms;
    options.slaves.push_back(s);
  }
  options.retarget_interval = 2ms;
  options.failure_detection.enabled = true;
  options.failure_detection.monitor_interval = 5ms;
  options.failure_detection.suspect_after = 60ms;
  options.failure_detection.declare_dead_after = 150ms;
  RtMaster master(std::move(options));

  // Adjacent-pair replicas: nodes 3 and 7 are never both holders of one
  // block, so every reclaimed block still has a live replica to requeue to
  // and the final count must be exact.
  std::vector<RtBlock> blocks;
  blocks.reserve(kBlocks);
  for (int i = 0; i < kBlocks; ++i) {
    blocks.push_back({BlockId(i), 4 * kKiB,
                      {NodeId(i % kNodes), NodeId((i + 1) % kNodes)},
                      JobId(1 + i % kJobs)});
  }

  // Pollers snapshot the accessors throughout the drain — this is the
  // TSan surface for the lock-free counter reads racing worker-thread
  // settlements, and doubles as the no-blocking claim under load.
  std::atomic<bool> done{false};
  std::atomic<long> observed_max{0};
  std::vector<std::jthread> pollers;
  for (int p = 0; p < 2; ++p) {
    pollers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        long sum = 0;
        for (const auto& [node, n] : master.completed_per_node()) sum += n;
        long jobs = 0;
        for (const auto& [job, n] : master.completed_per_job()) jobs += n;
        const long total = master.completed();
        // Monotone sanity while racing: sums lag or match, never exceed.
        EXPECT_LE(sum, kBlocks);
        EXPECT_LE(jobs, kBlocks);
        long prev = observed_max.load(std::memory_order_relaxed);
        while (total > prev &&
               !observed_max.compare_exchange_weak(prev, total, std::memory_order_relaxed)) {
        }
        std::this_thread::sleep_for(100us);
      }
    });
  }

  std::jthread chaos([&master] {
    std::this_thread::sleep_for(20ms);
    master.slave(NodeId(3)).crash();
    std::this_thread::sleep_for(30ms);
    master.slave(NodeId(7)).crash();
    std::this_thread::sleep_for(550ms);
    master.slave(NodeId(3)).restart();
    std::this_thread::sleep_for(300ms);
    master.slave(NodeId(7)).restart();
  });

  master.migrate(blocks);
  ASSERT_TRUE(master.wait_idle(100s));
  chaos.join();
  done.store(true, std::memory_order_relaxed);
  for (auto& p : pollers) p.join();

  // Exactly-once settlement: no report member double-settled through a
  // reclaim race, none was lost.
  EXPECT_EQ(master.completed(), kBlocks);
  long per_node_sum = 0;
  for (const auto& [node, n] : master.completed_per_node()) {
    EXPECT_GE(n, 0);
    per_node_sum += n;
  }
  EXPECT_EQ(per_node_sum, kBlocks);
  long per_job_sum = 0;
  const auto per_job = master.completed_per_job();
  EXPECT_EQ(per_job.size(), static_cast<std::size_t>(kJobs));
  for (const auto& [job, n] : per_job) per_job_sum += n;
  EXPECT_EQ(per_job_sum, kBlocks);
  EXPECT_EQ(master.pending(), 0u);
  EXPECT_LE(observed_max.load(), kBlocks);
  master.shutdown();
}

}  // namespace
}  // namespace dyrs::rt
