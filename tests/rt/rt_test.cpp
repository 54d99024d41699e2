// Real-threaded runtime tests. Wall-clock timing is kept loose: these
// verify protocol behaviour (load distribution, adaptivity, shutdown
// safety), not precise timing.
#include "rt/master.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "common/random.h"
#include "obs/metrics_registry.h"
#include "obs/thread_buffer_sink.h"
#include "obs/trace.h"
#include "obs/trace_invariants.h"
#include "obs/trace_reader.h"
#include "rt/throttled_disk.h"
#include "testing/bind_order.h"

namespace dyrs::rt {
namespace {

using namespace std::chrono_literals;

RtSlave::Options slave_opts(int node, Rate bw) {
  RtSlave::Options o;
  o.node = NodeId(node);
  o.disk_bandwidth = bw;
  o.queue_capacity = 2;
  o.reference_block = mib(1);
  return o;
}

/// Master options over `slaves`, Algorithm 1 passes every `retarget_interval`.
RtMaster::Options master_opts(std::vector<RtSlave::Options> slaves,
                              std::chrono::milliseconds retarget_interval = 2ms) {
  RtMaster::Options options;
  options.slaves = std::move(slaves);
  options.retarget_interval = retarget_interval;
  return options;
}

std::vector<RtBlock> blocks_on_all(int count, int nodes, Bytes size = mib(1)) {
  std::vector<RtBlock> out;
  for (int i = 0; i < count; ++i) {
    RtBlock b;
    b.block = BlockId(i);
    b.size = size;
    for (int n = 0; n < nodes; ++n) b.replicas.push_back(NodeId(n));
    out.push_back(std::move(b));
  }
  return out;
}

/// Polls `done` every millisecond until it holds or `timeout` elapses.
bool eventually(const std::function<bool()>& done, std::chrono::milliseconds timeout = 10s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

/// Thread-safe trace sink keeping `type#block` per event in emission order;
/// the test also appends its own entries (completion reports).
class EventLog final : public obs::TraceSink {
 public:
  void emit(const obs::TraceEvent& e) override {
    add(e.type + "#" + std::to_string(e.i64("block")));
  }
  void add(std::string entry) {
    std::lock_guard lock(mu_);
    entries_.push_back(std::move(entry));
  }
  std::vector<std::string> entries() const {
    std::lock_guard lock(mu_);
    return entries_;
  }
  bool contains(const std::string& entry) const {
    std::lock_guard lock(mu_);
    return std::find(entries_.begin(), entries_.end(), entry) != entries_.end();
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> entries_;
};

RtMigration migration(int block, Bytes size) {
  RtMigration m;
  m.m.block = BlockId(block);
  m.m.size = size;
  m.m.jobs = {{JobId(1), core::EvictionMode::Implicit}};
  return m;
}

/// A pull that hands the slave `work` once, after `go` is set.
std::function<void(RtSlave&, int)> pull_once(std::atomic<bool>& go,
                                             std::vector<RtMigration> work) {
  return [&go, work = std::move(work)](RtSlave& slave, int) {
    if (go.exchange(false)) slave.accept(work);
  };
}

// The read contract: a call never returns before its start plus the token
// time of what it served, for one small item (2 us, well under the timer
// slack a sleep used to pay) and for several. A lower bound only.
TEST(ThrottledDisk, NeverReturnsBeforeTokenTime) {
  const Rate rate = gib_per_sec(2);
  ThrottledDisk disk(rate);
  for (const std::vector<Bytes>& items :
       {std::vector<Bytes>{4 * kKiB}, std::vector<Bytes>{4 * kKiB, 64 * kKiB, 3 * kMiB}}) {
    double token_s = 0;
    for (Bytes b : items) token_s += static_cast<double>(b) / rate;
    double service_s = 0;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(disk.read(items, nullptr, nullptr, nullptr, nullptr,
                        [&](std::size_t, double s) { service_s += s; }),
              items.size());
    const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    EXPECT_GE(s, token_s);
    EXPECT_NEAR(service_s, token_s, 1e-9);  // on_done reports token time
  }
}

#ifdef __linux__
TEST(ThrottledDisk, PacingThreadHonoursShortWaits) {
  int slack_ns = -1;
  std::jthread([&] {
    ThrottledDisk(gib_per_sec(2)).read({4 * kKiB});
    slack_ns = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  }).join();
  EXPECT_EQ(slack_ns, 1);
}
#endif

TEST(ThrottledDisk, ReadTakesProportionalTime) {
  ThrottledDisk disk(mib_per_sec(100));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(disk.read({mib(5)}), 1u);  // ~50ms
  const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_GT(s, 0.03);
  EXPECT_LT(s, 0.5);
}

TEST(ThrottledDisk, CancellationStopsRead) {
  ThrottledDisk disk(mib_per_sec(1));  // 1 MiB/s: a 10MiB read would be 10s
  std::atomic<bool> cancelled{false};
  std::jthread killer([&] {
    std::this_thread::sleep_for(20ms);
    cancelled = true;
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(disk.read({mib(10)}, nullptr, nullptr, nullptr, [&] { return cancelled.load(); }),
            0u);
  const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(s, 2.0);
}

TEST(ThrottledDisk, BandwidthChangeMidRead) {
  ThrottledDisk disk(mib_per_sec(10));  // 4MiB would take 400ms
  std::jthread booster([&] {
    std::this_thread::sleep_for(20ms);
    disk.set_nominal_bandwidth(mib_per_sec(1000));
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(disk.read({mib(4)}), 1u);
  const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(s, 0.3);  // the speedup took effect mid-read
}

// A member whose read finished but whose completion is not flushed yet can
// still be cancelled. At queue capacity 2 one drain cycle reads both blocks:
// block 0 (4 KiB) has been read once block 1 (2 MiB, ~2 s on a 1 MiB/s
// disk) starts; cancelling block 0 then returns true, and the flush drops
// it: not reported, not buffered and not an estimator sample.
TEST(RtSlave, ReadButUnflushedMemberIsCancellable) {
  obs::Tracer tracer;
  EventLog log;
  tracer.set_sink(&log);
  RtSlave::Options o = slave_opts(0, mib_per_sec(64));  // the estimator's fallback rate
  o.queue_capacity = 2;
  o.obs = obs::ObsContext(nullptr, &tracer);
  std::atomic<bool> go{false};
  std::atomic<int> reported{0};
  RtSlave slave(
      o, core::ControlPlaneConfig{},
      [&](std::vector<RtMigrationDone> d) { reported += static_cast<int>(d.size()); },
      pull_once(go, {migration(0, 4 * kKiB), migration(1, mib(2))}));
  slave.disk().set_nominal_bandwidth(mib_per_sec(1));
  go = true;
  slave.poke();
  ASSERT_TRUE(eventually([&] { return log.contains("mig_transfer_start#1"); }));
  EXPECT_TRUE(slave.cancel(BlockId(0)));
  EXPECT_TRUE(slave.cancel(BlockId(1)));  // ends the long read early
  ASSERT_TRUE(eventually([&] { return slave.bound_bytes() == 0; }));
  EXPECT_EQ(reported, 0);
  EXPECT_EQ(slave.completed(), 0);
  EXPECT_EQ(slave.buffered_bytes(), 0u);
  EXPECT_DOUBLE_EQ(slave.sec_per_byte(), 1.0 / mib_per_sec(64));
}

// One drain cycle reads everything a pull handed over and settles it in one
// report: four blocks pulled together arrive in one on_complete call.
TEST(RtSlave, OneCycleReportsEveryPulledMigration) {
  RtSlave::Options o = slave_opts(0, mib_per_sec(64));
  o.queue_capacity = 4;
  std::atomic<bool> go{false};
  std::mutex mu;
  std::vector<std::size_t> reports;  // members per on_complete call
  RtSlave slave(
      o, core::ControlPlaneConfig{},
      [&](std::vector<RtMigrationDone> d) {
        std::lock_guard lock(mu);
        reports.push_back(d.size());
      },
      pull_once(go, {migration(0, 64 * kKiB), migration(1, 64 * kKiB), migration(2, 64 * kKiB),
                     migration(3, 64 * kKiB)}));
  go = true;
  slave.poke();
  const auto reported = [&] {
    std::lock_guard lock(mu);
    std::size_t n = 0;
    for (std::size_t r : reports) n += r;
    return n;
  };
  ASSERT_TRUE(eventually([&] { return reported() == 4; }));
  std::lock_guard lock(mu);
  EXPECT_EQ(reports, std::vector<std::size_t>{4});
}

// A flush settles a whole queue under the slave mutex, and pinning a large
// buffer can outlast a disk slice, so the flush beats once per settled
// member. The read-fault hook runs inside the flush once per member; a hook
// that sleeps must see a fresher heartbeat at every member after the first.
TEST(RtSlave, FlushBeatsPerSettledMember) {
  RtSlave::Options o = slave_opts(0, mib_per_sec(64));
  o.queue_capacity = 4;
  std::atomic<bool> go{false};
  std::atomic<int> reports{0};
  std::atomic<int> settled{0};
  std::vector<std::int64_t> beats;  // the worker writes it before it reports
  RtSlave slave(
      o, core::ControlPlaneConfig{},
      [&](std::vector<RtMigrationDone> d) {
        ++reports;
        settled += static_cast<int>(d.size());
      },
      pull_once(go, {migration(0, 64 * kKiB), migration(1, 64 * kKiB), migration(2, 64 * kKiB),
                     migration(3, 64 * kKiB)}));
  slave.set_read_fault_hook([&](BlockId) {
    beats.push_back(slave.last_heartbeat_us());
    std::this_thread::sleep_for(2ms);  // a slow pin
    return false;
  });
  go = true;
  slave.poke();
  ASSERT_TRUE(eventually([&] { return settled == 4; }));
  EXPECT_EQ(reports, 1);
  ASSERT_EQ(beats.size(), 4u);
  for (std::size_t i = 1; i < beats.size(); ++i) {
    EXPECT_GT(beats[i], beats[i - 1]) << "no heartbeat between members " << i - 1 << " and " << i;
  }
}

// A faulted member retries alone after its backoff: transfer_start,
// transfer_retry, a fresh transfer_start, then its completion report.
TEST(RtSlave, FaultedBlockRetriesAfterBackoff) {
  obs::Tracer tracer;
  EventLog log;
  tracer.set_sink(&log);
  RtSlave::Options o = slave_opts(0, mib_per_sec(64));
  o.obs = obs::ObsContext(nullptr, &tracer);
  core::ControlPlaneConfig policy;
  policy.retry = {.max_attempts = 3, .backoff = milliseconds(1), .backoff_cap = milliseconds(4)};
  std::atomic<bool> go{false};
  RtSlave slave(
      o, policy,
      [&](std::vector<RtMigrationDone> d) {
        for (const RtMigrationDone& done : d) {
          log.add("complete#" + std::to_string(done.block.value()));
        }
      },
      pull_once(go, {migration(7, 64 * kKiB)}));
  slave.set_read_fault_hook(
      [count = std::make_shared<std::atomic<int>>(1)](BlockId) { return count->fetch_sub(1) > 0; });
  go = true;
  slave.poke();
  ASSERT_TRUE(eventually([&] { return log.contains("complete#7"); }));
  EXPECT_EQ(log.entries(), (std::vector<std::string>{"mig_transfer_start#7",
                                                     "mig_transfer_retry#7",
                                                     "mig_transfer_start#7", "complete#7"}));
  EXPECT_EQ(slave.retries(), 1);
  EXPECT_EQ(slave.buffered_bytes(), 64 * kKiB);
}

TEST(RtMaster, DrainsAllMigrations) {
  RtMaster master(
      master_opts({slave_opts(0, mib_per_sec(200)), slave_opts(1, mib_per_sec(200))}));
  master.migrate(blocks_on_all(12, 2));
  ASSERT_TRUE(master.wait_idle(10s));
  EXPECT_EQ(master.completed(), 12);
  EXPECT_EQ(master.pending(), 0u);
  EXPECT_EQ(master.slave(NodeId(0)).buffered_count() + master.slave(NodeId(1)).buffered_count(),
            12u);
}

// The retargeter sleeps one interval before its first pass. migrate() runs
// its own pass, so with a 60 s interval the drain sees exactly one; a pass
// at thread start would otherwise race the first migrate() and, when the
// thread started late, re-target its work by timing rather than policy.
TEST(RtMaster, RetargeterFirstPassWaitsOneInterval) {
  obs::MetricsRegistry registry;
  RtMaster::Options options;
  options.slaves = {slave_opts(0, mib_per_sec(400)), slave_opts(1, mib_per_sec(400))};
  options.retarget_interval = 60s;
  options.obs = obs::ObsContext(&registry, nullptr);
  RtMaster master(std::move(options));
  master.migrate(blocks_on_all(8, 2));
  ASSERT_TRUE(master.wait_idle(10s));
  EXPECT_EQ(registry.find_counter("rt.retarget.passes")->value(), 1);
  // The control plane's bind walk reports through the master's registry.
  EXPECT_GE(registry.find_counter("ctrl.bind.entries_scanned")->value(), 8);
}

TEST(RtMaster, LoadFollowsBandwidth) {
  // Node 0 is 8x faster; it should complete the bulk of the migrations.
  RtMaster master(
      master_opts({slave_opts(0, mib_per_sec(400)), slave_opts(1, mib_per_sec(50))}));
  master.migrate(blocks_on_all(24, 2));
  ASSERT_TRUE(master.wait_idle(30s));
  auto per_node = master.completed_per_node();
  EXPECT_GT(per_node[NodeId(0)], per_node[NodeId(1)] * 2);
}

TEST(RtMaster, BuffersHoldRealBytes) {
  RtMaster master(master_opts({slave_opts(0, mib_per_sec(500))}));
  master.migrate(blocks_on_all(4, 1, mib(2)));
  ASSERT_TRUE(master.wait_idle(10s));
  EXPECT_EQ(master.slave(NodeId(0)).buffered_bytes(), mib(8));
}

TEST(RtMaster, EstimatorAdaptsToSlowdown) {
  RtMaster master(master_opts({slave_opts(0, mib_per_sec(400))}));
  master.migrate(blocks_on_all(4, 1));
  ASSERT_TRUE(master.wait_idle(10s));
  const double fast = master.slave(NodeId(0)).sec_per_byte();
  master.slave(NodeId(0)).disk().set_nominal_bandwidth(mib_per_sec(20));
  master.migrate(blocks_on_all(4, 1));  // block ids reused: fine, new entries
  ASSERT_TRUE(master.wait_idle(30s));
  EXPECT_GT(master.slave(NodeId(0)).sec_per_byte(), fast * 3);
}

TEST(RtMaster, ConcurrentMigrateCalls) {
  RtMaster master(master_opts({slave_opts(0, mib_per_sec(300)), slave_opts(1, mib_per_sec(300)),
                               slave_opts(2, mib_per_sec(300))}));
  std::vector<std::jthread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&master, t] {
      std::vector<RtBlock> blocks;
      for (int i = 0; i < 5; ++i) {
        RtBlock b;
        b.block = BlockId(t * 100 + i);
        b.size = mib(1);
        b.replicas = {NodeId(0), NodeId(1), NodeId(2)};
        blocks.push_back(std::move(b));
      }
      master.migrate(blocks);
    });
  }
  submitters.clear();  // join all
  ASSERT_TRUE(master.wait_idle(30s));
  EXPECT_EQ(master.completed(), 20);
}

TEST(RtMaster, CancelPendingMigration) {
  RtMaster master(master_opts({slave_opts(0, mib_per_sec(1))}));
  master.migrate(blocks_on_all(10, 1));
  // Most blocks still pending or queued; cancel one that can't have run.
  EXPECT_TRUE(master.cancel(BlockId(9)));
  EXPECT_FALSE(master.cancel(BlockId(9)));
  EXPECT_FALSE(master.cancel(BlockId(999)));
}

TEST(RtMaster, CancelActiveMigrationUnblocksQuickly) {
  // One slow slave; the first block would take ~8s. Cancelling everything
  // lets wait_idle succeed almost immediately.
  RtMaster master(master_opts({slave_opts(0, mib_per_sec(1))}));
  master.migrate(blocks_on_all(3, 1, mib(8)));
  std::this_thread::sleep_for(50ms);  // let the first read start
  // Every block is pending, queued or being read: a pull hands what it
  // binds to the slave before the master lock drops, so no cancel can find
  // a block in neither place.
  for (int b = 0; b < 3; ++b) EXPECT_TRUE(master.cancel(BlockId(b))) << "block " << b;
  EXPECT_TRUE(master.wait_idle(5s));
  EXPECT_EQ(master.completed(), 0);
  EXPECT_EQ(master.slave(NodeId(0)).buffered_count(), 0u);
}

TEST(RtMaster, ShutdownIsIdempotentAndSafeWithPendingWork) {
  auto master = std::make_unique<RtMaster>(
      master_opts({slave_opts(0, mib_per_sec(1))}));
  master->migrate(blocks_on_all(50, 1));  // would take ~50s: shut down early
  std::this_thread::sleep_for(30ms);
  master->shutdown();
  master->shutdown();
  master.reset();  // no hang, no crash
  SUCCEED();
}

TEST(RtMaster, WaitIdleTimesOutWhenBusy) {
  RtMaster master(master_opts({slave_opts(0, mib_per_sec(1))}));
  master.migrate(blocks_on_all(3, 1));
  EXPECT_FALSE(master.wait_idle(30ms));
}

TEST(RtMaster, CancelRacesBoundTransfer) {
  // Migrate one tiny block per round and cancel immediately: the cancel
  // lands before the pull, mid-transfer, or after the read already
  // finished. A cancel and a completion must never both settle the same
  // migration — if they did, the outstanding count would go negative and
  // completed + cancelled would exceed the rounds.
  RtMaster master(master_opts({slave_opts(0, mib_per_sec(400))}, 1ms));
  const int rounds = 60;
  long cancelled = 0;
  for (int i = 0; i < rounds; ++i) {
    master.migrate(blocks_on_all(1, 1, 64 * kKiB));  // ~160us transfer
    if (i % 3 != 0) std::this_thread::sleep_for(std::chrono::microseconds(i * 7 % 300));
    if (master.cancel(BlockId(0))) ++cancelled;
    ASSERT_TRUE(master.wait_idle(10s)) << "round " << i << " never settled";
  }
  EXPECT_EQ(master.completed() + cancelled, rounds);
}

// rt_jobs' shape: short jobs on slow disks, each cancelled block by block
// and then evicted at its read deadline, a tenth abandoned (evicted) right
// after submission. A bound block is always pending at the master or held
// by one slave, so a cancel that misses a block finds it settled for the
// job: every kept job's completions plus cancel hits cover its blocks, and
// no evicted job leaves a buffer behind.
TEST(RtMaster, DeadlineCancelAndEvictFindEveryBoundBlock) {
  constexpr int kJobs = 450;
  constexpr auto kPeriod = 3333us;  // 300 jobs/s: ~60% of the disks' bandwidth
  constexpr auto kLead = 4ms;
  constexpr auto kAbandonAfter = 2ms;
  RtMaster::Options options;
  for (int n = 0; n < 4; ++n) {
    options.slaves.push_back(slave_opts(n, n == 0 ? mib_per_sec(6) : mib_per_sec(24)));
  }
  options.retarget_interval = 2ms;
  RtMaster master(std::move(options));

  struct Job {
    std::vector<RtBlock> blocks;
    bool abandoned = false;
    long hits = 0;
  };
  Rng rng(21);
  std::vector<Job> jobs(kJobs);
  std::int64_t next_block = 1;
  for (int j = 0; j < kJobs; ++j) {
    jobs[j].abandoned = rng.bernoulli(0.1);
    for (auto b = rng.uniform_int(2, 8); b > 0; --b) {
      const auto first = rng.uniform_int(0, 3);
      jobs[j].blocks.push_back({BlockId(next_block++),
                                32 * kKiB,
                                {NodeId(first), NodeId((first + 1) % 4)},
                                JobId(j + 1)});
    }
  }
  struct Action {
    std::chrono::steady_clock::duration at;
    int job;
    bool submit;
  };
  std::vector<Action> actions;
  for (int j = 0; j < kJobs; ++j) {
    actions.push_back({j * kPeriod, j, true});
    actions.push_back({j * kPeriod + (jobs[j].abandoned ? kAbandonAfter : kLead), j, false});
  }
  std::stable_sort(actions.begin(), actions.end(),
                   [](const Action& a, const Action& b) { return a.at < b.at; });

  const auto start = std::chrono::steady_clock::now();
  for (const Action& a : actions) {
    std::this_thread::sleep_until(start + a.at);
    Job& job = jobs[a.job];
    if (a.submit) {
      master.migrate(job.blocks);
      continue;
    }
    if (!job.abandoned) {
      for (const RtBlock& b : job.blocks) job.hits += master.cancel(b.block) ? 1 : 0;
    }
    master.evict_job(JobId(a.job + 1));
  }
  ASSERT_TRUE(master.wait_idle(30s));

  const auto per_job = master.completed_per_job();
  for (int j = 0; j < kJobs; ++j) {
    if (jobs[j].abandoned) continue;
    const auto it = per_job.find(JobId(j + 1));
    const long done = it == per_job.end() ? 0 : it->second;
    EXPECT_EQ(done + jobs[j].hits, static_cast<long>(jobs[j].blocks.size())) << "job " << j + 1;
  }
  for (NodeId node : master.nodes()) {
    EXPECT_EQ(master.slave(node).buffered_bytes(), 0u) << "node " << node;
  }
}

TEST(RtMaster, WaitIdleReturnsWhenShutdownDiscardsWork) {
  // shutdown() discards queued work; a waiter must observe that and give
  // up (returning false: not drained) instead of sleeping out its timeout.
  RtMaster master(master_opts({slave_opts(0, mib_per_sec(1))}));
  master.migrate(blocks_on_all(5, 1));  // ~5s of work on a 1MiB/s disk
  std::jthread stopper([&master] {
    std::this_thread::sleep_for(50ms);
    master.shutdown();
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(master.wait_idle(30s));
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(s, 5.0);
}

TEST(RtMaster, SmallestJobFirstBindsSmallJobFirst) {
  // Job 1 has six 1MiB blocks, job 2 a single one. Under SJF the lone
  // block of the smaller job must be the node's first binding even though
  // it was enqueued last (one migrate() call: the full queue is visible
  // before the worker's first pull).
  obs::Tracer tracer;
  obs::ThreadLocalBufferSink sink;
  tracer.set_sink(&sink);
  RtMaster::Options options = master_opts({slave_opts(0, mib_per_sec(200))});
  options.ordering = core::Ordering::SmallestJobFirst;
  options.obs = obs::ObsContext(nullptr, &tracer);
  RtMaster master(std::move(options));
  std::vector<RtBlock> blocks;
  for (int i = 0; i < 6; ++i) blocks.push_back({BlockId(i), mib(1), {NodeId(0)}, JobId(1)});
  blocks.push_back({BlockId(100), mib(1), {NodeId(0)}, JobId(2)});
  master.migrate(blocks);
  ASSERT_TRUE(master.wait_idle(10s));
  EXPECT_EQ(master.completed_per_job()[JobId(2)], 1);
  EXPECT_EQ(master.completed_per_job()[JobId(1)], 6);
  master.shutdown();  // quiesce emitters before reading buffers
  const auto order = testing::bind_order(sink.merge_thread_buffers());
  ASSERT_EQ(order.size(), 1u);
  const std::vector<BlockId>& binds = order.at(NodeId(0));
  ASSERT_EQ(binds.size(), 7u);
  EXPECT_EQ(binds[0], BlockId(100));
}

TEST(RtMaster, RetryExhaustionRetargetsAwayFromBadReplica) {
  // The block targets the fast node 0 first (8x bandwidth), where every
  // read fails. After the local retry budget is exhausted the master must
  // requeue it with node 0 on the avoid list and Algorithm 1 re-targets
  // the surviving replica.
  RtMaster::Options options =
      master_opts({slave_opts(0, mib_per_sec(400)), slave_opts(1, mib_per_sec(50))});
  options.retry = {.max_attempts = 3, .backoff = milliseconds(1), .backoff_cap = milliseconds(4)};
  RtMaster master(std::move(options));
  // FaultSurface-style read-fault hook: the first 3 reads of block 7 fail.
  master.slave(NodeId(0)).set_read_fault_hook(
      [count = std::make_shared<std::atomic<int>>(3)](BlockId b) {
        return b == BlockId(7) && count->fetch_sub(1) > 0;
      });
  master.migrate({{BlockId(7), mib(1), {NodeId(0), NodeId(1)}, JobId(1)}});
  ASSERT_TRUE(master.wait_idle(10s));
  EXPECT_EQ(master.completed(), 1);
  EXPECT_EQ(master.completed_per_node()[NodeId(1)], 1);
  EXPECT_EQ(master.requeued(), 1);
  EXPECT_EQ(master.slave(NodeId(0)).retries(), 2);  // attempts 1 and 2 retried locally
  EXPECT_EQ(master.slave(NodeId(0)).permanent_failures(), 1);
  EXPECT_EQ(master.slave(NodeId(1)).completed(), 1);
}

// The master's retry policy is every slave's: with a budget of one attempt,
// each slave reports its first faulted read as a permanent failure.
TEST(RtMaster, MasterRetryPolicyGovernsEverySlave) {
  RtMaster::Options options = master_opts({slave_opts(0, mib_per_sec(400)),
                                           slave_opts(1, mib_per_sec(400)),
                                           slave_opts(2, mib_per_sec(400))});
  options.retry.max_attempts = 1;
  RtMaster master(std::move(options));
  for (NodeId node : master.nodes()) {
    // Each slave's first read fails.
    master.slave(node).set_read_fault_hook([count = std::make_shared<std::atomic<int>>(1)](
                                               BlockId) { return count->fetch_sub(1) > 0; });
  }
  // Two single-replica blocks per node: the faulted one has no other
  // replica and is dropped, the other completes.
  std::vector<RtBlock> blocks;
  for (int n = 0; n < 3; ++n) {
    for (int i = 0; i < 2; ++i) {
      blocks.push_back({BlockId(10 * n + i), mib(1), {NodeId(n)}, JobId(1)});
    }
  }
  master.migrate(blocks);
  ASSERT_TRUE(master.wait_idle(10s));
  EXPECT_EQ(master.completed(), 3);
  for (NodeId node : master.nodes()) {
    EXPECT_EQ(master.slave(node).permanent_failures(), 1) << "node " << node;
    EXPECT_EQ(master.slave(node).retries(), 0) << "node " << node;
  }
}

// Slaves pull, so the rt master binds late to Algorithm 1 targets only. It
// rejects any other binding before the first slave (and so the first
// thread) starts: no slave registered its pull histogram.
TEST(RtMaster, RejectsBindingsItCannotHonour) {
  for (core::Binding binding : {core::Binding::LateAnyReplica, core::Binding::EagerRandom}) {
    obs::MetricsRegistry registry;
    RtMaster::Options options =
        master_opts({slave_opts(0, mib_per_sec(100)), slave_opts(1, mib_per_sec(100))});
    options.binding = binding;
    options.obs = obs::ObsContext(&registry, nullptr);
    EXPECT_THROW(RtMaster master(std::move(options)), CheckError) << core::to_string(binding);
    EXPECT_EQ(registry.find_histogram("node0.rt.pull_us"), nullptr);
  }
}

TEST(RtMaster, UntargetableMigrationIsDroppedNotHung) {
  // Every replica holder failed permanently: nothing can ever bind the
  // block, so the master must settle it (abort) instead of leaving
  // wait_idle() to hang on an unbindable entry.
  RtMaster::Options options = master_opts({slave_opts(0, mib_per_sec(400))});
  options.retry = {.max_attempts = 2, .backoff = milliseconds(1), .backoff_cap = milliseconds(2)};
  RtMaster master(std::move(options));
  // FaultSurface-style read-fault hook: the first 2 reads of block 3 fail.
  master.slave(NodeId(0)).set_read_fault_hook(
      [count = std::make_shared<std::atomic<int>>(2)](BlockId b) {
        return b == BlockId(3) && count->fetch_sub(1) > 0;
      });
  master.migrate({{BlockId(3), mib(1), {NodeId(0)}, JobId(1)}});
  ASSERT_TRUE(master.wait_idle(10s));
  EXPECT_EQ(master.completed(), 0);
  EXPECT_EQ(master.requeued(), 1);
  EXPECT_EQ(master.pending(), 0u);
  EXPECT_EQ(master.slave(NodeId(0)).permanent_failures(), 1);
}

TEST(RtMaster, MergesDuplicateBlockAndTracksPerJobCompletions) {
  // Block 4 is requested by both jobs in the same batch: one lifecycle,
  // one transfer, but both jobs' accounting and buffer references.
  RtMaster master(master_opts({slave_opts(0, mib_per_sec(400))}));
  std::vector<RtBlock> blocks = {{BlockId(0), mib(1), {NodeId(0)}, JobId(1)},
                                 {BlockId(1), mib(1), {NodeId(0)}, JobId(1)},
                                 {BlockId(2), mib(1), {NodeId(0)}, JobId(2)},
                                 {BlockId(3), mib(1), {NodeId(0)}, JobId(2)},
                                 {BlockId(4), mib(1), {NodeId(0)}, JobId(1)},
                                 {BlockId(4), mib(1), {NodeId(0)}, JobId(2)}};
  master.migrate(blocks);
  ASSERT_TRUE(master.wait_idle(10s));
  EXPECT_EQ(master.completed(), 5);  // block 4 migrated once
  EXPECT_EQ(master.completed_per_job()[JobId(1)], 3);
  EXPECT_EQ(master.completed_per_job()[JobId(2)], 3);
  EXPECT_EQ(master.slave(NodeId(0)).buffered_count(), 5u);

  // Evicting job 1 releases only the buffers no other job references;
  // the shared block 4 survives until job 2 goes too.
  master.evict_job(JobId(1));
  EXPECT_EQ(master.slave(NodeId(0)).buffered_count(), 3u);
  master.evict_job(JobId(2));
  EXPECT_EQ(master.slave(NodeId(0)).buffered_count(), 0u);
}

/// Master with one 1 MiB/s slave, tracing into `log`.
RtMaster::Options slow_traced(EventLog& log, obs::Tracer& tracer) {
  tracer.set_sink(&log);
  RtMaster::Options options;
  options.slaves = {slave_opts(0, mib_per_sec(1))};
  options.retarget_interval = 2ms;
  options.obs = obs::ObsContext(nullptr, &tracer);
  return options;
}

// Evicting a job while its only block reads: the read still settles, but
// unreferenced, so nothing stays buffered for the dead job.
TEST(RtMaster, EvictMidReadLeavesNothingBuffered) {
  obs::Tracer tracer;
  EventLog log;
  RtMaster master(slow_traced(log, tracer));
  master.migrate({{BlockId(0), 512 * kKiB, {NodeId(0)}, JobId(1)}});  // a 0.5 s read
  ASSERT_TRUE(eventually([&] { return log.contains("mig_transfer_start#0"); }));
  master.evict_job(JobId(1));
  ASSERT_TRUE(master.wait_idle(10s));
  EXPECT_EQ(master.completed(), 1);
  EXPECT_EQ(master.slave(NodeId(0)).buffered_bytes(), 0u);
}

// ... while a block two jobs reference stays buffered for the survivor.
TEST(RtMaster, EvictMidReadKeepsBlockForOtherJob) {
  obs::Tracer tracer;
  EventLog log;
  RtMaster master(slow_traced(log, tracer));
  master.migrate({{BlockId(0), 512 * kKiB, {NodeId(0)}, JobId(1)},
                  {BlockId(0), 512 * kKiB, {NodeId(0)}, JobId(2)}});
  ASSERT_TRUE(eventually([&] { return log.contains("mig_transfer_start#0"); }));
  master.evict_job(JobId(1));
  ASSERT_TRUE(master.wait_idle(10s));
  EXPECT_EQ(master.slave(NodeId(0)).buffered_bytes(), 512 * kKiB);
  master.evict_job(JobId(2));
  EXPECT_EQ(master.slave(NodeId(0)).buffered_bytes(), 0u);
}

/// Per-block `type@node` signature, the run-stable projection of a merged
/// rt trace.
std::map<std::int64_t, std::string> block_signatures(const std::vector<obs::TraceEvent>& events) {
  std::map<std::int64_t, std::string> per_block;
  for (const obs::TraceEvent& e : events) {
    if (e.type.rfind("mig_", 0) != 0) continue;
    const std::int64_t block = e.i64("block");
    if (block < 0) continue;
    std::string& line = per_block[block];
    if (!line.empty()) line += ' ';
    line += e.type;
    const std::int64_t node = e.i64("node");
    if (node >= 0) {
      line += '@';
      line += std::to_string(node);
    }
  }
  return per_block;
}

/// Mini soak with tracing: 12 fast single-replica blocks on nodes 0/1, 4
/// slow blocks pinned to a crippled node 2, one deterministic pending
/// cancel. Single-replica blocks make the schedule timing-independent.
std::vector<obs::TraceEvent> traced_run() {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::ThreadLocalBufferSink sink;
  tracer.set_sink(&sink);
  RtMaster::Options options;
  options.slaves = {slave_opts(0, mib_per_sec(256)), slave_opts(1, mib_per_sec(256)),
                    slave_opts(2, mib_per_sec(4))};
  options.retarget_interval = 2ms;
  options.obs = obs::ObsContext(&registry, &tracer);
  RtMaster master(std::move(options));
  std::vector<RtBlock> blocks;
  for (int i = 0; i < 12; ++i) {
    blocks.push_back({BlockId(i), 256 * kKiB, {NodeId(i % 2)}});
  }
  for (int i = 0; i < 4; ++i) {
    blocks.push_back({BlockId(100 + i), 256 * kKiB, {NodeId(2)}});
  }
  master.migrate(blocks);
  // Node 2 holds at most 2 blocks this early (its queue capacity; it pulls
  // again only once it holds nothing), each taking 62.5ms, so block 103 is
  // still pending: a node-less abort.
  EXPECT_TRUE(master.cancel(BlockId(103)));
  EXPECT_TRUE(master.wait_idle(30s));
  master.shutdown();  // quiesce emitters before reading buffers
  return sink.merge_thread_buffers();
}

TEST(RtTrace, DeterministicPerBlockOrder) {
  const auto run1 = block_signatures(traced_run());
  const auto run2 = block_signatures(traced_run());
  EXPECT_EQ(run1, run2);
  ASSERT_EQ(run1.size(), 16u);
  EXPECT_EQ(run1.at(103), "mig_enqueue mig_abort");
  EXPECT_EQ(run1.at(0),
            "mig_enqueue mig_target@0 mig_bind@0 mig_transfer_start@0 mig_complete@0");
}

TEST(RtMaster, AccessorPollingDoesNotStallOnMasterLock) {
  // Regression: completed()/completed_per_node()/completed_per_job() used
  // to copy whole maps under the master mutex. With 20k pending entries
  // and a 1ms retarget interval, the reference Algorithm 1 sweep holds mu_
  // almost continuously — accessor polls that contended on it would take
  // milliseconds each. The accessors snapshot lock-free counters and
  // per-shard accounting, so 2000 polls stay well under the bound even
  // while the sweep thread saturates the lock.
  RtMaster::Options options;
  options.slaves = {slave_opts(0, mib_per_sec(4)), slave_opts(1, mib_per_sec(4))};
  for (RtSlave::Options& slave : options.slaves) slave.queue_capacity = 8;
  options.retarget_interval = 1ms;
  RtMaster master(std::move(options));
  master.migrate(blocks_on_all(20000, 2));

  // Under TSan every access is instrumented; only time the polls in
  // uninstrumented builds where the timing claim is meaningful.
#if defined(__SANITIZE_THREAD__)
#define DYRS_RT_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DYRS_RT_TEST_TSAN 1
#endif
#endif
#ifndef DYRS_RT_TEST_TSAN
  const auto start = std::chrono::steady_clock::now();
#endif
  long sink = 0;
  for (int i = 0; i < 2000; ++i) {
    sink += master.completed();
    for (const auto& [node, n] : master.completed_per_node()) sink += n;
    for (const auto& [job, n] : master.completed_per_job()) sink += n;
  }
  EXPECT_GE(sink, 0);
#ifndef DYRS_RT_TEST_TSAN
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(s, 2.0) << "accessor polls stalled on the master lock";
#endif
  master.shutdown();  // tear down without draining the backlog
}

TEST(RtTrace, SatisfiesRtInvariants) {
  obs::TraceReader reader(traced_run());
  obs::TraceInvariants oracle;
  oracle.profile = obs::TraceInvariants::Profile::Rt;
  oracle.flag_open_lifecycles = true;  // every lifecycle must have settled
  const obs::InvariantReport report = oracle.check(reader);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.lifecycles_closed, 16u);
  EXPECT_EQ(report.open_at_end, 0u);
}

}  // namespace
}  // namespace dyrs::rt
