// DFSClient: the read path tasks use to fetch their input blocks.
//
// Replica choice, in order (matching the paper's modified HDFS):
//   1. in-memory replica on the reader's node      -> buffer-cache read
//   2. in-memory replica on a remote node          -> read over the NIC
//   3. on-disk replica on the reader's node        -> local disk read
//   4. on-disk replica on a remote node            -> remote disk read
//      (the source disk is the bottleneck at 10GbE, so it is modeled as a
//       flow on the remote disk)
// Unavailable nodes are filtered out at selection time, which is exactly
// HDFS's failover behaviour the paper leans on in §III-C2.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"
#include "dfs/namenode.h"
#include "dfs/read_hooks.h"
#include "obs/metrics_registry.h"
#include "obs/obs_context.h"
#include "obs/trace.h"

namespace dyrs::dfs {

class DFSClient {
 public:
  using ReadDoneFn = std::function<void(const ReadInfo&)>;

  DFSClient(cluster::Cluster& cluster, NameNode& namenode, std::uint64_t seed = 7)
      : cluster_(cluster), namenode_(namenode), rng_(seed) {}

  /// Installs migration hooks (at most one framework at a time).
  void set_read_hooks(ReadHooks* hooks) { hooks_ = hooks; }

  /// Reads `block` on behalf of `job` from a task running on `reader`.
  /// `done` receives where/when the read was served. Throws CheckError if
  /// no replica is available anywhere (data loss), which experiments treat
  /// as fatal.
  void read_block(BlockId block, NodeId reader, JobId job, ReadDoneFn done);

  /// Count of reads served per (node, medium) — Fig 8's per-datanode read
  /// distribution comes from these counters.
  long reads_served(NodeId node) const;
  long reads_served(NodeId node, ReadMedium medium) const;
  long total_reads() const { return total_reads_; }

  /// Wires per-medium read counters and `read_done` trace events. A
  /// default-constructed context is a no-op; disabled paths cost one null
  /// check per read.
  void set_observability(const obs::ObsContext& obs);

 private:
  void finish(const ReadInfo& info, JobId job, const ReadDoneFn& done);

  cluster::Cluster& cluster_;
  NameNode& namenode_;
  Rng rng_;
  ReadHooks* hooks_ = nullptr;

  obs::ObsContext obs_;
  std::array<obs::Counter*, 4> medium_counters_{};  // indexed by ReadMedium

  std::vector<std::array<long, 4>> served_;  // indexed by NodeId
  long total_reads_ = 0;
};

}  // namespace dyrs::dfs
