// HDFS-Inputs-in-RAM — the paper's upper-bound configuration (§V-A).
//
// Models vmtouch locking every replica of the input files in the buffer
// cache of its holder before the workload starts: migration is free and
// instantaneous, every read is a memory read. Memory accounting is real
// (pages are pinned on each replica holder). Data stays locked until
// explicitly released (evict_job), exactly like vmtouch with a held lock:
// a finished job releases nothing.
#pragma once

#include <set>
#include <utility>

#include "cluster/cluster.h"
#include "dfs/namenode.h"
#include "dyrs/service.h"

namespace dyrs::core {

class OracleInRam final : public MigrationService {
 public:
  OracleInRam(cluster::Cluster& cluster, dfs::NameNode& namenode)
      : cluster_(cluster), namenode_(namenode) {}

  void migrate_blocks(JobId job, const std::vector<BlockId>& blocks,
                      EvictionMode /*mode*/) override;

  void evict_job(JobId job) override;

  void on_blocks_deleted(const std::vector<BlockId>& blocks) override;

  void on_job_finished(JobId /*job*/) override {}

  std::string name() const override { return "HDFS-Inputs-in-RAM"; }

  std::size_t pinned_replica_count() const { return pinned_.size(); }

 private:
  void pin_replica(JobId job, BlockId block, NodeId node, Bytes size);

  cluster::Cluster& cluster_;
  dfs::NameNode& namenode_;
  // (block, node) -> set of jobs holding it; pinned once, refcounted.
  std::map<std::pair<BlockId, NodeId>, std::set<JobId>> pinned_;
};

}  // namespace dyrs::core
