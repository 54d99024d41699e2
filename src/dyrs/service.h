// MigrationService — the interface every migration scheme implements.
//
// DYRS, the Ignem baseline, the naive late-binder and the
// HDFS-Inputs-in-RAM oracle all run behind this interface, so the execution
// engine and every bench are scheme-agnostic: experiments differ only in
// which service they construct. Plain HDFS is the absence of a service.
#pragma once

#include <vector>

#include "dfs/read_hooks.h"
#include "core/types.h"

namespace dyrs::core {

class MigrationService : public dfs::ReadHooks {
 public:
  ~MigrationService() override = default;

  /// Client entry point (the job submitter calls this at submission, with
  /// the input files it resolved to blocks): migrate `blocks` for `job`.
  virtual void migrate_blocks(JobId job, const std::vector<BlockId>& blocks,
                              EvictionMode mode) = 0;

  /// The explicit evict command: clears `job`'s references everywhere.
  virtual void evict_job(JobId job) = 0;

  /// Scheduler notification that a job completed (or failed). Default:
  /// evict its references — DYRS "pro-actively evicts data as jobs finish".
  virtual void on_job_finished(JobId job) { evict_job(job); }

  /// Files were deleted from the DFS: drop any migration state (pending,
  /// in-flight, buffered) for their blocks. Default: nothing to drop.
  virtual void on_blocks_deleted(const std::vector<BlockId>& blocks) { (void)blocks; }

  // ReadHooks: schemes that don't react to reads inherit these no-ops.
  void on_read_started(BlockId, JobId) override {}
  void on_read_completed(BlockId, JobId, const dfs::ReadInfo&) override {}
};

}  // namespace dyrs::core
