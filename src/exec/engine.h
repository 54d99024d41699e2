// Slot-based MapReduce execution engine (the YARN/Tez stand-in).
//
// FIFO job queue, per-node map/reduce slots, data-local map scheduling
// with fallback to any free slot — enough of a scheduler that the paper's
// dynamics emerge: queueing creates lead-time, slow nodes hold tasks
// longer and thus receive fewer (the implicit feedback HDFS shows in
// Fig 8), and migrated blocks accelerate exactly the read portion of maps.
//
// Integration points with the migration framework:
//  * job submission resolves the input files to blocks once and hands them
//    to MigrationService::migrate_blocks (the paper's job-submitter hook,
//    §IV-B);
//  * job completion triggers on_job_finished (pro-active eviction);
//  * the DFSClient's read hooks deliver missed-read cancellation and
//    implicit eviction signals.
#pragma once

#include <functional>
#include <map>
#include <unordered_map>

#include "cluster/cluster.h"
#include "common/random.h"
#include "dfs/client.h"
#include "dfs/namenode.h"
#include "dyrs/service.h"
#include "exec/job.h"
#include "exec/metrics.h"
#include "obs/metrics_registry.h"
#include "obs/obs_context.h"
#include "obs/trace.h"

namespace dyrs::exec {

class Engine {
 public:
  struct Options {
    int map_slots_per_node = 8;
    int reduce_slots_per_node = 4;
    /// Copies written for job output. HDFS defaults to 3; 1 keeps reduce
    /// write load minimal (useful when the experiment only studies reads).
    int output_replication = 1;
    std::uint64_t seed = 21;
  };

  Engine(cluster::Cluster& cluster, dfs::NameNode& namenode, dfs::DFSClient& client,
         Options options);

  /// Wires a migration service into submission/eviction and the client's
  /// read hooks. Pass nullptr for plain HDFS.
  void set_migration_service(core::MigrationService* service);

  /// Wires job/task lifecycle trace events and registry counters. Either
  /// pointer may be null; disabled paths cost one null check per site.
  void set_observability(const obs::ObsContext& obs);

  /// Submits a job now; returns its id.
  JobId submit(const JobSpec& spec);
  /// Schedules a submission at absolute simulated time `at` (trace replay).
  JobId submit_at(const JobSpec& spec, SimTime at);

  bool job_active(JobId id) const { return active_.count(id) > 0; }
  std::size_t active_jobs() const { return active_.size(); }
  bool all_done() const { return active_.empty() && pending_submissions_ == 0; }

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

  /// Fired when a job finishes (after its record is final).
  std::function<void(const JobRecord&)> on_job_done;

 private:
  struct MapTask {
    TaskId id;
    BlockId block;
    Bytes size = 0;
    /// Index of the job's next unscheduled map while this one is unscheduled
    /// (maps.size() ends the list).
    std::size_t next_unscheduled = 0;
  };
  struct Job {
    JobId id;
    JobSpec spec;
    JobRecord record;
    std::vector<MapTask> maps;
    std::vector<TaskId> reduces;
    /// Dispatch cursors: head of the unscheduled-map list, next reduce.
    std::size_t next_map = 0;
    std::size_t next_reduce = 0;
    std::int64_t eligible_seq = 0;  // eligibility order; keys the queues
    bool map_placed = false;  // record.first_task_start is set with it, once
    int maps_remaining = 0;
    int reduces_remaining = 0;
    /// Shuffle-phase span accounting: NIC fetches still in flight and when
    /// the phase opened (maps done), for `shuffle_start`/`shuffle_done`.
    int shuffle_fetches_remaining = 0;
    SimTime shuffle_started_at = 0;
  };
  struct Slots {
    int map_free = 0;
    int reduce_free = 0;
  };

  void begin_submission(JobId id, JobSpec spec);
  void make_eligible(JobId id);
  void try_schedule();
  bool schedule_map_on(NodeId node);
  bool schedule_reduce_on(NodeId node);
  void run_map(Job& job, const MapTask& task, NodeId node);
  void run_reduce(Job& job, TaskId task, NodeId node);
  void on_maps_complete(Job& job);
  void on_shuffle_fetch_done(JobId id);
  /// Total bytes the job's reducers fetch over the network.
  Bytes shuffle_total(const Job& job) const;
  void finish_job(Job& job);
  Job& job_state(JobId id);
  bool tracing() const { return obs_.tracing(); }
  Slots& slots(NodeId node) { return slots_[static_cast<std::size_t>(node.value())]; }

  cluster::Cluster& cluster_;
  dfs::NameNode& namenode_;
  dfs::DFSClient& client_;
  Options options_;
  core::MigrationService* service_ = nullptr;

  std::unordered_map<JobId, Job> active_;
  // Dispatch queues in eligibility order: eligible jobs with a map left to
  // place, and jobs whose maps are done with a reduce left to place. A job
  // leaves each queue once that phase is fully placed, so before it
  // finishes and its active_ entry (which never moves) is erased.
  std::map<std::int64_t, Job*> map_queue_;
  std::map<std::int64_t, Job*> reduce_queue_;
  std::int64_t next_eligible_seq_ = 0;
  std::vector<Slots> slots_;  // indexed by NodeId
  Metrics metrics_;
  Rng rng_{21};
  std::int64_t next_job_ = 0;
  std::int64_t next_task_ = 0;
  int pending_submissions_ = 0;

  obs::ObsContext obs_;
  obs::Counter* ctr_jobs_submitted_ = nullptr;
  obs::Counter* ctr_jobs_done_ = nullptr;
  obs::Counter* ctr_maps_done_ = nullptr;
  obs::Counter* ctr_tasks_scanned_ = nullptr;
  obs::Counter* ctr_reduces_done_ = nullptr;
  obs::Histogram* hist_job_duration_s_ = nullptr;
};

}  // namespace dyrs::exec
