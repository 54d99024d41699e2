#include "exec/engine.h"

#include <algorithm>

#include "common/check.h"
#include "common/log.h"
#include "dyrs/master.h"

namespace dyrs::exec {

Engine::Engine(cluster::Cluster& cluster, dfs::NameNode& namenode, dfs::DFSClient& client,
               Options options)
    : cluster_(cluster),
      namenode_(namenode),
      client_(client),
      options_(options),
      rng_(options.seed) {
  DYRS_CHECK(options_.map_slots_per_node > 0);
  DYRS_CHECK(options_.reduce_slots_per_node >= 0);
  DYRS_CHECK(options_.output_replication >= 1);
  slots_.assign(static_cast<std::size_t>(cluster_.size()),
                {options_.map_slots_per_node, options_.reduce_slots_per_node});
}

void Engine::set_migration_service(core::MigrationService* service) {
  service_ = service;
  client_.set_read_hooks(service);
  // The scavenger asks the cluster scheduler which jobs are alive
  // (§III-C3); wire that query into DYRS-style masters.
  if (auto* master = dynamic_cast<core::MigrationMaster*>(service)) {
    master->set_job_active_query([this](JobId id) { return job_active(id); });
  }
}

void Engine::set_observability(const obs::ObsContext& obs) {
  obs_ = obs;
  ctr_jobs_submitted_ = obs.counter("exec.jobs.submitted");
  ctr_jobs_done_ = obs.counter("exec.jobs.completed");
  ctr_maps_done_ = obs.counter("exec.maps.completed");
  ctr_tasks_scanned_ = obs.counter("exec.sched.tasks_scanned");
  ctr_reduces_done_ = obs.counter("exec.reduces.completed");
  hist_job_duration_s_ = obs.histogram("exec.job.duration_s");
}

JobId Engine::submit(const JobSpec& spec) {
  const JobId id(next_job_++);
  begin_submission(id, spec);
  return id;
}

JobId Engine::submit_at(JobSpec spec, SimTime at) {
  const JobId id(next_job_++);
  ++pending_submissions_;
  // A one-shot runs once, so its spec moves on instead of being copied.
  cluster_.simulator().schedule_at(at, [this, id, spec = std::move(spec)]() mutable {
    --pending_submissions_;
    begin_submission(id, std::move(spec));
  });
  return id;
}

void Engine::begin_submission(JobId id, JobSpec spec) {
  DYRS_CHECK_MSG(!spec.input_files.empty(), "job needs at least one input file");
  Job job;
  job.id = id;
  job.record.id = id;
  job.record.name = spec.name;
  job.record.submitted = cluster_.simulator().now();

  // The job submitter issues the migration call first thing (§IV-B), so
  // the whole lead-time is available for migration.
  const std::vector<BlockId> blocks = namenode_.ns().blocks_of(spec.input_files);
  if (spec.request_migration && service_) {
    service_->migrate_blocks(id, blocks, spec.eviction);
  }

  for (BlockId block : blocks) {
    MapTask task;
    task.id = TaskId(next_task_++);
    task.block = block;
    task.size = namenode_.ns().block(block).size;
    task.next_unscheduled = job.maps.size() + 1;
    job.record.input_size += task.size;
    job.maps.push_back(task);
  }
  job.maps_remaining = static_cast<int>(job.maps.size());
  job.record.num_maps = job.maps_remaining;
  for (int i = 0; i < spec.num_reducers; ++i) {
    job.reduces.push_back(TaskId(next_task_++));
  }
  job.reduces_remaining = spec.num_reducers;
  job.record.num_reduces = spec.num_reducers;

  if (ctr_jobs_submitted_ != nullptr) ctr_jobs_submitted_->inc();
  if (tracing()) {
    obs_.emit(obs::TraceEvent(job.record.submitted, "job_submit")
                      .with("job", id.value())
                      .with("name", job.record.name)
                      .with("maps", job.record.num_maps)
                      .with("reduces", job.record.num_reduces)
                      .with("input", static_cast<std::int64_t>(job.record.input_size)));
  }

  const SimDuration wait = spec.platform_overhead + spec.extra_lead_time;
  job.spec = std::move(spec);
  active_.emplace(id, std::move(job));
  cluster_.simulator().schedule_after(wait, [this, id]() { make_eligible(id); });
}

Engine::Job& Engine::job_state(JobId id) {
  auto it = active_.find(id);
  DYRS_CHECK_MSG(it != active_.end(), "job " << id << " not active");
  return it->second;
}

void Engine::make_eligible(JobId id) {
  Job& job = job_state(id);
  job.record.eligible = cluster_.simulator().now();
  if (tracing()) {
    obs_.emit(obs::TraceEvent(job.record.eligible, "job_eligible").with("job", id.value()));
  }
  job.eligible_seq = next_eligible_seq_++;
  if (!job.maps.empty()) map_queue_.emplace(job.eligible_seq, &job);
  try_schedule();
}

void Engine::try_schedule() {
  // Keep assigning until no node can take another task this round.
  bool progress = true;
  while (progress && !(map_queue_.empty() && reduce_queue_.empty())) {
    progress = false;
    for (int i = 0; i < cluster_.size(); ++i) {
      // Every later node would find both queues empty.
      if (map_queue_.empty() && reduce_queue_.empty()) break;
      const NodeId node(i);
      if (!cluster_.node(node).alive()) continue;
      if (slots(node).map_free > 0 && schedule_map_on(node)) progress = true;
      if (slots(node).reduce_free > 0 && schedule_reduce_on(node)) progress = true;
    }
  }
}

bool Engine::schedule_map_on(NodeId node) {
  if (map_queue_.empty()) return false;
  // Pass 1: the first unscheduled map, FIFO across jobs, with a disk or
  // memory replica on this node; a node whose datanode is not serving holds
  // no readable replica. Pass 2: the oldest job's first unscheduled map.
  // `link` is the list slot that points at the chosen map.
  auto pick = map_queue_.begin();
  std::size_t* link = &pick->second->next_map;
  if (namenode_.serving(node)) {
    std::int64_t scanned = 0;
    for (auto it = map_queue_.begin(); it != map_queue_.end(); ++it) {
      Job& job = *it->second;
      std::size_t* l = &job.next_map;
      for (; *l < job.maps.size(); l = &job.maps[*l].next_unscheduled) {
        ++scanned;
        if (namenode_.has_replica_on(job.maps[*l].block, node)) break;
      }
      if (*l < job.maps.size()) {
        pick = it;
        link = l;
        break;
      }
    }
    if (ctr_tasks_scanned_ != nullptr) ctr_tasks_scanned_->add(scanned);
  }
  Job& job = *pick->second;
  MapTask& task = job.maps[*link];
  *link = task.next_unscheduled;
  if (job.next_map == job.maps.size()) map_queue_.erase(pick);
  --slots(node).map_free;
  run_map(job, task, node);
  return true;
}

bool Engine::schedule_reduce_on(NodeId node) {
  if (reduce_queue_.empty()) return false;
  auto front = reduce_queue_.begin();
  Job& job = *front->second;
  const TaskId task = job.reduces[job.next_reduce++];
  if (job.next_reduce == job.reduces.size()) reduce_queue_.erase(front);
  --slots(node).reduce_free;
  run_reduce(job, task, node);
  return true;
}

void Engine::run_map(Job& job, const MapTask& task, NodeId node) {
  auto& sim = cluster_.simulator();
  auto record = std::make_shared<TaskRecord>();
  record->id = task.id;
  record->job = job.id;
  record->phase = TaskPhase::Map;
  record->node = node;
  record->block = task.block;
  record->input = task.size;
  record->started = sim.now();
  if (!job.map_placed) {
    job.map_placed = true;
    job.record.first_task_start = sim.now();
  }

  const JobId jid = job.id;
  const BlockId block = task.block;
  const Bytes size = task.size;
  const Rate compute_rate = job.spec.map_compute_rate;
  const SimDuration overhead = job.spec.task_overhead;

  // Container launch, then input read, then compute.
  sim.schedule_after(overhead, [this, jid, block, node, size, compute_rate, record]() {
    record->read_started = cluster_.simulator().now();
    client_.read_block(block, node, jid, [this, jid, node, size, compute_rate,
                                          record](const dfs::ReadInfo& info) {
      record->read_done = info.end;
      record->medium = info.medium;
      record->read_source = info.source;
      const auto compute = static_cast<SimDuration>(
          static_cast<double>(size) / compute_rate * 1e6);
      cluster_.simulator().schedule_after(
          compute, [this, jid, node, record]() {
            ++slots(node).map_free;
            record->finished = cluster_.simulator().now();
            metrics_.add_task(*record);
            if (ctr_maps_done_ != nullptr) ctr_maps_done_->inc();
            if (tracing()) {
              obs_.emit(obs::TraceEvent(record->finished, "task_done")
                                .with("task", record->id.value())
                                .with("job", jid.value())
                                .with("node", node.value())
                                .with("phase", "map")
                                .with("medium", dfs::to_string(record->medium)));
            }
            auto it = active_.find(jid);
            if (it != active_.end() && --it->second.maps_remaining == 0) {
              on_maps_complete(it->second);
            }
            try_schedule();
          });
    });
  });
}

Bytes Engine::shuffle_total(const Job& job) const {
  return job.spec.shuffle_bytes >= 0
             ? job.spec.shuffle_bytes
             : static_cast<Bytes>(static_cast<double>(job.record.input_size) *
                                  job.spec.selectivity);
}

void Engine::on_maps_complete(Job& job) {
  job.record.maps_done = cluster_.simulator().now();
  if (job.reduces.empty()) {
    finish_job(job);
    return;
  }
  // The shuffle phase opens when the last map finishes: reducers fetch
  // their shares over the NIC from here on. The span closes when the last
  // fetch lands (on_shuffle_fetch_done).
  const Bytes total = shuffle_total(job);
  const Bytes share = total / static_cast<Bytes>(job.reduces.size());
  if (share > 0) {
    job.shuffle_fetches_remaining = static_cast<int>(job.reduces.size());
    job.shuffle_started_at = job.record.maps_done;
    if (tracing()) {
      obs_.emit(obs::TraceEvent(job.shuffle_started_at, "shuffle_start")
                    .with("job", job.id.value())
                    .with("bytes", static_cast<std::int64_t>(total))
                    .with("reducers", static_cast<int>(job.reduces.size())));
    }
  }
  reduce_queue_.emplace(job.eligible_seq, &job);
  try_schedule();
}

void Engine::on_shuffle_fetch_done(JobId id) {
  auto it = active_.find(id);
  if (it == active_.end()) return;
  Job& job = it->second;
  if (job.shuffle_fetches_remaining <= 0 || --job.shuffle_fetches_remaining > 0) return;
  if (tracing()) {
    const SimTime now = cluster_.simulator().now();
    obs_.emit(obs::TraceEvent(now, "shuffle_done")
                  .with("job", id.value())
                  .with("duration_s", to_seconds(now - job.shuffle_started_at)));
  }
}

void Engine::run_reduce(Job& job, TaskId task, NodeId node) {
  auto& sim = cluster_.simulator();
  auto record = std::make_shared<TaskRecord>();
  record->id = task;
  record->job = job.id;
  record->phase = TaskPhase::Reduce;
  record->node = node;
  record->started = sim.now();

  const JobId jid = job.id;
  const Bytes shuffle = shuffle_total(job);
  const Bytes output_total = job.spec.output_bytes >= 0 ? job.spec.output_bytes : shuffle;
  const auto reducers = static_cast<Bytes>(job.reduces.size());
  const Bytes shuffle_share = shuffle / reducers;
  const Bytes output_share = output_total / reducers;
  const Rate compute_rate = job.spec.reduce_compute_rate;
  const SimDuration overhead = job.spec.task_overhead;
  record->input = shuffle_share;

  auto do_write = [this, jid, node, output_share, record]() {
    auto finish = [this, jid, node, record]() {
      record->finished = cluster_.simulator().now();
      metrics_.add_task(*record);
      if (ctr_reduces_done_ != nullptr) ctr_reduces_done_->inc();
      if (tracing()) {
        obs_.emit(obs::TraceEvent(record->finished, "task_done")
                          .with("task", record->id.value())
                          .with("job", jid.value())
                          .with("node", node.value())
                          .with("phase", "reduce"));
      }
      ++slots(node).reduce_free;
      auto it = active_.find(jid);
      if (it != active_.end()) {
        Job& j = it->second;
        if (--j.reduces_remaining == 0) finish_job(j);
      }
      try_schedule();
    };
    if (output_share > 0) {
      // HDFS write pipeline: one copy on the local disk plus
      // output_replication-1 copies on distinct random remote disks. The
      // reducer completes when the slowest pipeline member finishes.
      std::vector<NodeId> writers{node};
      if (options_.output_replication > 1) {
        std::vector<NodeId> others;
        for (NodeId n : cluster_.node_ids()) {
          if (n != node && cluster_.node(n).alive()) others.push_back(n);
        }
        std::shuffle(others.begin(), others.end(), rng_.engine());
        for (int r = 1; r < options_.output_replication &&
                        static_cast<std::size_t>(r - 1) < others.size();
             ++r) {
          writers.push_back(others[static_cast<std::size_t>(r - 1)]);
        }
      }
      auto remaining = std::make_shared<int>(static_cast<int>(writers.size()));
      for (NodeId w : writers) {
        cluster_.node(w).disk().start_io(cluster::IoClass::Write, output_share,
                                         [finish, remaining](SimTime) {
                                           if (--*remaining == 0) finish();
                                         });
      }
    } else {
      finish();
    }
  };

  auto do_compute = [this, shuffle_share, compute_rate, record, do_write]() {
    record->read_done = cluster_.simulator().now();
    const auto compute = static_cast<SimDuration>(
        static_cast<double>(shuffle_share) / compute_rate * 1e6);
    cluster_.simulator().schedule_after(compute, do_write);
  };

  sim.schedule_after(overhead, [this, jid, node, shuffle_share, record, do_compute]() {
    record->read_started = cluster_.simulator().now();
    if (shuffle_share > 0) {
      // Shuffle fetch, modeled as a fair-share flow on this node's NIC.
      cluster_.node(node).nic().start_flow(shuffle_share, [this, jid, do_compute](SimTime) {
        on_shuffle_fetch_done(jid);
        do_compute();
      });
    } else {
      do_compute();
    }
  });
}

void Engine::finish_job(Job& job) {
  job.record.finished = cluster_.simulator().now();
  const JobRecord record = job.record;
  const JobId id = job.id;
  const double duration_s = to_seconds(record.finished - record.submitted);
  if (ctr_jobs_done_ != nullptr) {
    ctr_jobs_done_->inc();
    hist_job_duration_s_->add(duration_s);
  }
  if (tracing()) {
    obs_.emit(obs::TraceEvent(record.finished, "job_done")
                      .with("job", id.value())
                      .with("duration_s", duration_s));
  }
  metrics_.add_job(record);
  active_.erase(id);
  if (service_) service_->on_job_finished(id);
  // Copy before invoking: handlers (e.g. the Hive query runner) may
  // reassign on_job_done from inside the callback; the copy keeps the
  // executing closure alive through that reassignment.
  if (auto callback = on_job_done) callback(record);
}

}  // namespace dyrs::exec
