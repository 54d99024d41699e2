// Control-plane replay: an rt workload's operation sequence against a
// standalone, single-threaded core::ControlPlane configured like the rt
// master's. Timing each public call gives the control plane's self time;
// comparing it with the rt master's pull latency separates that from time
// spent waiting for the master mutex.
//
// The sequence: the same enqueues per job (with a retarget pass after each
// job's batch, as RtMaster::migrate does); slave pulls that bind up to the
// slave's free queue slots, each pull retiring one block from a modelled
// local queue; retarget passes at the run's measured passes-per-pull ratio;
// and, on the open loop, cancels (queue erase) and job evictions at their
// scheduled points.
#include <algorithm>
#include <deque>

#include "core/control_plane.h"
#include "workloads.h"

namespace perfbench {

using namespace dyrs;

void replay_control_plane(const ReplayInput& in, Report& layers, SpanLog& spans) {
  const rt::RtMaster::Options defaults;
  core::ControlPlaneConfig config;
  config.binding = core::Binding::LateTargeted;
  config.ordering = defaults.ordering;
  config.target_trace = core::ControlPlaneConfig::TargetTrace::AtBind;
  config.retarget = defaults.retarget;
  config.queue_depth = defaults.queue_depth;
  core::ControlPlane plane(config);

  const int nodes = static_cast<int>(in.slots.size());
  std::vector<std::deque<Bytes>> local(static_cast<std::size_t>(nodes));
  SampleSet enqueue_us, retarget_ms, bind_us, erase_us, evict_us;
  SimTime now = 0;  // logical microseconds; one per operation
  double pass_credit = 0;
  int next_node = 0;

  const auto pass = [&] {
    std::vector<core::SlaveSnapshot> snapshots;
    for (int n = 0; n < nodes; ++n) {
      Bytes queued = 0;
      for (Bytes b : local[n]) queued += b;
      snapshots.push_back({NodeId(n), in.sec_per_byte[n], queued});
    }
    timed(spans, "core.retarget", retarget_ms, 1e3, [&] { plane.retarget(snapshots, ++now); });
  };
  // One slave worker iteration: refill free slots, then retire a block.
  const auto pull = [&](int n) {
    auto& q = local[n];
    const int space = in.slots[n] - static_cast<int>(q.size());
    std::size_t bound = 0;
    if (space > 0) {
      const auto got = timed(spans, "core.bind_for", bind_us, 1e6, [&] {
        return plane.bind_for(NodeId(n), space, in.sec_per_byte[n], ++now);
      });
      for (const core::BoundMigration& m : got) q.push_back(m.size);
      bound = got.size();
    }
    if (!q.empty()) q.pop_front();
    for (pass_credit += in.passes_per_pull; pass_credit >= 1; pass_credit -= 1) pass();
    return bound;
  };
  const auto submit = [&](const ReplayJob& job) {
    for (const rt::RtBlock& b : job.blocks) {
      timed(spans, "core.enqueue", enqueue_us, 1e6, [&] {
        plane.enqueue(job.job, core::EvictionMode::Explicit, b.block, b.size, b.replicas, {},
                      ++now);
      });
    }
    pass();
  };
  // RtMaster::evict_job's pending half: drop the job, erase orphaned entries.
  const auto evict = [&](JobId job) {
    timed(spans, "core.evict", evict_us, 1e6, [&] {
      core::PendingQueue& queue = plane.queue();
      for (auto it = queue.begin(); it != queue.end();) {
        it->jobs.erase(job);
        it = it->jobs.empty() ? queue.erase(it) : std::next(it);
      }
    });
  };

  if (in.due_s.empty()) {
    // Closed loop: every job queues up front, then the slaves drain it.
    for (const ReplayJob& job : in.jobs) submit(job);
    while (!plane.queue().empty()) {
      std::size_t bound = 0;
      for (int n = 0; n < nodes; ++n) bound += pull(n);
      if (bound > 0) continue;
      // A round that bound nothing waits for the next pass, as the slaves
      // would; stop if even a fresh pass leaves nothing bindable.
      pass();
      for (int n = 0; n < nodes; ++n) bound += pull(n);
      if (bound == 0) break;
    }
  } else {
    // Open loop: submissions, deadlines and abandonments in schedule order,
    // with the run's pulls per job spread after each submission.
    struct Action {
      double at;
      bool submit;
      std::size_t job;
    };
    std::vector<Action> actions;
    for (std::size_t j = 0; j < in.jobs.size(); ++j) {
      actions.push_back({in.due_s[j], true, j});
      actions.push_back(
          {in.due_s[j] + (in.jobs[j].abandoned ? in.abandon_s : in.lead_s), false, j});
    }
    std::stable_sort(actions.begin(), actions.end(),
                     [](const Action& a, const Action& b) { return a.at < b.at; });
    double pull_credit = 0;
    for (const Action& a : actions) {
      const ReplayJob& job = in.jobs[a.job];
      if (a.submit) {
        submit(job);
        for (pull_credit += in.pulls_per_job; pull_credit >= 1; pull_credit -= 1) {
          pull(next_node);
          next_node = (next_node + 1) % nodes;
        }
        continue;
      }
      if (!job.abandoned) {
        for (const rt::RtBlock& b : job.blocks) {
          timed(spans, "core.erase", erase_us, 1e6, [&] { return plane.queue().erase(b.block); });
        }
      }
      evict(job.job);
    }
  }

  layers.add_percentiles("core.enqueue_us", enqueue_us, 1.0, "us", /*p99=*/false);
  layers.add_percentiles("core.retarget_ms", retarget_ms, 1.0, "ms");
  layers.add_percentiles("core.bind_us", bind_us, 1.0, "us");
  layers.add_percentiles("core.erase_us", erase_us, 1.0, "us", /*p99=*/false);
}

}  // namespace perfbench
