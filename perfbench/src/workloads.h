// The four benchmark workloads and the control-plane replay.
//
// Every workload fills `e2e` with the end-to-end metrics (from untraced
// repetitions) and, when `args.trace` is set, `layers` with the per-layer
// metrics (from one extra traced repetition, plus the benchmark's own call
// timings).
#pragma once

#include <vector>

#include "core/types.h"
#include "report.h"
#include "rt/master.h"

namespace perfbench {

/// sim_swim_scale and sim_paper_pressure.
Outcome run_sim(const Args& args, Report& e2e, Report& layers, SpanLog& spans);
/// One untraced sim_swim_scale repetition at scale factor `args.scale_k`:
/// events, ns per event and peak RSS (the scale diagnostic).
Outcome run_scale_point(const Args& args, Report& out);

/// rt_backlog and rt_jobs.
Outcome run_rt(const Args& args, Report& e2e, Report& layers, SpanLog& spans);

/// One operation of an rt workload, replayed against a standalone
/// core::ControlPlane.
struct ReplayJob {
  dyrs::JobId job;
  std::vector<dyrs::rt::RtBlock> blocks;
  /// Open loop only: evicted right after submission; otherwise the job's
  /// blocks are cancelled and the job evicted at its read deadline.
  bool abandoned = false;
};

struct ReplayInput {
  std::vector<ReplayJob> jobs;      // in submission order
  std::vector<double> due_s;        // open loop: submission times; empty = closed loop
  double lead_s = 0;                // open loop: read deadline after submission
  double abandon_s = 0;             // open loop: eviction delay of abandoned jobs
  std::vector<double> sec_per_byte;  // per node, nominal
  std::vector<int> slots;           // per node, slave queue capacity
  double pulls_per_job = 0;         // open loop: measured pulls per submitted job
  double passes_per_pull = 0;       // measured retarget passes per pull
};

/// Replays `input` single-threaded and reports core.* call timings.
void replay_control_plane(const ReplayInput& input, Report& layers, SpanLog& spans);

}  // namespace perfbench
