// Structural well-formedness oracle for migration-lifecycle traces.
//
// Replays a trace through a per-block state machine and reports every
// violation of the lifecycle contract:
//
//  * terminal    — every `mig_enqueue` reaches exactly one terminal event
//                  (`mig_complete` or `mig_abort`, the latter covering the
//                  exhausted-retry path via its io-error abort); no terminal
//                  without a live lifecycle; no lifecycle left open at
//                  end-of-trace.
//  * queue-wait  — queue waits are non-negative and `mig_bind.wait_us`
//                  equals bind time minus enqueue time.
//  * order       — event times are globally non-decreasing and each block's
//                  lifecycle phases advance in order (enqueue -> target ->
//                  bind -> transfer -> terminal).
//  * live-bind   — `mig_bind` never targets a node inside a down-fault
//                  window (`fault` events of kind process-crash,
//                  server-death, or partition).
//  * memory-read — a `read_done` served from memory on node N happens only
//                  after some `mig_complete` of that block on N. Skipped
//                  for traces with no `mig_enqueue` (schemes that stage
//                  memory replicas without the migration master).
//  * demote      — a `mig_demote` acts on settled data: the block must have
//                  a prior `mig_complete` on that node, and the move must
//                  be memory -> disk.
//  * demoted-read — a demoted block is read at disk speed: a `read_done`
//                  served from memory on node N must not start (`at` minus
//                  `latency_us`) strictly after a `mig_demote` of that
//                  block on N unless a fresh `mig_complete` there came in
//                  between. Active whenever memory-read is.
//
// Tolerated, never flagged:
//  * master failover wipes master soft state: open lifecycles at a
//    `master_failover` event are abandoned (counted, not violations) and
//    their bound nodes become "zombies" for that block.
//  * zombie nodes — a node whose binding was reclaimed (heartbeat-loss
//    abort) or orphaned by failover keeps transferring and may emit
//    transfer/complete events into a lifecycle bound elsewhere; those are
//    skipped until the node is re-legitimized by a fresh bind.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "obs/trace_reader.h"

namespace dyrs::obs {

struct InvariantViolation {
  std::string rule;  // terminal | queue-wait | order | live-bind | memory-read | demote |
                     // demoted-read | policy
  std::string detail;  // human-readable description
  std::size_t event_index = 0;  // offending event's position in the trace
  SimTime at = -1;
  BlockId block = BlockId::invalid();
  NodeId node = NodeId::invalid();
};

struct InvariantReport {
  std::vector<InvariantViolation> violations;
  std::size_t events = 0;
  std::size_t policy_checked = 0;        // mig_target events the policy rule scored
  std::size_t policy_skipped = 0;        // targets skipped (no estimator snapshot yet)
  std::size_t lifecycles_closed = 0;     // enqueues that reached a terminal
  std::size_t open_at_end = 0;           // lifecycles with no terminal by end-of-trace
  std::size_t abandoned_by_failover = 0; // open lifecycles wiped by failover
  std::size_t zombie_events = 0;         // tolerated events from zombie nodes
  std::size_t merged_enqueues = 0;       // multi-job demand joining open entries
  std::size_t demotions = 0;             // mig_demote events the demote rule saw
  bool memory_read_rule_active = false;  // trace had migrations to check against

  bool ok() const { return violations.empty(); }
  /// Violation counts per rule, formatted for one-line summaries.
  std::string summary() const;
};

class TraceInvariants {
 public:
  /// Which timestamp rules apply. Sim traces are single-threaded and in
  /// emission order, so event times are globally non-decreasing. Merged rt
  /// traces are in canonical merge-key order — grouped by block, not
  /// chronological — and stamped with wall-clock times, so the global
  /// time-monotonicity rule is skipped; every per-block rule (terminal,
  /// queue-wait, per-block phase order, live-bind, memory-read) still
  /// applies. RtFaults additionally skips the live-bind rule: blockless
  /// `fault` markers sort ahead of every lifecycle in the merged order, so
  /// down-window interval accounting is meaningless against per-block
  /// grouped events (a bind that wall-clock-preceded the crash would read
  /// as inside the window). Failover semantics themselves stay checked —
  /// heartbeat-loss aborts, zombie tolerance, requeue spans are all
  /// per-block rules.
  enum class Profile { Sim, Rt, RtFaults };
  Profile profile = Profile::Sim;

  /// Cap on recorded violations (a corrupt trace can trip thousands);
  /// checking continues but further violations only bump `events`/state.
  std::size_t max_violations = 100;

  /// Opt-in Algorithm 1 policy oracle (rule "policy"). For every
  /// `mig_target` it replays the earliest-finish choice from the latest
  /// sampled `nodeN.dyrs.est_s_per_block` probe values plus the load the
  /// trace itself implies (bytes bound per node, plus pending blocks'
  /// current targets), and flags a chosen target whose estimated finish
  /// exceeds the best eligible replica's by more than `policy_margin`
  /// (relative). The replay sees the estimator only at sampling cadence —
  /// between samples the live estimator drifts — so the margin absorbs
  /// staleness; targets evaluated before any snapshot exists are counted in
  /// `policy_skipped`, not flagged. Requires traces carrying the
  /// `mig_enqueue.replicas` field and sampler est probes.
  bool check_policy = false;
  double policy_margin = 0.5;
  /// Reference block size the est probe is normalized to (the estimator's
  /// seconds-per-reference-block over this many bytes gives sec/byte).
  Bytes policy_reference_block = mib(256);

  /// When set, lifecycles still open at end-of-trace are violations. Off by
  /// default: a run may legitimately stop (last job done) with migrations
  /// in flight. Drained-scenario tests turn this on so a dropped terminal
  /// event is caught.
  bool flag_open_lifecycles = false;

  InvariantReport check(const TraceReader& reader) const;
};

}  // namespace dyrs::obs
