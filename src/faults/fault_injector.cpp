#include "faults/fault_injector.h"

#include <algorithm>

#include "common/check.h"
#include "dfs/datanode.h"
#include "obs/trace.h"

namespace dyrs::faults {

FaultInjector::FaultInjector(sim::Simulator& sim, cluster::Cluster& cluster,
                             dfs::NameNode& namenode, std::uint64_t seed)
    : sim_(sim), cluster_(cluster), namenode_(namenode), rng_(seed) {}

FaultInjector::~FaultInjector() {
  for (auto& t : timers_) t.cancel();
}

void FaultInjector::install(const FaultPlan& plan) {
  // The hook is consulted by every migration read; rolls happen lazily so
  // nodes without error windows never touch the Rng.
  for (NodeId id : cluster_.node_ids()) {
    namenode_.datanode(id)->migration_read_fault = [this, id]() { return roll_io_error(id); };
  }
  FaultPlan sorted = plan;
  sorted.sort();
  for (const FaultEvent& e : sorted.events) {
    DYRS_CHECK_MSG(e.at >= sim_.now(), "fault scheduled in the past: " << e.describe());
    if (e.kind == FaultKind::IoErrors) {
      error_windows_[e.node].push_back({.from = e.at, .until = e.until, .rate = e.rate});
    }
    timers_.push_back(sim_.schedule_at(e.at, [this, e]() { apply_start(e); }));
    if (e.until > e.at) {
      timers_.push_back(sim_.schedule_at(e.until, [this, e]() { apply_end(e); }));
    }
  }
}

void FaultInjector::trace_transition(const FaultEvent& e, const char* phase) {
  ++events_applied_;
  if (!obs_.tracing()) return;
  obs::TraceEvent ev(sim_.now(), "fault");
  ev.with("kind", to_string(e.kind));
  ev.with("node", e.node.value());
  ev.with("phase", phase);
  if (e.kind == FaultKind::IoErrors) ev.with("rate", e.rate);
  if (e.kind == FaultKind::DiskDegradation) ev.with("factor", e.factor);
  obs_.emit(ev);
}

void FaultInjector::apply_start(const FaultEvent& e) {
  // Emitted before the fault lands, so consequences (crash-hook aborts,
  // requeues) appear after the marker in the trace.
  trace_transition(e, "start");
  dfs::DataNode* dn = namenode_.datanode(e.node);
  switch (e.kind) {
    case FaultKind::ProcessCrash:
      if (dn->process_alive()) dn->crash_process();
      break;
    case FaultKind::ServerDeath:
      dn->node().set_alive(false);
      if (dn->process_alive()) dn->crash_process();  // the daemon dies with the machine
      break;
    case FaultKind::Partition:
      ++partitions_[e.node];
      dn->set_partitioned(true);
      break;
    case FaultKind::IoErrors:
      // Window registered at install time; this timer only marks the trace.
      break;
    case FaultKind::DiskDegradation:
      degradations_[e.node].push_back(e.factor);
      refresh_degradation(e.node);
      break;
  }
  if (after_event) after_event();
}

void FaultInjector::apply_end(const FaultEvent& e) {
  trace_transition(e, "end");
  dfs::DataNode* dn = namenode_.datanode(e.node);
  switch (e.kind) {
    case FaultKind::ProcessCrash:
      if (dn->node().alive() && !dn->process_alive()) dn->restart_process();
      break;
    case FaultKind::ServerDeath:
      dn->node().set_alive(true);
      if (!dn->process_alive()) dn->restart_process();
      break;
    case FaultKind::Partition: {
      auto it = partitions_.find(e.node);
      DYRS_CHECK(it != partitions_.end() && it->second > 0);
      if (--it->second == 0) dn->set_partitioned(false);
      break;
    }
    case FaultKind::IoErrors:
      break;  // roll_io_error checks the window's bounds itself
    case FaultKind::DiskDegradation: {
      auto& active = degradations_[e.node];
      auto fit = std::find(active.begin(), active.end(), e.factor);
      DYRS_CHECK(fit != active.end());
      active.erase(fit);
      refresh_degradation(e.node);
      break;
    }
  }
  if (after_event) after_event();
}

void FaultInjector::refresh_degradation(NodeId node) {
  double factor = 1.0;
  for (double f : degradations_[node]) factor *= f;  // overlapping windows stack
  cluster_.node(node).disk().set_degradation(factor);
}

bool FaultInjector::roll_io_error(NodeId node) {
  auto it = error_windows_.find(node);
  if (it == error_windows_.end()) return false;
  const SimTime now = sim_.now();
  double rate = 0.0;
  for (const ErrorWindow& w : it->second) {
    if (now >= w.from && now < w.until) rate = std::max(rate, w.rate);
  }
  if (rate <= 0.0) return false;
  const bool fail = rng_.bernoulli(rate);
  if (fail) ++io_errors_injected_;
  return fail;
}

}  // namespace dyrs::faults
