// Processor-sharing resource with a seek/concurrency penalty.
//
// Models a disk (or NIC) whose capacity is shared equally among active
// flows. With n concurrent flows the aggregate effective bandwidth is
//
//     effective(n) = capacity * 1 / (1 + seek_alpha * (n - 1))
//
// so for a rotational disk (seek_alpha > 0) concurrency costs aggregate
// throughput — the phenomenon that motivates DYRS serializing migrations at
// each slave (paper §III-B). Interference (the paper's dd readers) is
// modeled as infinite flows that take a fair share forever.
//
// Completion times are exact under piecewise-constant rates: on every
// mutation (flow added/removed/capacity change) all flows are advanced by
// the elapsed time, rates are recomputed, and the next completion event is
// rescheduled.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/simulator.h"

namespace dyrs::sim {

class FairShareResource {
 public:
  using FlowId = std::int64_t;
  /// Called when a finite flow completes; receives the completion time.
  using CompletionFn = std::function<void(SimTime)>;

  struct Options {
    std::string name = "resource";
    Rate capacity = 0.0;       // bytes/sec when exactly one flow is active
    double seek_alpha = 0.0;   // concurrency penalty coefficient
  };

  FairShareResource(Simulator& sim, Options opts);
  FairShareResource(const FairShareResource&) = delete;
  FairShareResource& operator=(const FairShareResource&) = delete;
  ~FairShareResource();

  /// Starts a finite flow of `bytes`; `on_complete` fires when it drains.
  FlowId start_flow(Bytes bytes, CompletionFn on_complete);

  /// Starts an interference flow that consumes a fair share forever.
  FlowId start_interference();

  /// Cancels a flow (finite or interference); its callback never fires.
  /// Safe to call with an id that already completed.
  void cancel_flow(FlowId id);

  bool has_flow(FlowId id) const { return find(id) != flows_.end(); }
  int active_flows() const { return static_cast<int>(flows_.size()); }
  int active_interference_flows() const { return interference_count_; }

  Rate capacity() const { return capacity_; }
  /// Changes nominal capacity (e.g. a degraded disk). Takes effect now.
  void set_capacity(Rate capacity);

  /// Current per-flow rate (0 when idle).
  Rate per_flow_rate() const { return per_flow_rate_; }

  /// Bytes still to transfer for a finite flow, as of now. A pure query:
  /// it computes the residual without advancing or rescheduling anything.
  Bytes remaining_bytes(FlowId id) const;

  /// Time to drain `bytes` if it were the only flow — the "unloaded" read
  /// time used to size slave queues.
  SimDuration unloaded_duration(Bytes bytes) const;

  // --- accounting ------------------------------------------------------
  /// Total payload bytes moved by finite flows.
  double total_bytes_transferred() const { return total_bytes_; }
  /// Simulated seconds during which at least one flow was active.
  double busy_seconds() const { return static_cast<double>(busy_us_) / 1e6; }
  const std::string& name() const { return opts_name_; }

 private:
  struct Flow {
    FlowId id = 0;
    double remaining = 0.0;  // +inf for interference flows
    CompletionFn on_complete;
    bool infinite = false;
  };
  using Flows = std::vector<Flow>;

  /// Binary search of the id-ordered flows; end() when absent.
  Flows::const_iterator find(FlowId id) const;

  void advance();
  void recompute_rates();
  void reschedule();
  void on_tick();

  Simulator& sim_;
  std::string opts_name_;
  Rate capacity_;
  double seek_alpha_;

  Flows flows_;  // ascending id: ids only grow, so start_* appends
  std::vector<CompletionFn> done_;  // on_tick's reused completion list
  FlowId next_id_ = 1;
  int interference_count_ = 0;

  Rate per_flow_rate_ = 0.0;
  SimTime last_update_ = 0;
  EventHandle pending_tick_;

  double total_bytes_ = 0.0;
  SimDuration busy_us_ = 0;
};

}  // namespace dyrs::sim
