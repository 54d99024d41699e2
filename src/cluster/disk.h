// Rotational-disk model.
//
// A Disk is a fair-share resource with a seek penalty, plus per-class
// accounting that the figures need: the paper distinguishes migration reads
// (DYRS slave traffic), task reads (map inputs read straight from disk) and
// writes (reduce output). Interference — the paper's `dd iflag=direct`
// readers — occupies fair shares like any other flow.
#pragma once

#include <functional>
#include <string>

#include "common/units.h"
#include "sim/fair_share.h"

namespace dyrs::cluster {

enum class IoClass { MigrationRead, TaskRead, Write, Interference };

class Disk {
 public:
  struct Options {
    std::string name = "disk";
    Rate bandwidth = mib_per_sec(160);  // commodity 1TB HDD sequential rate
    double seek_alpha = 0.15;           // concurrency penalty (seeks)
  };

  Disk(sim::Simulator& sim, Options opts)
      : opts_(opts),
        nominal_(opts.bandwidth),
        resource_(sim, {.name = opts.name, .capacity = opts.bandwidth,
                        .seek_alpha = opts.seek_alpha}) {}

  using FlowId = sim::FairShareResource::FlowId;
  using CompletionFn = sim::FairShareResource::CompletionFn;

  /// Starts an IO of `bytes`; `on_complete` fires at completion.
  FlowId start_io(IoClass io_class, Bytes bytes, CompletionFn on_complete);

  /// Starts an endless interference reader (one dd process).
  FlowId start_interference();

  /// Cancels an in-flight IO; its callback never fires.
  void cancel(FlowId id) { resource_.cancel_flow(id); }

  bool in_flight(FlowId id) const { return resource_.has_flow(id); }
  int active_flows() const { return resource_.active_flows(); }
  int active_interference() const { return resource_.active_interference_flows(); }

  Rate bandwidth() const { return resource_.capacity(); }
  /// Reconfigures the device's nominal rate; any active degradation factor
  /// keeps applying multiplicatively, so a fault-injection episode can
  /// never clobber a reconfigured nominal rate (or vice versa).
  void set_nominal_bandwidth(Rate bw) {
    nominal_ = bw;
    resource_.set_capacity(bw * degradation_);
  }

  /// Multiplicative bandwidth degradation episode (fault injection): the
  /// effective capacity becomes nominal * factor until restored with
  /// factor 1.0. Kept separate from set_nominal_bandwidth so the nominal
  /// rate survives the episode.
  void set_degradation(double factor) {
    degradation_ = factor;
    resource_.set_capacity(nominal_ * factor);
  }
  double degradation() const { return degradation_; }
  Rate nominal_bandwidth() const { return nominal_; }

  /// Unloaded sequential read time for `bytes` — sizing input for slave
  /// migration queues (paper §III-B).
  SimDuration unloaded_read_time(Bytes bytes) const { return resource_.unloaded_duration(bytes); }

  double busy_seconds() const { return resource_.busy_seconds(); }
  double bytes_by_class(IoClass c) const { return bytes_by_class_[static_cast<int>(c)]; }
  long ios_by_class(IoClass c) const { return ios_by_class_[static_cast<int>(c)]; }

  sim::FairShareResource& resource() { return resource_; }

 private:
  Options opts_;
  Rate nominal_;
  double degradation_ = 1.0;
  sim::FairShareResource resource_;
  double bytes_by_class_[4] = {0, 0, 0, 0};
  long ios_by_class_[4] = {0, 0, 0, 0};
};

}  // namespace dyrs::cluster
