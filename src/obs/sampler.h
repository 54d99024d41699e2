// Periodic per-node telemetry sampling.
//
// Probes are plain callables registered under a name; every tick the
// sampler evaluates them in registration order, records each value in a
// TimeSeries, mirrors it into a registry gauge, and (when tracing) emits
// one `sample` event per probe. Probes keep the obs layer free of
// dependencies on cluster/dfs/dyrs: the owner (Testbed) wires lambdas that
// close over whatever resource they observe — disk/NIC utilization, memory
// buffer occupancy, pending-queue depth (Figs 1, 7, 9 telemetry).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/timeseries.h"
#include "obs/metrics_registry.h"
#include "obs/obs_context.h"
#include "sim/simulator.h"

namespace dyrs::obs {

class PeriodicSampler {
 public:
  using Probe = std::function<double()>;

  /// The context's registry/tracer may be absent; sampling then only fills
  /// the per-probe TimeSeries.
  PeriodicSampler(sim::Simulator& sim, const ObsContext& obs, SimDuration cadence);
  ~PeriodicSampler();
  PeriodicSampler(const PeriodicSampler&) = delete;
  PeriodicSampler& operator=(const PeriodicSampler&) = delete;

  /// Registers a probe; names must be unique. Every probe is sampled on
  /// the one cadence, in registration order within a tick.
  void add_probe(const std::string& name, Probe probe);

  /// Starts the periodic tick; the first sample lands one cadence after
  /// start.
  void start();

  const TimeSeries& series(const std::string& name) const;

 private:
  struct Entry {
    std::string name;
    Probe probe;
    TimeSeries series;
    Gauge* gauge = nullptr;  // mirror in the registry, if one is attached
  };

  void tick();

  sim::Simulator& sim_;
  ObsContext obs_;
  SimDuration cadence_;
  std::vector<Entry> entries_;
  sim::EventHandle timer_;
};

}  // namespace dyrs::obs
