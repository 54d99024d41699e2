// ObsContext — the single observability handle every layer takes.
//
// Before this existed each layer's Options / set_observability surface
// carried its own nullable `MetricsRegistry*` + `Tracer*` pair, so every
// new signal meant touching every constructor in the stack. An ObsContext
// bundles both behind one cheap-to-copy value:
//
//   - registry: counters / gauges / histograms (null-safe accessors),
//   - tracer:   structured lifecycle events (no-op when no sink is set).
//
// Periodic probes do not ride on it: whoever owns the sampler (the Testbed)
// registers them on the PeriodicSampler directly.
//
// A default-constructed ObsContext is a full no-op: counter() returns
// nullptr and emit() drops the event. Layers therefore keep the existing
// cost contract — the disabled path is a pointer check, no event is ever
// constructed when `tracing()` is false.
#pragma once

#include <string>

#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace dyrs::obs {

/// Non-owning view over a registry and a tracer, either of which may be
/// absent. Copy it freely — it is two pointers.
class ObsContext {
 public:
  ObsContext() = default;
  ObsContext(MetricsRegistry* registry, Tracer* tracer) : registry_(registry), tracer_(tracer) {}

  MetricsRegistry* registry() const { return registry_; }
  Tracer* tracer() const { return tracer_; }

  /// True only when events will actually reach a sink — call sites guard
  /// event construction with this.
  bool tracing() const { return tracer_ != nullptr && tracer_->enabled(); }

  void emit(const TraceEvent& e) const {
    if (tracer_ != nullptr) tracer_->emit(e);
  }

  /// Instrument lookups; nullptr without a registry so layers can cache the
  /// result and guard increments with a pointer check.
  Counter* counter(const std::string& name) const {
    return registry_ != nullptr ? &registry_->counter(name) : nullptr;
  }
  Gauge* gauge(const std::string& name) const {
    return registry_ != nullptr ? &registry_->gauge(name) : nullptr;
  }
  Histogram* histogram(const std::string& name) const {
    return registry_ != nullptr ? &registry_->histogram(name) : nullptr;
  }

 private:
  MetricsRegistry* registry_ = nullptr;
  Tracer* tracer_ = nullptr;
};

}  // namespace dyrs::obs
