#include "obs/sampler.h"

#include "common/check.h"

namespace dyrs::obs {

PeriodicSampler::PeriodicSampler(sim::Simulator& sim, const ObsContext& obs, SimDuration cadence)
    : sim_(sim), obs_(obs), cadence_(cadence) {
  DYRS_CHECK(cadence > 0);
}

PeriodicSampler::~PeriodicSampler() { timer_.cancel(); }

void PeriodicSampler::add_probe(const std::string& name, Probe probe) {
  DYRS_CHECK_MSG(probe != nullptr, "null probe " << name);
  for (const auto& e : entries_) {
    DYRS_CHECK_MSG(e.name != name, "duplicate probe " << name);
  }
  Entry entry;
  entry.name = name;
  entry.probe = std::move(probe);
  entry.series = TimeSeries(name);
  entry.gauge = obs_.gauge(name);
  entries_.push_back(std::move(entry));
}

void PeriodicSampler::start() {
  timer_ = sim_.every(cadence_, [this]() { tick(); });
}

void PeriodicSampler::tick() {
  const SimTime now = sim_.now();
  for (auto& e : entries_) {
    const double v = e.probe();
    e.series.record(now, v);
    if (e.gauge != nullptr) e.gauge->set(v);
    if (obs_.tracing()) {
      obs_.emit(TraceEvent(now, "sample").with("name", e.name).with("value", v));
    }
  }
}

const TimeSeries& PeriodicSampler::series(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return e.series;
  }
  DYRS_CHECK_MSG(false, "no probe named " << name);
  throw CheckError("unreachable");  // silences -Wreturn-type; check throws
}

}  // namespace dyrs::obs
