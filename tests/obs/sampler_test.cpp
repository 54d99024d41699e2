#include "obs/sampler.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace dyrs::obs {
namespace {

TEST(PeriodicSampler, TicksOnCadenceAndRecordsSeries) {
  sim::Simulator sim;
  MetricsRegistry registry;
  PeriodicSampler sampler(sim, ObsContext(&registry, nullptr), seconds(1));

  int calls = 0;
  sampler.add_probe("p", [&calls]() { return static_cast<double>(++calls); });
  sampler.start();
  sim.run_until(milliseconds(3500));

  const TimeSeries& ts = sampler.series("p");
  ASSERT_EQ(ts.size(), 3u);  // first sample one cadence in, none at t=0
  EXPECT_EQ(ts.points()[0].time, seconds(1));
  EXPECT_EQ(ts.points()[2].time, seconds(3));
  EXPECT_DOUBLE_EQ(ts.points()[2].value, 3.0);

  // The registry gauge mirrors the latest value.
  const Gauge* g = registry.find_gauge("p");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->value(), 3.0);
}

TEST(PeriodicSampler, EmitsOneSampleEventPerProbePerTick) {
  sim::Simulator sim;
  Tracer tracer;
  MemorySink sink;
  tracer.set_sink(&sink);
  PeriodicSampler sampler(sim, ObsContext(nullptr, &tracer), seconds(2));
  sampler.add_probe("a", []() { return 1.5; });
  sampler.add_probe("b", []() { return 2.5; });
  sampler.start();
  sim.run_until(seconds(4));

  ASSERT_EQ(sink.events().size(), 4u);  // 2 ticks x 2 probes
  EXPECT_EQ(sink.events()[0].type, "sample");
  EXPECT_EQ(sink.events()[0].str("name"), "a");
  EXPECT_DOUBLE_EQ(sink.events()[0].f64("value"), 1.5);
  EXPECT_EQ(sink.events()[1].str("name"), "b");  // registration order within a tick
  EXPECT_EQ(sink.events()[2].at, seconds(4));
}

TEST(PeriodicSampler, RejectsBadProbesAndCadence) {
  sim::Simulator sim;
  EXPECT_THROW(PeriodicSampler(sim, ObsContext{}, 0), CheckError);

  PeriodicSampler sampler(sim, ObsContext{}, seconds(1));
  sampler.add_probe("p", []() { return 0.0; });
  EXPECT_THROW(sampler.add_probe("p", []() { return 1.0; }), CheckError);
  EXPECT_THROW(sampler.add_probe("q", nullptr), CheckError);
  EXPECT_THROW(sampler.series("missing"), CheckError);
}

}  // namespace
}  // namespace dyrs::obs
