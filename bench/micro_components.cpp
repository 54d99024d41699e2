// Microbenchmarks for the simulator and estimator primitives: event-queue
// throughput, fair-share resource churn, estimator updates, buffer-manager
// operations. These bound the cost of scaling experiments up (e.g. SWIM
// with thousands of jobs).
#include <benchmark/benchmark.h>

#include <vector>

#include "cluster/memory.h"
#include "dyrs/buffer_manager.h"
#include "dyrs/estimator.h"
#include "sim/fair_share.h"
#include "sim/simulator.h"

using namespace dyrs;

namespace {

void BM_EventQueue_ScheduleRun(benchmark::State& state) {
  const auto n = state.range(0);
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::int64_t i = 0; i < n; ++i) {
      sim.schedule_at(i % 1000, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueue_ScheduleRun)->Arg(1000)->Arg(100000);

// 64 recurrences at co-prime periods (the first 64 primes above 1 ms) for
// one simulated second: the timer-heavy shape of the sim workloads, whose
// master pulses, retarget passes, heartbeats and samplers are most events.
void BM_EventQueue_Every(benchmark::State& state) {
  std::vector<SimDuration> periods;
  for (SimDuration p = milliseconds(1); periods.size() < 64; ++p) {
    bool prime = true;
    for (SimDuration d = 2; prime && d * d <= p; ++d) prime = p % d != 0;
    if (prime) periods.push_back(p);
  }
  std::int64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    long ticks = 0;
    for (SimDuration p : periods) sim.every(p, [&ticks] { ++ticks; });
    sim.run_until(seconds(1));
    events += static_cast<std::int64_t>(sim.events_executed());
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_EventQueue_Every);

void BM_FairShare_FlowChurn(benchmark::State& state) {
  const auto n = state.range(0);
  for (auto _ : state) {
    sim::Simulator sim;
    sim::FairShareResource disk(sim, {.name = "d", .capacity = mib_per_sec(160),
                                      .seek_alpha = 0.15});
    long completed = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      disk.start_flow(mib(1) + i % mib(1), [&](SimTime) { ++completed; });
    }
    sim.run();
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FairShare_FlowChurn)->Arg(64)->Arg(512);

void BM_Estimator_Update(benchmark::State& state) {
  core::MigrationEstimator est({.ewma_alpha = 0.3,
                                .reference_block = mib(256),
                                .fallback_rate = mib_per_sec(160),
                                .overdue_correction = true});
  double d = 1.0;
  for (auto _ : state) {
    est.on_complete(mib(256), d);
    d = d < 10 ? d + 0.01 : 1.0;
    benchmark::DoNotOptimize(est.per_byte_estimate());
  }
}
BENCHMARK(BM_Estimator_Update);

void BM_BufferManager_AddRelease(benchmark::State& state) {
  sim::Simulator sim;
  cluster::Memory memory(sim, {.capacity = gib(1024)});
  core::BufferManager bm(&memory);
  std::int64_t next = 0;
  for (auto _ : state) {
    const BlockId block(next);
    const JobId job(next % 16);
    ++next;
    bm.try_add(block, mib(1), {{job, core::EvictionMode::Implicit}});
    if (next % 16 == 0) benchmark::DoNotOptimize(bm.release_job(job));
  }
}
BENCHMARK(BM_BufferManager_AddRelease);

}  // namespace

BENCHMARK_MAIN();
