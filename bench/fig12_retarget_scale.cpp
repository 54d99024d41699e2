// fig12_retarget_scale — Algorithm 1 retargeting pass latency vs cluster
// size (the ROADMAP "10k-node" scale item, motivated by the 12k-server
// Google trace in the paper's introduction).
//
// Fills a ControlPlane's pending queue with a fixed multi-million-entry
// backlog and times ControlPlane::retarget, the pass both masters run, as
// the node count sweeps 8 -> 10k. Each row reports the fastest and slowest
// of a few passes over the same queue and snapshots.
//
// The claim: a pass scores every pending entry against its replicas, so
// its cost follows pending x replicas, not the node count. The shape check
// holds the largest cluster's pass within 2x of the 8-node pass. Results go
// to stdout and BENCH_retarget.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "bench/common/bench_util.h"
#include "common/table.h"
#include "core/control_plane.h"

using namespace dyrs;

namespace {

using clock_type = std::chrono::steady_clock;

constexpr int kPasses = 5;

double ms_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
}

std::vector<core::SlaveSnapshot> make_snapshots(int nodes, std::mt19937_64& rng) {
  std::vector<core::SlaveSnapshot> snaps;
  snaps.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    core::SlaveSnapshot s;
    s.node = NodeId(n);
    s.sec_per_byte = (1 + static_cast<double>(rng() % 8)) * 1e-8;
    s.queued_bytes = static_cast<Bytes>(rng() % 4) * mib(64);
    snaps.push_back(s);
  }
  return snaps;
}

void push_block(core::PendingQueue& queue, int block, int nodes, std::mt19937_64& rng) {
  core::PendingMigration pm;
  pm.block = BlockId(block);
  pm.size = mib(64 + 64 * static_cast<Bytes>(rng() % 4));
  pm.jobs[JobId(1 + static_cast<std::int64_t>(rng() % 8))] = core::EvictionMode::Explicit;
  const int first = static_cast<int>(rng() % static_cast<std::uint64_t>(nodes));
  pm.replicas.emplace_back(first);
  if (nodes > 1) {
    pm.replicas.emplace_back((first + 1 + static_cast<int>(rng() % static_cast<std::uint64_t>(nodes - 1))) % nodes);
  }
  queue.push(std::move(pm));
}

struct Row {
  int nodes = 0;
  double pass_min_ms = 0;
  double pass_max_ms = 0;
  std::size_t assigned = 0;  // entries the last pass targeted
};

Row run_scale(int nodes, int pending) {
  std::mt19937_64 rng(0x5ca1eull + static_cast<std::uint64_t>(nodes));
  core::ControlPlane plane;
  for (int i = 0; i < pending; ++i) push_block(plane.queue(), i, nodes, rng);
  const std::vector<core::SlaveSnapshot> snaps = make_snapshots(nodes, rng);

  Row row;
  row.nodes = nodes;
  for (int pass = 0; pass < kPasses; ++pass) {
    const auto t0 = clock_type::now();
    row.assigned = plane.retarget(snaps, pass + 1).assigned;
    const double ms = ms_since(t0);
    row.pass_min_ms = pass == 0 ? ms : std::min(row.pass_min_ms, ms);
    row.pass_max_ms = std::max(row.pass_max_ms, ms);
  }
  return row;
}

}  // namespace

int main() {
  bench::print_header(
      "fig12: retargeting pass latency, 8 -> 10k nodes",
      "the pass costs pending x replicas, so its latency stays flat as the "
      "cluster grows");

  const int pending = bench::smoke_scaled(2'000'000, 20'000);
  const std::vector<int> sweep = bench::smoke_mode()
                                     ? std::vector<int>{8, 32, 128}
                                     : std::vector<int>{8, 64, 512, 2048, 10'000};

  std::vector<Row> rows;
  for (int nodes : sweep) {
    rows.push_back(run_scale(nodes, pending));
    std::cout << "  measured " << nodes << " nodes\n";
  }

  TextTable table({"nodes", "pass min (ms)", "pass max (ms)", "targeted"});
  for (const Row& r : rows) {
    table.add_row({std::to_string(r.nodes), TextTable::num(r.pass_min_ms, 2),
                   TextTable::num(r.pass_max_ms, 2), std::to_string(r.assigned)});
  }
  table.print(std::cout);
  std::cout << "\n(" << pending << " pending blocks, 2 replicas each; " << kPasses
            << " passes per row)\n\n";

  std::ofstream json("BENCH_retarget.json");
  json << "{\"bench\":\"retarget_scale\",\"pending\":" << pending << ",\"passes\":" << kPasses
       << ",\"sweep\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << (i ? "," : "") << "{\"nodes\":" << r.nodes << ",\"pass_min_ms\":" << r.pass_min_ms
         << ",\"pass_max_ms\":" << r.pass_max_ms << ",\"assigned\":" << r.assigned << "}";
  }
  json << "]}\n";
  std::cout << "wrote BENCH_retarget.json\n\n";

  const Row& smallest = rows.front();
  const Row& largest = rows.back();
  const double growth = largest.pass_min_ms / std::max(smallest.pass_min_ms, 1e-3);
  bench::print_shape_check(
      growth <= 2.0, "the " + std::to_string(largest.nodes) + "-node pass is within 2x of the " +
                         std::to_string(smallest.nodes) + "-node pass (x" +
                         TextTable::num(growth, 2) + ")");
  return 0;
}
