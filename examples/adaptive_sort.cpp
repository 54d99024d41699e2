// Adaptivity demo: run Sort while interference alternates on one node and
// print DYRS's per-node migration-time estimate as an ASCII timeline — a
// terminal rendition of the paper's Fig 9b.
#include <iostream>

#include "common/table.h"
#include "exec/testbed.h"
#include "workloads/sort.h"

using namespace dyrs;

int main() {
  exec::TestbedConfig config;
  config.scheme = exec::Scheme::Dyrs;
  exec::Testbed testbed(config);
  // The node estimates are sampled right after each master heartbeat.
  const obs::PeriodicSampler& sampler = testbed.enable_sampling();

  // Interference on node 1 toggling every 10 seconds (Fig 9b's pattern).
  testbed.add_alternating_interference(NodeId(1), seconds(10), /*initially_active=*/true, 2);

  testbed.load_file("/sort/input", gib(10));
  wl::SortConfig sort;
  sort.input = gib(10);
  sort.platform_overhead = seconds(8);
  testbed.submit(wl::sort_job("/sort/input", sort));
  testbed.run();

  std::cout << "== adaptive sort: estimated migration time per 256MB block ==\n";
  std::cout << "(interference on node 1 alternates every 10s; node 2 is undisturbed)\n\n";
  const TimeSeries& slow = sampler.series("node1.dyrs.est_s_per_block");
  const TimeSeries& fast = sampler.series("node2.dyrs.est_s_per_block");

  TextTable table({"t (s)", "node1 est (s)", "", "node2 est (s)", "", "node1 dd"});
  const SimTime end = testbed.simulator().now();
  for (SimTime t = 0; t < std::min<SimTime>(end, seconds(60)); t += seconds(2)) {
    const double e1 = slow.step_value_at(t, 1.6);
    const double e2 = fast.step_value_at(t, 1.6);
    const bool dd_active = (t / seconds(10)) % 2 == 0;
    table.add_row({TextTable::num(to_seconds(t), 0), TextTable::num(e1, 2),
                   ascii_bar(e1, 8.0, 24), TextTable::num(e2, 2), ascii_bar(e2, 8.0, 24),
                   dd_active ? "ON" : "off"});
  }
  table.print(std::cout);

  std::cout << "\nsort finished in "
            << TextTable::num(testbed.metrics().jobs()[0].duration_s(), 1) << "s; "
            << testbed.master()->migrations_completed() << " blocks migrated\n";
  std::cout << "The node-1 estimate climbs while dd is ON (overdue correction reacts\n"
               "mid-migration) and decays when it turns off; node 2 stays flat.\n";
  return 0;
}
