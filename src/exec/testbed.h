// Testbed — the top-level public API of this library.
//
// One object wires the whole reproduction together: simulator, cluster,
// MiniDFS, a migration scheme, and the execution engine, configured to
// mirror the paper's hardware (7 datanodes, 1TB HDD @ ~160MiB/s, 128GB
// RAM, 10GbE). Typical use:
//
//   exec::Testbed tb({.scheme = exec::Scheme::Dyrs});
//   tb.load_file("/data/input", gib(10));
//   tb.add_persistent_interference(NodeId(0));     // a slow node
//   tb.submit({.name = "sort", .input_files = {"/data/input"}});
//   tb.run();
//   double s = tb.metrics().mean_job_duration_s();
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/interference.h"
#include "dfs/client.h"
#include "dfs/heartbeat.h"
#include "dfs/namenode.h"
#include "dyrs/strategies.h"
#include "exec/engine.h"
#include "faults/fault_injector.h"
#include "faults/invariant_checker.h"
#include "obs/observability.h"
#include "obs/sampler.h"

namespace dyrs::exec {

/// The four evaluated file-system configurations (§V-A) plus the naive
/// balancer used in the straggler study (Fig 10).
enum class Scheme { Hdfs, InputsInRam, Ignem, Dyrs, NaiveBalancer };

const char* to_string(Scheme scheme);

struct TestbedConfig {
  // Cluster (defaults mirror the paper's testbed).
  int num_nodes = 7;
  Rate disk_bandwidth = mib_per_sec(160);
  double seek_alpha = 0.15;
  Bytes node_memory = gib(128);
  Rate nic_bandwidth = gbit_per_sec(10);

  // MiniDFS.
  Bytes block_size = mib(256);
  int replication = 3;
  SimDuration dfs_heartbeat = seconds(3);
  std::uint64_t placement_seed = 1;

  // Engine.
  int map_slots_per_node = 8;
  int reduce_slots_per_node = 4;
  int output_replication = 1;  // HDFS uses 3; 1 isolates read effects

  // Migration scheme.
  Scheme scheme = Scheme::Dyrs;
  core::MasterConfig master;  // knobs for the master-based schemes

  // Fault injection.
  std::uint64_t fault_seed = 1;  // I/O-error rolls in the injector

  // Observability.
  SimDuration sample_interval = seconds(1);  // enable_sampling() cadence
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);
  Testbed() : Testbed(TestbedConfig{}) {}
  ~Testbed();
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // --- dataset ----------------------------------------------------------
  /// Creates a file of `size` bytes; data pre-exists on disk.
  const dfs::FileMeta& load_file(const std::string& name, Bytes size);

  /// Deletes a file: DFS metadata, replicas, and any migration state
  /// (pending/in-flight/buffered) for its blocks.
  void remove_file(const std::string& name);

  // --- heterogeneity ----------------------------------------------------
  /// Persistent dd-style interference on one node (§V-C).
  cluster::DiskInterference& add_persistent_interference(NodeId node, int width = 2);
  /// Alternating interference with period `period` (Fig 9b-9e).
  cluster::AlternatingInterference& add_alternating_interference(NodeId node, SimDuration period,
                                                                 bool initially_active,
                                                                 int width = 2);

  // --- jobs -------------------------------------------------------------
  JobId submit(const JobSpec& spec) { return engine_->submit(spec); }
  JobId submit_at(const JobSpec& spec, SimTime at) { return engine_->submit_at(spec, at); }

  // --- fault injection --------------------------------------------------
  /// Schedules `plan` against this testbed (call before run()). At most one
  /// plan per testbed; returns the injector for trace/stat access.
  faults::FaultInjector& install_fault_plan(const faults::FaultPlan& plan);
  /// Starts periodic cross-layer invariant checking; when a fault plan is
  /// (or later gets) installed, checks also run after every fault event.
  /// The grace windows are derived from the heartbeat configuration.
  faults::ClusterInvariantChecker& enable_invariant_checks();

  // --- observability ----------------------------------------------------
  /// Every layer is wired to this bundle at construction; tracing is off
  /// until a sink is attached (near-zero cost while disabled).
  obs::Observability& observability() { return obs_; }
  obs::MetricsRegistry& registry() { return obs_.registry(); }
  obs::MemorySink& trace_to_memory() { return obs_.trace_to_memory(); }
  void trace_to_jsonl(const std::string& path) { obs_.trace_to_jsonl(path); }
  void stop_tracing() { obs_.stop_tracing(); }
  /// Starts per-node telemetry sampling (disk/NIC utilization, pinned
  /// memory bytes, master queue depths) on config().sample_interval.
  obs::PeriodicSampler& enable_sampling();
  /// Null until enable_sampling() is called.
  obs::PeriodicSampler* sampler() { return sampler_.get(); }

  // --- run --------------------------------------------------------------
  /// Runs the simulation until every submitted job finished (or
  /// `max_time`, to bound broken experiments). Returns completion time.
  SimTime run(SimTime max_time = hours(24));

  // --- access -----------------------------------------------------------
  sim::Simulator& simulator() { return sim_; }
  cluster::Cluster& cluster() { return *cluster_; }
  dfs::NameNode& namenode() { return *namenode_; }
  dfs::DFSClient& client() { return *client_; }
  Engine& engine() { return *engine_; }
  Metrics& metrics() { return engine_->metrics(); }
  const TestbedConfig& config() const { return config_; }
  Scheme scheme() const { return config_.scheme; }

  /// The migration master, for DYRS/Ignem/NaiveBalancer schemes only.
  core::MigrationMaster* master() { return master_.get(); }
  /// The oracle, for the InputsInRam scheme only.
  core::OracleInRam* oracle() { return oracle_.get(); }
  core::MigrationService* service() { return service_; }
  /// Null until install_fault_plan / enable_invariant_checks are called.
  faults::FaultInjector* injector() { return injector_.get(); }
  faults::ClusterInvariantChecker* invariants() { return invariants_.get(); }

 private:
  /// Registers the per-node telemetry probes into the context's ProbeBook;
  /// they start ticking only if enable_sampling() adopts them.
  void register_probes(const obs::ObsContext& ctx);

  TestbedConfig config_;
  sim::Simulator sim_;
  obs::Observability obs_;  // outlives every instrumented component below
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<dfs::NameNode> namenode_;
  std::vector<std::unique_ptr<dfs::DataNode>> datanodes_;
  std::unique_ptr<dfs::HeartbeatDriver> heartbeats_;
  std::unique_ptr<dfs::DFSClient> client_;
  std::unique_ptr<core::MigrationMaster> master_;
  std::unique_ptr<core::OracleInRam> oracle_;
  std::unique_ptr<core::NoMigration> none_;
  core::MigrationService* service_ = nullptr;
  std::unique_ptr<Engine> engine_;
  std::vector<std::unique_ptr<cluster::DiskInterference>> persistent_;
  std::vector<std::unique_ptr<cluster::AlternatingInterference>> alternating_;
  std::unique_ptr<faults::FaultInjector> injector_;
  std::unique_ptr<faults::ClusterInvariantChecker> invariants_;
  std::unique_ptr<obs::PeriodicSampler> sampler_;
};

}  // namespace dyrs::exec
