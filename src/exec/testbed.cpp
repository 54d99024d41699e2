#include "exec/testbed.h"

#include "common/check.h"

namespace dyrs::exec {

const char* to_string(Scheme scheme) {
  switch (scheme) {
    case Scheme::Hdfs: return "HDFS";
    case Scheme::InputsInRam: return "HDFS-Inputs-in-RAM";
    case Scheme::Ignem: return "Ignem";
    case Scheme::Dyrs: return "DYRS";
    case Scheme::NaiveBalancer: return "NaiveBalancer";
  }
  return "?";
}

Testbed::Testbed(TestbedConfig config) : config_(config) {
  cluster_ = std::make_unique<cluster::Cluster>(
      sim_, cluster::Cluster::Options{
                .num_nodes = config_.num_nodes,
                .node = {.disk = {.name = "disk",
                                  .bandwidth = config_.disk_bandwidth,
                                  .seek_alpha = config_.seek_alpha},
                         .memory = {.capacity = config_.node_memory},
                         .nic_bandwidth = config_.nic_bandwidth}});

  namenode_ = std::make_unique<dfs::NameNode>(
      sim_, dfs::NameNode::Options{.block_size = config_.block_size,
                                   .replication = config_.replication,
                                   .placement_seed = config_.placement_seed});
  for (NodeId id : cluster_->node_ids()) {
    datanodes_.push_back(std::make_unique<dfs::DataNode>(cluster_->node(id)));
    namenode_->register_datanode(datanodes_.back().get());
  }
  std::vector<dfs::DataNode*> dns;
  for (auto& dn : datanodes_) dns.push_back(dn.get());
  heartbeats_ = std::make_unique<dfs::HeartbeatDriver>(sim_, *namenode_, dns);
  client_ = std::make_unique<dfs::DFSClient>(*cluster_, *namenode_);

  switch (config_.scheme) {
    case Scheme::Hdfs:
      break;  // plain HDFS: no migration service at all
    case Scheme::InputsInRam:
      oracle_ = core::make_inputs_in_ram(*cluster_, *namenode_);
      service_ = oracle_.get();
      break;
    case Scheme::Ignem:
      master_ = core::make_ignem(*cluster_, *namenode_, config_.master);
      service_ = master_.get();
      break;
    case Scheme::Dyrs:
      master_ = core::make_dyrs(*cluster_, *namenode_, config_.master);
      service_ = master_.get();
      break;
    case Scheme::NaiveBalancer:
      master_ = core::make_naive_balancer(*cluster_, *namenode_, config_.master);
      service_ = master_.get();
      break;
  }

  Engine::Options engine_opts;
  engine_opts.map_slots_per_node = config_.map_slots_per_node;
  engine_opts.reduce_slots_per_node = config_.reduce_slots_per_node;
  engine_opts.output_replication = config_.output_replication;
  engine_opts.seed = config_.placement_seed + 31;
  engine_ = std::make_unique<Engine>(*cluster_, *namenode_, *client_, engine_opts);
  engine_->set_migration_service(service_);

  // Every layer shares one ObsContext view of the testbed's registry and
  // tracer; tracing stays off (and near-free) until a sink is attached.
  const obs::ObsContext ctx = obs_context();
  client_->set_observability(ctx);
  engine_->set_observability(ctx);
  if (master_ != nullptr) master_->set_observability(ctx);
}

Testbed::~Testbed() = default;

const dfs::FileMeta& Testbed::load_file(const std::string& name, Bytes size) {
  return namenode_->create_file(name, size);
}

void Testbed::remove_file(const std::string& name) {
  auto blocks = namenode_->delete_file(name);
  if (service_ != nullptr) service_->on_blocks_deleted(blocks);
}

faults::FaultInjector& Testbed::install_fault_plan(const faults::FaultPlan& plan) {
  DYRS_CHECK_MSG(injector_ == nullptr, "a fault plan is already installed");
  injector_ =
      std::make_unique<faults::FaultInjector>(sim_, *cluster_, *namenode_, config_.fault_seed);
  injector_->set_obs(obs_context());
  if (invariants_ != nullptr) {
    injector_->after_event = [this]() { invariants_->check_now("after-fault"); };
  }
  injector_->install(plan);
  return *injector_;
}

faults::ClusterInvariantChecker& Testbed::enable_invariant_checks() {
  DYRS_CHECK_MSG(invariants_ == nullptr, "invariant checks already enabled");
  invariants_ = std::make_unique<faults::ClusterInvariantChecker>(sim_, *cluster_, *namenode_,
                                                                 master_.get());
  if (injector_ != nullptr) {
    injector_->after_event = [this]() { invariants_->check_now("after-fault"); };
  }
  return *invariants_;
}

obs::MemorySink& Testbed::trace_to_memory() {
  auto sink = std::make_unique<obs::MemorySink>();
  obs::MemorySink& ref = *sink;
  sink_ = std::move(sink);
  tracer_.set_sink(sink_.get());
  return ref;
}

void Testbed::trace_to_jsonl(const std::string& path) {
  sink_ = std::make_unique<obs::JsonlFileSink>(path);
  tracer_.set_sink(sink_.get());
}

void Testbed::stop_tracing() {
  tracer_.set_sink(nullptr);
  sink_.reset();
}

obs::PeriodicSampler& Testbed::enable_sampling() {
  DYRS_CHECK_MSG(sampler_ == nullptr, "sampling already enabled");
  sampler_ = std::make_unique<obs::PeriodicSampler>(sim_, obs_context(), kSampleInterval);
  obs::PeriodicSampler& sampler = *sampler_;
  // Registration order is the order of each tick's `sample` events.
  const double interval_s = to_seconds(kSampleInterval);
  core::MigrationMaster* master = master_.get();
  for (NodeId id : cluster_->node_ids()) {
    const std::string prefix = "node" + std::to_string(id.value());
    cluster::Node& node = cluster_->node(id);
    // Utilization probes report the busy fraction of the elapsed interval
    // (cumulative busy-seconds deltas), like iostat %util.
    sampler.add_probe(prefix + ".disk.util", [&node, prev = 0.0, interval_s]() mutable {
      const double busy = node.disk().busy_seconds();
      const double util = (busy - prev) / interval_s;
      prev = busy;
      return util;
    });
    sampler.add_probe(prefix + ".nic.util", [&node, prev = 0.0, interval_s]() mutable {
      const double busy = node.nic().busy_seconds();
      const double util = (busy - prev) / interval_s;
      prev = busy;
      return util;
    });
    sampler.add_probe(prefix + ".mem.pinned_bytes",
                      [&node]() { return static_cast<double>(node.memory().pinned()); });
    if (master != nullptr) {
      // Fig 9's quantity: the master's per-node migration-time estimate,
      // sampled post-pulse (the master's heartbeat timer was created first,
      // so it fires before the sampler at equal timestamps).
      sampler.add_probe(prefix + ".dyrs.est_s_per_block", [master, id]() {
        return master->slave(id).estimator().seconds_per_block();
      });
    }
  }
  if (master != nullptr) {
    sampler.add_probe("dyrs.pending_depth",
                      [master]() { return static_cast<double>(master->pending_count()); });
    sampler.add_probe("dyrs.bound_depth",
                      [master]() { return static_cast<double>(master->bound_count()); });
  }
  sampler.start();
  return sampler;
}

cluster::DiskInterference& Testbed::add_persistent_interference(NodeId node, int width) {
  persistent_.push_back(
      std::make_unique<cluster::DiskInterference>(cluster_->node(node).disk(), width));
  persistent_.back()->activate();
  return *persistent_.back();
}

cluster::AlternatingInterference& Testbed::add_alternating_interference(NodeId node,
                                                                        SimDuration period,
                                                                        bool initially_active,
                                                                        int width) {
  alternating_.push_back(std::make_unique<cluster::AlternatingInterference>(
      sim_, cluster_->node(node).disk(), period, initially_active, width));
  return *alternating_.back();
}

SimTime Testbed::run(SimTime max_time) {
  // Heartbeats and interference timers keep the queue non-empty forever,
  // so "run to completion" means "run until the engine drains". Never
  // steps past max_time: events beyond the horizon stay queued.
  while (!engine_->all_done()) {
    const std::optional<SimTime> next = sim_.next_event_time();
    DYRS_CHECK_MSG(next.has_value(), "simulation deadlocked with active jobs");
    if (*next > max_time) break;
    sim_.step();
  }
  return sim_.now();
}

}  // namespace dyrs::exec
