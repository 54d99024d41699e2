#include "dfs/client.h"

#include <algorithm>
#include <array>

#include "common/check.h"

namespace dyrs::dfs {

namespace {
/// Picks one element uniformly; deterministic given the client's rng.
NodeId pick(const std::vector<NodeId>& nodes, Rng& rng) {
  DYRS_CHECK(!nodes.empty());
  return nodes[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
}

bool contains(const std::vector<NodeId>& nodes, NodeId n) {
  return std::find(nodes.begin(), nodes.end(), n) != nodes.end();
}
}  // namespace

void DFSClient::read_block(BlockId block, NodeId reader, JobId job, ReadDoneFn done) {
  const BlockMeta& meta = namenode_.ns().block(block);
  const SimTime start = cluster_.simulator().now();

  // Signal the migration framework before resolving locations: a missed
  // migration cancelled here will not serve this read anyway, and keeping
  // it would only waste disk bandwidth.
  if (hooks_) hooks_->on_read_started(block, job);

  ReadInfo info;
  info.block = block;
  info.start = start;

  const auto memory_nodes = namenode_.memory_locations(block);
  if (!memory_nodes.empty()) {
    if (contains(memory_nodes, reader)) {
      info.source = reader;
      info.medium = ReadMedium::LocalMemory;
      cluster_.node(reader).memory().read(meta.size, [this, info, job, done]() mutable {
        info.end = cluster_.simulator().now();
        finish(info, job, done);
      });
    } else {
      const NodeId src = pick(memory_nodes, rng_);
      info.source = src;
      info.medium = ReadMedium::RemoteMemory;
      cluster_.node(src).nic().start_flow(meta.size, [this, info, job, done](SimTime t) mutable {
        info.end = t;
        finish(info, job, done);
      });
    }
    return;
  }

  const auto disk_nodes = namenode_.block_locations(block);
  DYRS_CHECK_MSG(!disk_nodes.empty(), "no available replica of block " << block);
  const bool local = contains(disk_nodes, reader);
  const NodeId src = local ? reader : pick(disk_nodes, rng_);
  info.source = src;
  info.medium = local ? ReadMedium::LocalDisk : ReadMedium::RemoteDisk;
  namenode_.datanode(src)->read_from_disk(
      block, meta.size, cluster::IoClass::TaskRead,
      [this, info, job, done](SimTime t) mutable {
        info.end = t;
        finish(info, job, done);
      });
}

void DFSClient::set_observability(const obs::ObsContext& obs) {
  obs_ = obs;
  for (std::size_t i = 0; i < medium_counters_.size(); ++i) {
    medium_counters_[i] =
        obs.counter(std::string("dfs.reads.") + to_string(static_cast<ReadMedium>(i)));
  }
}

void DFSClient::finish(const ReadInfo& info, JobId job, const ReadDoneFn& done) {
  const auto node = static_cast<std::size_t>(info.source.value());
  if (node >= served_.size()) served_.resize(node + 1);
  ++served_[node][static_cast<std::size_t>(info.medium)];
  ++total_reads_;
  if (obs::Counter* c = medium_counters_[static_cast<std::size_t>(info.medium)]) c->inc();
  if (obs_.tracing()) {
    obs_.emit(obs::TraceEvent(info.end, "read_done")
                  .with("block", info.block.value())
                  .with("job", job.value())
                  .with("node", info.source.value())
                  .with("medium", to_string(info.medium))
                  .with("latency_us", static_cast<std::int64_t>(info.end - info.start)));
  }
  if (hooks_) hooks_->on_read_completed(info.block, job, info);
  if (done) done(info);
}

long DFSClient::reads_served(NodeId node) const {
  const auto i = static_cast<std::size_t>(node.value());
  if (!node.valid() || i >= served_.size()) return 0;
  long sum = 0;
  for (long c : served_[i]) sum += c;
  return sum;
}

long DFSClient::reads_served(NodeId node, ReadMedium medium) const {
  const auto i = static_cast<std::size_t>(node.value());
  if (!node.valid() || i >= served_.size()) return 0;
  return served_[i][static_cast<std::size_t>(medium)];
}

}  // namespace dyrs::dfs
