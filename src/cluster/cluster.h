// The cluster: a set of nodes sharing one simulator.
//
// Mirrors the paper's testbed shape: one master host (not modeled as a
// storage node) plus N identical datanodes, each with a 1TB HDD, 128GB RAM
// and 10GbE. Experiments make nodes differ at run time (disk interference,
// degraded disks).
#pragma once

#include <memory>
#include <vector>

#include "cluster/node.h"
#include "common/check.h"

namespace dyrs::cluster {

class Cluster {
 public:
  struct Options {
    int num_nodes = 7;  // datanodes; the paper uses 7 workers + 1 master
    Node::Options node;
  };

  Cluster(sim::Simulator& sim, Options opts) : sim_(sim) {
    DYRS_CHECK(opts.num_nodes > 0);
    nodes_.reserve(static_cast<std::size_t>(opts.num_nodes));
    for (int i = 0; i < opts.num_nodes; ++i) {
      nodes_.push_back(std::make_unique<Node>(sim, NodeId(i), opts.node));
    }
  }

  int size() const { return static_cast<int>(nodes_.size()); }

  Node& node(NodeId id) {
    DYRS_CHECK(id.value() >= 0 && id.value() < size());
    return *nodes_[static_cast<std::size_t>(id.value())];
  }
  const Node& node(NodeId id) const {
    DYRS_CHECK(id.value() >= 0 && id.value() < size());
    return *nodes_[static_cast<std::size_t>(id.value())];
  }

  std::vector<NodeId> node_ids() const {
    std::vector<NodeId> ids;
    ids.reserve(nodes_.size());
    for (const auto& n : nodes_) ids.push_back(n->id());
    return ids;
  }

  sim::Simulator& simulator() { return sim_; }

 private:
  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace dyrs::cluster
