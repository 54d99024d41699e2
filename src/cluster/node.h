// A cluster node: one disk, one NIC, memory, and liveness state.
#pragma once

#include <memory>
#include <string>

#include "cluster/disk.h"
#include "cluster/memory.h"
#include "common/ids.h"
#include "sim/fair_share.h"

namespace dyrs::cluster {

class Node {
 public:
  struct Options {
    Disk::Options disk;
    Memory::Options memory;
    Rate nic_bandwidth = gbit_per_sec(10);
  };

  Node(sim::Simulator& sim, NodeId id, Options opts)
      : id_(id),
        disk_(sim, [&] {
          auto d = opts.disk;
          d.name = "disk-" + std::to_string(id.value());
          return d;
        }()),
        memory_(sim, opts.memory),
        nic_(sim, {.name = "nic-" + std::to_string(id.value()),
                   .capacity = opts.nic_bandwidth,
                   .seek_alpha = 0.0}) {}

  NodeId id() const { return id_; }
  Disk& disk() { return disk_; }
  const Disk& disk() const { return disk_; }
  Memory& memory() { return memory_; }
  const Memory& memory() const { return memory_; }
  sim::FairShareResource& nic() { return nic_; }

  bool alive() const { return alive_; }
  void set_alive(bool alive) { alive_ = alive; }

 private:
  NodeId id_;
  Disk disk_;
  Memory memory_;
  sim::FairShareResource nic_;
  bool alive_ = true;
};

}  // namespace dyrs::cluster
