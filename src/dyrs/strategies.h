// Factory helpers for the four evaluated configurations (paper §V-A) plus
// the naive late-binder used as the straggler-avoidance foil (Fig 10).
#pragma once

#include <memory>

#include "dyrs/master.h"
#include "dyrs/oracle.h"
#include "dyrs/service.h"

namespace dyrs::core {

/// DYRS proper: late targeted binding, serialized migrations, missed-read
/// cancellation, overdue estimator correction.
inline std::unique_ptr<MigrationMaster> make_dyrs(cluster::Cluster& cluster,
                                                  dfs::NameNode& namenode,
                                                  MasterConfig config = {}) {
  config.binding = MasterConfig::Binding::LateTargeted;
  return std::make_unique<MigrationMaster>(cluster, namenode, config);
}

/// Ignem (ICDCS'18): binds each block to a uniformly random replica the
/// moment the job is submitted; migrations run concurrently; missed reads
/// are not cancelled; no bandwidth feedback of any kind.
inline std::unique_ptr<MigrationMaster> make_ignem(cluster::Cluster& cluster,
                                                   dfs::NameNode& namenode,
                                                   MasterConfig config = {}) {
  config.binding = MasterConfig::Binding::EagerRandom;
  config.cancel_missed_reads = false;
  config.slave.serialize_migrations = false;
  // Ignem copies eagerly but a real datanode still bounds its copy
  // threads; without a cap the seek penalty makes the slowdown far more
  // extreme than the 2x the paper measured.
  config.slave.max_concurrent_migrations = 4;
  config.slave.overdue_correction = false;
  return std::make_unique<MigrationMaster>(cluster, namenode, config);
}

/// Naive load balancer: late binding to any replica holder with queue
/// space, in FIFO order, with no earliest-finish targeting. Used to show
/// why Algorithm 1's straggler avoidance matters.
inline std::unique_ptr<MigrationMaster> make_naive_balancer(cluster::Cluster& cluster,
                                                            dfs::NameNode& namenode,
                                                            MasterConfig config = {}) {
  config.binding = MasterConfig::Binding::LateAnyReplica;
  return std::make_unique<MigrationMaster>(cluster, namenode, config);
}

inline std::unique_ptr<OracleInRam> make_inputs_in_ram(cluster::Cluster& cluster,
                                                       dfs::NameNode& namenode) {
  return std::make_unique<OracleInRam>(cluster, namenode);
}

inline std::unique_ptr<NoMigration> make_no_migration() {
  return std::make_unique<NoMigration>();
}

}  // namespace dyrs::core
