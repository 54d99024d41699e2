#include "core/lifecycle.h"

#include <cstdint>
#include <string>
#include <utility>

namespace dyrs::core {

void LifecycleEmitter::emit(obs::TraceEvent& e, BlockId block, int rank) {
  if (stamper_) stamper_(e, block, rank);
  obs_.emit(e);
}

void LifecycleEmitter::enqueue(SimTime at, BlockId block, JobId job, Bytes size,
                               const std::vector<NodeId>& replicas) {
  if (!tracing()) return;
  // The replica set rides along so trace consumers (the policy oracle)
  // know which nodes Algorithm 1 could have chosen.
  std::string csv;
  for (NodeId n : replicas) {
    if (!csv.empty()) csv += ',';
    csv += std::to_string(n.value());
  }
  obs::TraceEvent e(at, "mig_enqueue");
  e.with("block", block.value())
      .with("job", job.value())
      .with("size", static_cast<std::int64_t>(size))
      .with("replicas", std::move(csv));
  emit(e, block, kRankEnqueue);
}

void LifecycleEmitter::enqueue_merged(SimTime at, BlockId block, JobId job) {
  if (!tracing()) return;
  obs::TraceEvent e(at, "mig_enqueue");
  e.with("block", block.value()).with("job", job.value()).with("merged", std::int64_t{1});
  emit(e, block, kRankEnqueue);
}

void LifecycleEmitter::target(SimTime at, BlockId block, NodeId node, double sec_per_byte) {
  if (!tracing()) return;
  obs::TraceEvent e(at, "mig_target");
  e.with("block", block.value()).with("node", node.value()).with("sec_per_byte", sec_per_byte);
  emit(e, block, kRankTarget);
}

void LifecycleEmitter::bind(SimTime at, BlockId block, NodeId node, SimDuration wait) {
  if (!tracing()) return;
  obs::TraceEvent e(at, "mig_bind");
  e.with("block", block.value())
      .with("node", node.value())
      .with("wait_us", static_cast<std::int64_t>(wait));
  emit(e, block, kRankBind);
}

void LifecycleEmitter::transfer_start(SimTime at, BlockId block, NodeId node, Bytes size,
                                      int attempt) {
  if (!tracing()) return;
  obs::TraceEvent e(at, "mig_transfer_start");
  e.with("block", block.value())
      .with("node", node.value())
      .with("size", static_cast<std::int64_t>(size))
      .with("attempt", attempt);
  emit(e, block, kRankTransfer);
}

void LifecycleEmitter::transfer_retry(SimTime at, BlockId block, NodeId node, int attempt,
                                      SimDuration delay) {
  if (!tracing()) return;
  obs::TraceEvent e(at, "mig_transfer_retry");
  e.with("block", block.value())
      .with("node", node.value())
      .with("attempt", attempt)
      .with("delay_us", static_cast<std::int64_t>(delay));
  emit(e, block, kRankTransfer);
}

void LifecycleEmitter::transfer_failed(SimTime at, BlockId block, NodeId node, int attempts) {
  if (!tracing()) return;
  obs::TraceEvent e(at, "mig_transfer_failed");
  e.with("block", block.value()).with("node", node.value()).with("attempts", attempts);
  emit(e, block, kRankTransfer);
}

void LifecycleEmitter::complete(SimTime at, BlockId block, NodeId node, Bytes size,
                                double transfer_s) {
  if (!tracing()) return;
  obs::TraceEvent e(at, "mig_complete");
  e.with("block", block.value())
      .with("node", node.value())
      .with("size", static_cast<std::int64_t>(size))
      .with("transfer_s", transfer_s);
  emit(e, block, kRankTerminal);
}

void LifecycleEmitter::abort(const CancelRecord& rec) {
  if (!tracing()) return;
  obs::TraceEvent e(rec.at, "mig_abort");
  e.with("block", rec.block.value());
  if (rec.node.valid()) e.with("node", rec.node.value());
  e.with("reason", to_string(rec.reason));
  emit(e, rec.block, kRankTerminal);
}

void LifecycleEmitter::requeue(SimTime at, BlockId block, NodeId avoid) {
  if (!tracing()) return;
  // Informational: the fresh mig_enqueue of the re-added entry precedes
  // it, so it stamps with the *new* cycle's enqueue rank.
  obs::TraceEvent e(at, "mig_requeue");
  e.with("block", block.value());
  if (avoid.valid()) e.with("avoid", avoid.value());
  emit(e, block, kRankEnqueue);
}

void LifecycleEmitter::demote(SimTime at, BlockId block, NodeId node, Tier from, Tier to,
                              Bytes size) {
  if (!tracing()) return;
  obs::TraceEvent e(at, "mig_demote");
  e.with("block", block.value())
      .with("node", node.value())
      .with("from", std::string(to_string(from)))
      .with("to", std::string(to_string(to)))
      .with("size", static_cast<std::int64_t>(size));
  emit(e, block, kRankDemote);
}

}  // namespace dyrs::core
