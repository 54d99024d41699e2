#include "obs/trace_invariants.h"

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dyrs::obs {

namespace {

enum class Phase { Idle, Pending, Bound, Transferring };

struct BlockState {
  Phase phase = Phase::Idle;
  SimTime enqueued_at = -1;
  NodeId bound_node = NodeId::invalid();
  std::set<std::int64_t> zombies;  // nodes whose reclaimed binding may still emit
  // Policy-oracle state (populated only from fields the trace carries).
  std::int64_t size = 0;
  std::vector<std::int64_t> replicas;
  std::set<std::int64_t> avoid;       // accumulated from mig_requeue
  std::int64_t pending_target = -1;   // latest mig_target while Pending
};

/// Parses the comma-joined node list mig_enqueue carries in "replicas".
std::vector<std::int64_t> parse_id_list(const std::string& csv) {
  std::vector<std::int64_t> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const std::string part = csv.substr(pos, comma - pos);
    if (!part.empty()) out.push_back(std::stoll(part));
    pos = comma + 1;
  }
  return out;
}

/// True for sampler probe names of the form "node<N>.dyrs.est_s_per_block".
bool parse_est_probe(const std::string& name, std::int64_t& node) {
  constexpr std::string_view kPrefix = "node";
  constexpr std::string_view kSuffix = ".dyrs.est_s_per_block";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return false;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) != 0) return false;
  const std::string digits =
      name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  node = std::stoll(digits);
  return true;
}

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::Idle: return "idle";
    case Phase::Pending: return "pending";
    case Phase::Bound: return "bound";
    case Phase::Transferring: return "transferring";
  }
  return "?";
}

bool is_down_fault(const std::string& kind) {
  return kind == "process-crash" || kind == "server-death" || kind == "partition";
}

}  // namespace

std::string InvariantReport::summary() const {
  if (violations.empty()) return "OK";
  std::map<std::string, std::size_t> per_rule;
  for (const auto& v : violations) ++per_rule[v.rule];
  std::ostringstream os;
  os << violations.size() << " violation(s):";
  for (const auto& [rule, n] : per_rule) os << " " << rule << "=" << n;
  return os.str();
}

InvariantReport TraceInvariants::check(const TraceReader& reader) const {
  InvariantReport report;
  const auto& events = reader.events();
  report.events = events.size();
  report.memory_read_rule_active = reader.count_of("mig_enqueue") > 0;

  std::map<std::int64_t, BlockState> blocks;
  using BlockNode = std::pair<std::int64_t, std::int64_t>;
  std::set<BlockNode> completed_on;
  // Every mig_complete (demoted=false) and mig_demote (demoted=true) of a
  // (block, node), in trace order: whether the node held the block in
  // memory when a read started.
  struct Residency {
    SimTime at;
    bool demoted;
  };
  std::map<BlockNode, std::vector<Residency>> residency;
  std::map<std::int64_t, int> down;  // node -> active down-fault windows
  bool failover_seen = false;
  SimTime prev_at = 0;

  // Policy-oracle cluster view, rebuilt purely from the trace: the latest
  // sampled per-node migration-time estimate, plus the load each node
  // carries (bytes bound to it, and bytes of pending blocks currently
  // targeted at it).
  std::map<std::int64_t, double> est_s;
  std::map<std::int64_t, double> bound_bytes;
  std::map<std::int64_t, double> pending_load;

  auto violate = [&](const char* rule, std::size_t index, const TraceEvent& e,
                     const std::string& detail) {
    if (report.violations.size() >= max_violations) return;
    InvariantViolation v;
    v.rule = rule;
    v.detail = detail;
    v.event_index = index;
    v.at = e.at;
    v.block = BlockId(e.i64("block"));
    v.node = NodeId(e.i64("node"));
    report.violations.push_back(std::move(v));
  };
  // Drops the block's contribution to the policy load accounting (its
  // pending target and/or its bound bytes).
  auto release_load = [&](BlockState& st) {
    if (st.pending_target >= 0) {
      double& pl = pending_load[st.pending_target];
      pl -= static_cast<double>(st.size);
      if (pl < 0) pl = 0;
      st.pending_target = -1;
    }
    if (st.bound_node.valid()) {
      double& bb = bound_bytes[st.bound_node.value()];
      bb -= static_cast<double>(st.size);
      if (bb < 0) bb = 0;
    }
  };
  // Abandons the open lifecycle without closing it properly; the bound node
  // may keep transferring, so it becomes a zombie for this block.
  auto abandon = [&](BlockState& st) {
    release_load(st);
    if (st.bound_node.valid()) st.zombies.insert(st.bound_node.value());
    st.phase = Phase::Idle;
    st.enqueued_at = -1;
    st.bound_node = NodeId::invalid();
  };
  // Replays Algorithm 1's earliest-finish choice for one mig_target. Node
  // loads are what the trace itself implies; estimates are the last sampled
  // probe values, i.e. a sampling-cadence snapshot of the live estimator,
  // so the relative margin absorbs drift between samples. Skips (rather
  // than flags) targets it cannot score: no replica set, no estimator
  // snapshot yet for an eligible replica, or a chosen node the replay
  // believes ineligible (its avoid/down knowledge may be incomplete).
  auto policy_eval = [&](std::size_t i, const TraceEvent& e, const BlockState& st,
                         std::int64_t chosen) {
    if (st.replicas.empty() || st.size <= 0) {
      ++report.policy_skipped;
      return;
    }
    const double size = static_cast<double>(st.size);
    const double ref = static_cast<double>(policy_reference_block);
    double best = -1;
    std::int64_t best_node = -1;
    double chosen_finish = -1;
    bool chosen_eligible = false;
    for (std::int64_t n : st.replicas) {
      if (st.avoid.count(n) > 0) continue;
      auto dit = down.find(n);
      if (dit != down.end() && dit->second > 0) continue;
      auto eit = est_s.find(n);
      if (eit == est_s.end()) {
        ++report.policy_skipped;
        return;
      }
      const double sec_per_byte = eit->second / ref;
      double load = bound_bytes[n] + pending_load[n];
      if (st.pending_target == n) load -= size;  // exclude the block itself
      if (load < 0) load = 0;
      const double finish = sec_per_byte * (load + size);
      if (best < 0 || finish < best) {
        best = finish;
        best_node = n;
      }
      if (n == chosen) {
        chosen_finish = finish;
        chosen_eligible = true;
      }
    }
    if (!chosen_eligible || best < 0) {
      ++report.policy_skipped;
      return;
    }
    ++report.policy_checked;
    if (chosen_finish > best * (1.0 + policy_margin) + 1e-9) {
      std::ostringstream os;
      os << "target node " << chosen << " est finish " << chosen_finish << "s but node "
         << best_node << " would finish in " << best << "s (margin " << policy_margin << ")";
      violate("policy", i, e, os.str());
    }
  };

  // The time of the demote that left `key` out of memory when a read
  // started at `start`, or -1 if it was resident: the last residency
  // change before the start decides, where a demote must precede the start
  // strictly and a fresh completion may coincide with it.
  auto demoted_before = [&](const BlockNode& key, SimTime start) -> SimTime {
    auto it = residency.find(key);
    if (it == residency.end()) return -1;
    for (auto r = it->second.rbegin(); r != it->second.rend(); ++r) {
      if (r->demoted ? r->at < start : r->at <= start) return r->demoted ? r->at : -1;
    }
    return -1;
  };

  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    // Merged rt traces are in canonical merge-key order (grouped per block),
    // not chronological order, so global time monotonicity only holds for
    // single-threaded sim traces.
    if (profile == Profile::Sim && e.at < prev_at) {
      violate("order", i, e,
              "time went backwards: " + std::to_string(e.at) + "us after " +
                  std::to_string(prev_at) + "us");
    }
    prev_at = std::max(prev_at, e.at);

    if (e.type == "fault") {
      if (is_down_fault(e.str("kind"))) {
        const std::int64_t node = e.i64("node");
        if (e.str("phase") == "start") {
          ++down[node];
        } else if (down[node] > 0) {
          --down[node];
        }
      }
      continue;
    }
    if (e.type == "master_failover") {
      failover_seen = true;
      for (auto& [id, st] : blocks) {
        if (st.phase == Phase::Idle) continue;
        ++report.abandoned_by_failover;
        abandon(st);
      }
      continue;
    }
    if (e.type == "sample") {
      if (check_policy) {
        std::int64_t n = -1;
        if (parse_est_probe(e.str("name"), n)) est_s[n] = e.f64("value");
      }
      continue;
    }
    if (e.type == "read_done") {
      const std::string medium = e.str("medium");
      if (report.memory_read_rule_active &&
          (medium == "local-memory" || medium == "remote-memory")) {
        const BlockNode key{e.i64("block"), e.i64("node")};
        const std::string what = "memory read of block " + std::to_string(key.first) +
                                 " on node " + std::to_string(key.second);
        const SimTime start = e.at - e.i64("latency_us", 0);
        if (completed_on.count(key) == 0) {
          violate("memory-read", i, e, what + " with no prior mig_complete there");
        } else if (const SimTime demoted = demoted_before(key, start); demoted >= 0) {
          violate("demoted-read", i, e,
                  what + " started at " + std::to_string(start) + "us, after its mig_demote at " +
                      std::to_string(demoted) + "us with no fresh mig_complete");
        }
      }
      continue;
    }
    if (e.type.rfind("mig_", 0) != 0) continue;

    const std::int64_t block = e.i64("block");
    const std::int64_t node = e.i64("node");
    auto [it, inserted] = blocks.try_emplace(block);
    BlockState& st = it->second;
    const bool zombie = node >= 0 && st.zombies.count(node) > 0;

    if (e.type == "mig_enqueue") {
      // A merged enqueue records extra job demand joining an already-open
      // pending entry; it must not reset the lifecycle (the entry's size,
      // replicas and enqueue time belong to the original event).
      if (e.i64("merged", 0) != 0) {
        ++report.merged_enqueues;
        if (st.phase == Phase::Pending) {
          // expected: demand merged while the entry waits
        } else if (failover_seen) {
          ++report.zombie_events;
        } else if (st.phase == Phase::Idle) {
          violate("order", i, e, "merged enqueue with no open pending entry");
        } else {
          violate("order", i, e,
                  "merged enqueue while lifecycle is " + std::string(phase_name(st.phase)));
        }
        continue;
      }
      if (st.phase != Phase::Idle) {
        if (failover_seen) {
          ++report.zombie_events;
          abandon(st);
        } else {
          violate("terminal", i, e,
                  "re-enqueue while lifecycle is " + std::string(phase_name(st.phase)));
          abandon(st);
        }
      }
      st.phase = Phase::Pending;
      st.enqueued_at = e.at;
      st.size = e.i64("size", 0);
      st.replicas = parse_id_list(e.str("replicas"));
      st.avoid.clear();
      st.pending_target = -1;
    } else if (e.type == "mig_target") {
      if (st.phase == Phase::Idle) {
        if (failover_seen) {
          ++report.zombie_events;
          st.phase = Phase::Pending;  // implicit lifecycle from re-inserted state
        } else {
          violate("order", i, e, "target without an open lifecycle");
          st.phase = Phase::Pending;
        }
      } else if (st.phase != Phase::Pending) {
        if (failover_seen) {
          ++report.zombie_events;
        } else {
          violate("order", i, e,
                  "target while lifecycle is " + std::string(phase_name(st.phase)));
        }
      }
      if (check_policy) policy_eval(i, e, st, node);
      if (st.pending_target >= 0) {
        double& pl = pending_load[st.pending_target];
        pl -= static_cast<double>(st.size);
        if (pl < 0) pl = 0;
      }
      st.pending_target = node;
      if (node >= 0) pending_load[node] += static_cast<double>(st.size);
    } else if (e.type == "mig_bind") {
      // RtFaults: fault markers are blockless and sort ahead of every
      // lifecycle in merged rt traces, so interval accounting cannot be
      // replayed against per-block grouped events.
      if (profile != Profile::RtFaults && node >= 0 && down[node] > 0) {
        violate("live-bind", i, e,
                "bind to node " + std::to_string(node) + " inside a down-fault window");
      }
      st.zombies.erase(node);  // a fresh bind re-legitimizes the node
      const std::int64_t wait_us = e.i64("wait_us");
      if (wait_us < 0) {
        violate("queue-wait", i, e, "negative wait_us " + std::to_string(wait_us));
      }
      if (st.phase == Phase::Pending) {
        if (st.enqueued_at >= 0) {
          if (e.at < st.enqueued_at) {
            violate("order", i, e, "bind before enqueue");
          } else if (wait_us >= 0 && wait_us != e.at - st.enqueued_at) {
            violate("queue-wait", i, e,
                    "wait_us " + std::to_string(wait_us) + " != bind-enqueue gap " +
                        std::to_string(e.at - st.enqueued_at) + "us");
          }
        }
      } else if (st.phase == Phase::Idle) {
        if (failover_seen) {
          ++report.zombie_events;  // re-inserted pending state, enqueue not re-emitted
        } else {
          violate("order", i, e, "bind without an open lifecycle");
        }
      } else {
        if (failover_seen) {
          ++report.zombie_events;
        } else {
          violate("order", i, e, "bind while lifecycle is " + std::string(phase_name(st.phase)));
        }
        abandon(st);
        st.zombies.erase(node);
      }
      if (st.pending_target >= 0) {
        double& pl = pending_load[st.pending_target];
        pl -= static_cast<double>(st.size);
        if (pl < 0) pl = 0;
        st.pending_target = -1;
      }
      st.phase = Phase::Bound;
      st.bound_node = NodeId(node);
      if (node >= 0) bound_bytes[node] += static_cast<double>(st.size);
    } else if (e.type == "mig_transfer_start") {
      if (zombie) {
        ++report.zombie_events;
      } else if (st.phase == Phase::Bound && node == st.bound_node.value()) {
        st.phase = Phase::Transferring;
      } else if (st.phase == Phase::Transferring && node == st.bound_node.value() &&
                 e.i64("attempt", 1) > 1) {
        // retry restarts the transfer on the same node with attempt > 1
      } else if (failover_seen) {
        ++report.zombie_events;
      } else if (st.phase == Phase::Transferring && node == st.bound_node.value()) {
        violate("order", i, e, "duplicate transfer_start (attempt 1)");
      } else {
        violate("order", i, e,
                "transfer_start on node " + std::to_string(node) + " while lifecycle is " +
                    phase_name(st.phase) + " (bound to " +
                    std::to_string(st.bound_node.value()) + ")");
      }
    } else if (e.type == "mig_transfer_retry" || e.type == "mig_transfer_failed") {
      if (zombie) {
        ++report.zombie_events;
      } else if (st.phase == Phase::Transferring && node == st.bound_node.value()) {
        // retry keeps transferring; a permanent failure is terminalized by
        // the io-error mig_abort the master emits right after
      } else if (failover_seen) {
        ++report.zombie_events;
      } else {
        violate("order", i, e,
                e.type + " on node " + std::to_string(node) + " while lifecycle is " +
                    phase_name(st.phase));
      }
    } else if (e.type == "mig_complete") {
      completed_on.insert({block, node});
      residency[{block, node}].push_back({e.at, false});
      if (zombie) {
        ++report.zombie_events;
      } else if ((st.phase == Phase::Transferring || st.phase == Phase::Bound) &&
                 node == st.bound_node.value()) {
        if (st.phase == Phase::Bound) {
          violate("order", i, e, "complete without transfer_start");
        }
        ++report.lifecycles_closed;
        release_load(st);
        st.phase = Phase::Idle;
        st.enqueued_at = -1;
        st.bound_node = NodeId::invalid();
      } else if (failover_seen) {
        ++report.zombie_events;
      } else if (st.phase == Phase::Idle) {
        violate("terminal", i, e, "complete without an open lifecycle");
      } else {
        violate("terminal", i, e,
                "complete on node " + std::to_string(node) + " while lifecycle is " +
                    phase_name(st.phase) + " on node " +
                    std::to_string(st.bound_node.value()));
      }
    } else if (e.type == "mig_abort") {
      if (st.phase == Phase::Idle) {
        if (failover_seen) {
          ++report.zombie_events;
        } else {
          violate("terminal", i, e, "abort without an open lifecycle");
        }
      } else {
        ++report.lifecycles_closed;
        if (e.str("reason") == "heartbeat-loss") {
          // The partitioned slave keeps working; tolerate its later events.
          const NodeId z = node >= 0 ? NodeId(node) : st.bound_node;
          if (z.valid()) st.zombies.insert(z.value());
        }
        release_load(st);
        st.phase = Phase::Idle;
        st.enqueued_at = -1;
        st.bound_node = NodeId::invalid();
      }
    } else if (e.type == "mig_demote") {
      // Demotions act on settled data outside the migration lifecycle: the
      // block must have completed on this node, and it falls from memory
      // to disk, the only tiers there are.
      ++report.demotions;
      residency[{block, node}].push_back({e.at, true});
      if (e.str("from") != "memory" || e.str("to") != "disk") {
        violate("demote", i, e,
                "demotion is not memory -> disk: " + e.str("from") + " -> " + e.str("to"));
      }
      if (completed_on.count({block, node}) == 0) {
        violate("demote", i, e,
                "demote of block " + std::to_string(block) + " on node " +
                    std::to_string(node) + " with no prior mig_complete there");
      }
    } else if (e.type == "mig_requeue") {
      // Informational for the lifecycle rules (the fresh mig_enqueue
      // precedes it), but the policy oracle consumes its avoid node: the
      // master excludes it from future targeting of this block.
      const std::int64_t avoid = e.i64("avoid", -1);
      if (avoid >= 0) st.avoid.insert(avoid);
    }
  }

  for (const auto& [block, st] : blocks) {
    if (st.phase == Phase::Idle) continue;
    ++report.open_at_end;
    if (flag_open_lifecycles && report.violations.size() < max_violations) {
      InvariantViolation v;
      v.rule = "terminal";
      v.detail = std::string("lifecycle still ") + phase_name(st.phase) + " at end of trace";
      v.event_index = events.size();
      v.at = prev_at;
      v.block = BlockId(block);
      v.node = st.bound_node;
      report.violations.push_back(std::move(v));
    }
  }
  return report;
}

}  // namespace dyrs::obs
