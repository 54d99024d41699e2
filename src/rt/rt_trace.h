// Merge-key vocabulary for rt trace events.
//
// rt events cannot rely on emission order (worker threads interleave), so
// every event carries a stable key the ThreadLocalBufferSink merge sorts
// by: (block, lseq, tid, tseq). `lseq` encodes the lifecycle phase within a
// block's current migration cycle — a block migrated twice (complete, then
// migrated again) gets cycle 2, so its second lifecycle sorts after its
// first. `tid` is a logical emitter ordinal, not an OS thread id: 0 for the
// master (whose emissions are serialized under its mutex) and node + 1 for
// a slave's worker thread, so the ordinal is stable across runs.
//
// The lifecycle ranks themselves are shared with the sim backend and live
// with the LifecycleEmitter (src/core/lifecycle.h); this header adds only
// the rt-specific lseq encoding.
//
// How many members a drain cycle carries (RtSlave reads its whole queue and
// reports it to RtMaster::on_complete at once) does NOT appear in the merge
// key: a report is a transport artifact. Every member stamps its events
// individually with its own (block, lseq from its own cycle, tid, tseq), so
// the merged per-block span sequence is byte-identical whether a completion
// travelled alone or with 15 others — which is what lets tests diff span
// sequences across queue depths. The only report-visible ordering is tseq
// monotonicity on the emitting lane, and that is already guaranteed per
// thread.
#pragma once

#include <cstdint>

#include "core/lifecycle.h"

namespace dyrs::rt {

using core::kRankBind;
using core::kRankEnqueue;
using core::kRankTarget;
using core::kRankTerminal;
using core::kRankTransfer;

inline std::int64_t rt_lseq(std::uint64_t cycle, int rank) {
  return static_cast<std::int64_t>(cycle) * 8 + rank;
}

}  // namespace dyrs::rt
