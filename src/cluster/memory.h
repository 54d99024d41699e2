// Node memory: capacity accounting for pinned (mlocked) buffers plus a
// simple bandwidth model for reads served from the buffer cache.
//
// RAM bandwidth is far from the bottleneck in any experiment, so memory
// reads are modeled as fixed-rate transfers without contention; what matters
// is the ~two-orders-of-magnitude gap to disk (the paper measures 160x at
// block level).
#pragma once

#include <functional>

#include "common/check.h"
#include "common/timeseries.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace dyrs::cluster {

class Memory {
 public:
  /// Buffer-cache read rate: a single-socket stream rate.
  static constexpr Rate kReadBandwidth = gib_per_sec(25);

  struct Options {
    Bytes capacity = gib(128);
  };

  Memory(sim::Simulator& sim, Options opts) : sim_(sim), opts_(opts) {}

  Bytes capacity() const { return opts_.capacity; }
  Bytes pinned() const { return pinned_; }

  /// Attempts to pin `bytes` (mmap+mlock). Returns false if it would exceed
  /// capacity; the caller (buffer manager) queues the migration instead.
  bool pin(Bytes bytes) {
    DYRS_CHECK(bytes >= 0);
    if (pinned_ + bytes > opts_.capacity) return false;
    pinned_ += bytes;
    usage_.record(sim_.now(), static_cast<double>(pinned_));
    return true;
  }

  /// Releases pinned bytes (munmap).
  void unpin(Bytes bytes) {
    DYRS_CHECK(bytes >= 0 && bytes <= pinned_);
    pinned_ -= bytes;
    usage_.record(sim_.now(), static_cast<double>(pinned_));
  }

  /// Time to read `bytes` from the buffer cache.
  SimDuration read_time(Bytes bytes) const {
    return static_cast<SimDuration>(static_cast<double>(bytes) / kReadBandwidth * 1e6);
  }

  /// Schedules a memory read and invokes `done` at completion.
  void read(Bytes bytes, std::function<void()> done) {
    sim_.schedule_after(read_time(bytes), std::move(done));
  }

  /// Pinned-bytes step function over time — Fig 7's per-server footprint.
  const TimeSeries& usage_series() const { return usage_; }

 private:
  sim::Simulator& sim_;
  Options opts_;
  Bytes pinned_ = 0;
  TimeSeries usage_;
};

}  // namespace dyrs::cluster
