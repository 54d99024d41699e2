// Transient-failure policy shared by both backends.
//
// A migration whose read hits an I/O error is retried on the same slave
// with capped exponential backoff; once the per-slave attempt budget is
// exhausted the slave reports a permanent failure, the failing node joins
// the block's accumulated avoid list, and the master requeues the block so
// Algorithm 1 re-targets it at a surviving replica.
#pragma once

#include <algorithm>

#include "common/units.h"

namespace dyrs::core {

struct RetryPolicy {
  /// Total tries allowed on one slave before the failure is permanent.
  int max_attempts = 4;
  SimDuration backoff = milliseconds(250);  // first retry delay
  SimDuration backoff_cap = seconds(8);     // backoff ceiling

  /// True once `attempts` consumed tries leave no retry budget.
  bool exhausted(int attempts) const { return attempts >= max_attempts; }

  /// Delay before the retry following failed attempt number `attempt`
  /// (1-based): base * 2^(attempt-1), clamped to the cap.
  SimDuration backoff_for(int attempt) const {
    const int shift = std::min(attempt - 1, 20);
    return std::min(backoff_cap, backoff << shift);
  }
};

}  // namespace dyrs::core
