#include "sim/fair_share.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace dyrs::sim {

namespace {
// A finite flow counts as drained once its residual drops below this many
// bytes; completion events are scheduled with a ceiling so the residual at
// the event is <= 0 up to floating-point error.
constexpr double kDrainEpsilonBytes = 1e-3;
constexpr double kInfinite = std::numeric_limits<double>::infinity();
}  // namespace

FairShareResource::FairShareResource(Simulator& sim, Options opts)
    : sim_(sim),
      opts_name_(std::move(opts.name)),
      capacity_(opts.capacity),
      seek_alpha_(opts.seek_alpha),
      last_update_(sim.now()) {
  DYRS_CHECK(capacity_ >= 0.0);
  DYRS_CHECK(seek_alpha_ >= 0.0);
}

FairShareResource::~FairShareResource() { pending_tick_.cancel(); }

void FairShareResource::advance() {
  const SimTime now = sim_.now();
  const SimDuration dt = now - last_update_;
  if (dt <= 0) return;
  if (!flows_.empty()) {
    busy_us_ += dt;
    const double progress = per_flow_rate_ * static_cast<double>(dt) / 1e6;
    if (progress > 0.0) {
      for (Flow& flow : flows_) {
        if (flow.infinite) continue;
        const double moved = std::min(flow.remaining, progress);
        flow.remaining -= moved;
        total_bytes_ += moved;
      }
    }
  }
  last_update_ = now;
}

void FairShareResource::recompute_rates() {
  const int n = static_cast<int>(flows_.size());
  if (n == 0 || capacity_ <= 0.0) {
    per_flow_rate_ = 0.0;
    return;
  }
  const double penalty = 1.0 / (1.0 + seek_alpha_ * static_cast<double>(n - 1));
  per_flow_rate_ = capacity_ * penalty / static_cast<double>(n);
}

void FairShareResource::reschedule() {
  pending_tick_.cancel();
  if (per_flow_rate_ <= 0.0) return;
  double min_remaining = kInfinite;
  for (const Flow& flow : flows_) {
    if (!flow.infinite) min_remaining = std::min(min_remaining, flow.remaining);
  }
  if (min_remaining == kInfinite) return;  // only interference flows
  const double dt_us = std::ceil(min_remaining / per_flow_rate_ * 1e6);
  const auto delay = static_cast<SimDuration>(std::max(0.0, dt_us));
  pending_tick_ = sim_.schedule_after(delay, [this]() { on_tick(); });
}

void FairShareResource::on_tick() {
  advance();
  // Collect drained flows, remove them, then fire callbacks with the
  // resource already in its post-completion state so reentrant start_flow
  // calls from callbacks observe consistent rates. The list reuses one
  // member buffer; it is moved out while the callbacks run, so a reentrant
  // tick would fill a buffer of its own.
  std::vector<CompletionFn> done = std::move(done_);
  done.clear();
  auto drained = [](const Flow& f) { return !f.infinite && f.remaining <= kDrainEpsilonBytes; };
  for (Flow& flow : flows_) {
    if (drained(flow)) done.push_back(std::move(flow.on_complete));
  }
  std::erase_if(flows_, drained);
  recompute_rates();
  reschedule();
  const SimTime now = sim_.now();
  for (auto& fn : done) {
    if (fn) fn(now);
  }
  done.clear();
  done_ = std::move(done);
}

FairShareResource::FlowId FairShareResource::start_flow(Bytes bytes, CompletionFn on_complete) {
  DYRS_CHECK_MSG(bytes > 0, "flow must move at least one byte");
  advance();
  const FlowId id = next_id_++;
  flows_.push_back({.id = id, .remaining = static_cast<double>(bytes),
                    .on_complete = std::move(on_complete)});
  recompute_rates();
  reschedule();
  return id;
}

FairShareResource::FlowId FairShareResource::start_interference() {
  advance();
  const FlowId id = next_id_++;
  flows_.push_back({.id = id, .remaining = kInfinite, .on_complete = nullptr, .infinite = true});
  ++interference_count_;
  recompute_rates();
  reschedule();
  return id;
}

void FairShareResource::cancel_flow(FlowId id) {
  advance();
  const auto it = find(id);
  if (it == flows_.end()) return;
  if (it->infinite) --interference_count_;
  flows_.erase(it);
  recompute_rates();
  reschedule();
}

void FairShareResource::set_capacity(Rate capacity) {
  DYRS_CHECK(capacity >= 0.0);
  advance();
  capacity_ = capacity;
  recompute_rates();
  reschedule();
}

FairShareResource::Flows::const_iterator FairShareResource::find(FlowId id) const {
  const auto it = std::lower_bound(flows_.begin(), flows_.end(), id,
                                   [](const Flow& f, FlowId v) { return f.id < v; });
  return it != flows_.end() && it->id == id ? it : flows_.end();
}

Bytes FairShareResource::remaining_bytes(FlowId id) const {
  const auto it = find(id);
  if (it == flows_.end()) return 0;
  if (it->infinite) return std::numeric_limits<Bytes>::max();
  // advance()'s arithmetic, applied to a copy of this flow's residual.
  const double progress = per_flow_rate_ * static_cast<double>(sim_.now() - last_update_) / 1e6;
  const double moved = std::min(it->remaining, std::max(progress, 0.0));
  return static_cast<Bytes>(std::ceil(it->remaining - moved));
}

SimDuration FairShareResource::unloaded_duration(Bytes bytes) const {
  DYRS_CHECK(bytes >= 0);
  if (capacity_ <= 0.0) return std::numeric_limits<SimDuration>::max();
  return static_cast<SimDuration>(
      std::ceil(static_cast<double>(bytes) / capacity_ * 1e6));
}

}  // namespace dyrs::sim
