#include "sim/simulator.h"

#include <algorithm>

namespace dyrs::sim {

EventHandle Simulator::arm(SimTime t, SimDuration period, EventFn fn) {
  detail::SlotTable& table = *table_;
  if (table.free.empty()) {
    table.free.push_back(static_cast<std::uint32_t>(table.slots.size()));
    table.slots.emplace_back();
  }
  const std::uint32_t slot = table.free.back();
  table.free.pop_back();
  detail::Slot& s = table.slots[slot];
  s.fn = std::move(fn);
  s.period = period;
  s.cancelled = false;
  push(t, slot);
  return EventHandle(table_, slot, s.gen);
}

void Simulator::push(SimTime t, std::uint32_t slot) {
  heap_.push_back({t, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

std::uint32_t Simulator::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const std::uint32_t slot = heap_.back().slot;
  heap_.pop_back();
  return slot;
}

void Simulator::release(std::uint32_t slot) {
  ++table_->slots[slot].gen;
  table_->free.push_back(slot);
}

void Simulator::drop_cancelled_head() {
  while (!heap_.empty() && table_->slots[heap_.front().slot].cancelled) {
    const std::uint32_t slot = pop();
    ++cancelled_skipped_;
    // Captures are destroyed after the slot is consistent again.
    EventFn dead = std::move(table_->slots[slot].fn);
    release(slot);
  }
}

void Simulator::fire_top() {
  DYRS_CHECK(heap_.front().time >= now_);
  now_ = heap_.front().time;
  const std::uint32_t slot = pop();
  ++executed_;
  // Moved out: the callback may grow the table, and a one-shot's captures
  // die only after its slot is released.
  EventFn fn = std::move(table_->slots[slot].fn);
  try {
    fn();
  } catch (...) {
    release(slot);
    throw;
  }
  detail::Slot& s = table_->slots[slot];
  if (s.period > 0 && !s.cancelled) {
    // The re-arm takes its seq after the callback, as a callback scheduling
    // its own successor would.
    s.fn = std::move(fn);
    push(now_ + s.period, slot);
  } else {
    release(slot);
  }
}

bool Simulator::idle() {
  drop_cancelled_head();
  return heap_.empty();
}

std::optional<SimTime> Simulator::next_event_time() {
  drop_cancelled_head();
  if (heap_.empty()) return std::nullopt;
  return heap_.front().time;
}

bool Simulator::step() {
  drop_cancelled_head();
  if (heap_.empty()) return false;
  fire_top();
  return true;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t Simulator::run_until(SimTime t) {
  DYRS_CHECK(t >= now_);
  std::size_t n = 0;
  for (;;) {
    drop_cancelled_head();
    if (heap_.empty() || heap_.front().time > t) break;
    fire_top();
    ++n;
  }
  now_ = t;
  return n;
}

}  // namespace dyrs::sim
