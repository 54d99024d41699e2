#include "sim/simulator.h"

#include <algorithm>

namespace dyrs::sim {

Simulator::~Simulator() {
  // Handles go inert first; the extra count keeps the table alive while
  // the callbacks (whose captures may hold handles) are destroyed.
  table_->alive = false;
  ++table_->handles;
  std::vector<detail::Slot>().swap(table_->slots);
  std::vector<std::uint32_t>().swap(table_->free);
  if (--table_->handles == 0) delete table_;
}

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
  // Seqs only grow, so an entry not earlier than the lane's last one keeps
  // the lane in (time, seq) order.
  const Entry e{t, next_seq_++, slot};
  if (lane_.empty() || t >= lane_.back().time) {
    lane_.push_back(e);
    return;
  }
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

std::uint32_t Simulator::pop() {
  if (lane_first()) {
    const std::uint32_t slot = lane_.front().slot;
    lane_.pop_front();
    return slot;
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const std::uint32_t slot = heap_.back().slot;
  heap_.pop_back();
  return slot;
}

void Simulator::release(std::uint32_t slot) {
  ++table_->slots[slot].gen;
  table_->free.push_back(slot);
}

const Simulator::Entry* Simulator::runnable_head() {
  for (const Entry* e = head(); e != nullptr; e = head()) {
    if (!table_->slots[e->slot].cancelled) return e;
    const std::uint32_t slot = pop();
    ++cancelled_skipped_;
    // Captures are destroyed after the slot is consistent again.
    EventFn dead = std::move(table_->slots[slot].fn);
    release(slot);
  }
  return nullptr;
}

void Simulator::fire(SimTime t) {
  DYRS_CHECK(t >= now_);
  now_ = t;
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

bool Simulator::idle() { return runnable_head() == nullptr; }

std::optional<SimTime> Simulator::next_event_time() {
  const Entry* e = runnable_head();
  if (e == nullptr) return std::nullopt;
  return e->time;
}

bool Simulator::step_until(SimTime horizon) {
  const Entry* e = runnable_head();
  if (e == nullptr || e->time > horizon) return false;
  fire(e->time);
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
  while (step_until(t)) ++n;
  now_ = t;
  return n;
}

}  // namespace dyrs::sim
