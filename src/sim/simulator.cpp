#include "sim/simulator.h"

namespace dyrs::sim {

EventHandle Simulator::schedule_at(SimTime t, EventFn fn) {
  DYRS_CHECK_MSG(t >= now_, "scheduling into the past: t=" << t << " now=" << now_);
  auto state = std::make_shared<detail::EventState>();
  state->time = t;
  state->seq = next_seq_++;
  state->fn = std::move(fn);
  queue_.push(state);
  return EventHandle(state);
}

EventHandle Simulator::every(SimDuration interval, EventFn fn) {
  DYRS_CHECK(interval > 0);
  // The master state is never queued; it only carries the cancellation flag
  // shared by all occurrences.
  auto master = std::make_shared<detail::EventState>();
  auto shared_fn = std::make_shared<EventFn>(std::move(fn));

  // Self-rescheduling occurrence. Captures `this` — the Simulator must
  // outlive its events, which holds because it owns the queue. Only queued
  // events own the occurrence and it refers to itself weakly, so the
  // recurrence is freed with its last queued event: after a cancel, or
  // with the queue.
  auto occurrence = std::make_shared<EventFn>();
  *occurrence = [this, master, shared_fn, self = std::weak_ptr<EventFn>(occurrence), interval]() {
    if (master->cancelled) return;
    (*shared_fn)();
    if (master->cancelled) return;
    // The queued event running this closure holds the occurrence alive.
    schedule_after(interval, [occurrence = self.lock()]() { (*occurrence)(); });
  };
  schedule_after(interval, [occurrence]() { (*occurrence)(); });

  // The master lives as long as the recurrence (the occurrence captures
  // it); the handle observes it weakly.
  return EventHandle(master);
}

void Simulator::drop_cancelled_head() {
  while (!queue_.empty() && queue_.top()->cancelled) queue_.pop();
}

bool Simulator::idle() {
  drop_cancelled_head();
  return queue_.empty();
}

std::optional<SimTime> Simulator::next_event_time() {
  drop_cancelled_head();
  if (queue_.empty()) return std::nullopt;
  return queue_.top()->time;
}

bool Simulator::step() {
  drop_cancelled_head();
  if (queue_.empty()) return false;
  auto ev = queue_.top();
  queue_.pop();
  DYRS_CHECK(ev->time >= now_);
  now_ = ev->time;
  ++executed_;
  ev->fn();
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
    if (queue_.empty() || queue_.top()->time > t) break;
    step();
    ++n;
  }
  now_ = t;
  return n;
}

}  // namespace dyrs::sim
