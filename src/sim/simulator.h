// Discrete-event simulation core.
//
// Single-threaded event loop over integer-microsecond simulated time.
// Events are ordered by (time, insertion sequence) so same-time events fire
// in schedule order, making every run bit-reproducible. The queue is a
// binary heap of {time, seq, slot} values over a table of callback slots
// that recycles freed slots, so an event allocates no bookkeeping and a
// recurrence re-arms in place. Cancellation is lazy: a cancelled entry is
// dropped (its slot and captures freed) when it reaches the top, which
// keeps schedule/cancel O(log n) without heap surgery.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/units.h"

namespace dyrs::sim {

using EventFn = std::function<void()>;

namespace detail {
struct Slot {
  EventFn fn;
  SimDuration period = 0;  // 0 = one-shot
  std::uint64_t gen = 0;   // bumped on release; a handle matches one use
  bool cancelled = false;
};
struct SlotTable {
  std::vector<Slot> slots;  // moves on growth: no reference survives a callback
  std::vector<std::uint32_t> free;
};
}  // namespace detail

/// Handle to a scheduled event; allows cancellation. Copyable; all copies
/// refer to the same event. Once the event's slot is released (or its
/// Simulator destroyed) a handle reads as not pending and cancel() does
/// nothing, even when the slot now holds another event.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Safe to call repeatedly and
  /// after the event has fired.
  void cancel() {
    if (auto t = table_.lock(); t && t->slots[slot_].gen == gen_) t->slots[slot_].cancelled = true;
  }

  /// True while the event is still scheduled to fire.
  bool pending() const {
    auto t = table_.lock();
    return t && t->slots[slot_].gen == gen_ && !t->slots[slot_].cancelled;
  }

 private:
  friend class Simulator;
  EventHandle(const std::shared_ptr<detail::SlotTable>& table, std::uint32_t slot,
              std::uint64_t gen)
      : table_(table), slot_(slot), gen_(gen) {}
  std::weak_ptr<detail::SlotTable> table_;
  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute simulated time `t` (must be >= now()).
  EventHandle schedule_at(SimTime t, EventFn fn) {
    DYRS_CHECK_MSG(t >= now_, "scheduling into the past: t=" << t << " now=" << now_);
    return arm(t, 0, std::move(fn));
  }

  /// Schedules `fn` after `delay` microseconds.
  EventHandle schedule_after(SimDuration delay, EventFn fn) {
    DYRS_CHECK(delay >= 0);
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` to run every `interval`, first firing after `interval`.
  /// The first occurrence takes its seq here, each later one when the
  /// previous callback returns. A cancel stops the recurrence at once (its
  /// queued occurrence is not runnable); from inside the callback, it
  /// stops the re-arm.
  EventHandle every(SimDuration interval, EventFn fn) {
    DYRS_CHECK(interval > 0);
    return arm(now_ + interval, interval, std::move(fn));
  }

  /// Runs until the event queue is empty. Returns the number of events run.
  std::size_t run();

  /// Runs all events with time <= t, then advances now() to exactly t.
  std::size_t run_until(SimTime t);

  /// Executes the single next event, if any. Returns false when idle.
  bool step();

  /// True when no runnable (non-cancelled) events remain.
  bool idle();

  /// Time of the next runnable event, or nullopt when idle. An optional
  /// rather than a sentinel: SimTime 0 is a valid event time and negative
  /// times never enter the queue, so no in-band value can mean "none".
  std::optional<SimTime> next_event_time();

  std::size_t events_executed() const { return executed_; }
  /// Cancelled entries dropped from the queue without running.
  std::size_t cancelled_skipped() const { return cancelled_skipped_; }
  /// Slots in the event table: the most events ever live at once (a firing
  /// event is live until its callback returns), as freed slots are reused.
  std::size_t slot_count() const { return table_->slots.size(); }

 private:
  struct Entry { SimTime time; std::uint64_t seq; std::uint32_t slot; };
  /// Heap order: the earliest (time, seq) on top.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  EventHandle arm(SimTime t, SimDuration period, EventFn fn);
  void push(SimTime t, std::uint32_t slot);
  std::uint32_t pop();
  void release(std::uint32_t slot);
  void drop_cancelled_head();
  void fire_top();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
  std::size_t cancelled_skipped_ = 0;
  std::vector<Entry> heap_;
  std::shared_ptr<detail::SlotTable> table_ = std::make_shared<detail::SlotTable>();
};

}  // namespace dyrs::sim
