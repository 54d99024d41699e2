// Discrete-event simulation core.
//
// Single-threaded event loop over integer-microsecond simulated time.
// Events are ordered by (time, insertion sequence) so same-time events fire
// in schedule order, making every run bit-reproducible. Queued events are
// {time, seq, slot} values over a table of callback slots that recycles
// freed slots, so an event allocates no bookkeeping and a recurrence
// re-arms in place. They wait in one of two places: an in-order lane (a
// FIFO that takes an event in O(1) when it is not earlier than the lane's
// last entry, as a workload's pre-loaded arrivals are) or a binary heap
// (every other event). The next event is the earlier of the two heads by
// (time, seq), so the firing order is exactly a single heap's, and the
// heap holds only the short-horizon events the run keeps re-arming.
// Cancellation is lazy: a cancelled entry is dropped (its slot and
// captures freed) when it reaches the head, which keeps schedule/cancel
// O(log n) without heap surgery.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
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
/// Heap-allocated so that it can outlive its Simulator: the Simulator
/// frees its callbacks when it dies, and the table itself goes with the
/// last handle. The sim is single-threaded, so the handle count is a plain
/// integer, not an atomic refcount.
struct SlotTable {
  std::vector<Slot> slots;  // moves on growth: no reference survives a callback
  std::vector<std::uint32_t> free;
  std::size_t handles = 0;  // live EventHandles naming this table
  bool alive = true;        // false once the Simulator is destroyed

  /// The slot `slot` while it still holds use `gen` of a live Simulator.
  Slot* use(std::uint32_t slot, std::uint64_t gen) {
    return alive && slots[slot].gen == gen ? &slots[slot] : nullptr;
  }
};
}  // namespace detail

/// Handle to a scheduled event; allows cancellation. Copyable; all copies
/// refer to the same event. Once the event's slot is released (or its
/// Simulator destroyed) a handle reads as not pending and cancel() does
/// nothing, even when the slot now holds another event.
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(const EventHandle& other)
      : table_(other.table_), slot_(other.slot_), gen_(other.gen_) {
    if (table_ != nullptr) ++table_->handles;
  }
  EventHandle(EventHandle&& other) noexcept
      : table_(std::exchange(other.table_, nullptr)), slot_(other.slot_), gen_(other.gen_) {}
  /// Copy-and-swap: self-assignment, copy and move all leave each table's
  /// count equal to its live handles.
  EventHandle& operator=(EventHandle other) noexcept {
    std::swap(table_, other.table_);
    std::swap(slot_, other.slot_);
    std::swap(gen_, other.gen_);
    return *this;
  }
  ~EventHandle() {
    if (table_ != nullptr && --table_->handles == 0 && !table_->alive) delete table_;
  }

  /// Cancels the event if it has not fired yet. Safe to call repeatedly and
  /// after the event has fired.
  void cancel() {
    if (detail::Slot* s = live_slot()) s->cancelled = true;
  }

  /// True while the event is still scheduled to fire.
  bool pending() const {
    const detail::Slot* s = live_slot();
    return s != nullptr && !s->cancelled;
  }

 private:
  friend class Simulator;
  /// The slot while it still holds this handle's event, or nullptr.
  detail::Slot* live_slot() const { return table_ != nullptr ? table_->use(slot_, gen_) : nullptr; }
  EventHandle(detail::SlotTable* table, std::uint32_t slot, std::uint64_t gen)
      : table_(table), slot_(slot), gen_(gen) {
    ++table_->handles;
  }
  detail::SlotTable* table_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  /// Frees every queued callback now; handles still alive read as fired.
  ~Simulator();

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
  bool step() { return step_until(std::numeric_limits<SimTime>::max()); }

  /// Executes the next event if it is due at or before `horizon`. Returns
  /// false, leaving now() unchanged, when idle or the next event is later.
  bool step_until(SimTime horizon);

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
  /// True when the lane's head is the next entry: the earlier head by
  /// (time, seq).
  bool lane_first() const {
    return !lane_.empty() && (heap_.empty() || Later{}(heap_.front(), lane_.front()));
  }
  /// The next entry to fire, or nullptr.
  const Entry* head() const {
    if (lane_first()) return &lane_.front();
    return heap_.empty() ? nullptr : &heap_.front();
  }
  /// Removes head() (which must exist) and returns its slot.
  std::uint32_t pop();
  void release(std::uint32_t slot);
  /// Drops cancelled entries off the head; returns the runnable head.
  const Entry* runnable_head();
  /// Pops the head, due at `t`, and runs it.
  void fire(SimTime t);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
  std::size_t cancelled_skipped_ = 0;
  std::vector<Entry> heap_;
  /// In (time, seq) order; a deque releases consumed storage, so a lane
  /// that never drains stays as large as what it still holds.
  std::deque<Entry> lane_;
  detail::SlotTable* table_ = new detail::SlotTable;
};

}  // namespace dyrs::sim
