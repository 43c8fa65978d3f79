#include "des/scheduler.h"

#include <chrono>
#include <stdexcept>
#include <utility>

namespace mvsim::des {

void Scheduler::throw_past_deadline(SimTime at) const {
  throw std::invalid_argument("Scheduler::schedule_at: time " + at.to_string() +
                              " is before now " + now_.to_string());
}

void Scheduler::throw_empty_callback() {
  throw std::invalid_argument("Scheduler::schedule_at: empty callback");
}

void Scheduler::throw_negative_delay(SimTime delay) {
  throw std::invalid_argument("Scheduler::schedule_after: negative delay " + delay.to_string());
}

bool Scheduler::cancel(EventHandle handle) {
  if (!pending(handle)) return false;
  const std::uint32_t id = handle.id_;
  EventRecord& rec = arena_[id];
  rec.live = false;
  rec.fn.reset();  // drop captures now
  ++rec.generation;  // invalidate any copies of the handle
  --live_events_;
  ++cancelled_;
  // Eager reclamation: pull the entry out of its bucket and recycle the
  // record immediately instead of letting it linger until its timestamp
  // pops (lazy cancellation lets cancel-heavy workloads grow the queue
  // without bound).
  if (wheel_.remove(rec.at.to_minutes(), id)) {
    arena_.release(id);
    ++cancelled_reclaimed_;
  }
  return true;
}

bool Scheduler::pending(EventHandle handle) const {
  if (!handle.valid() || handle.id_ > arena_.size()) return false;
  const EventRecord& rec = arena_[handle.id_];
  return rec.live && rec.generation == handle.generation_;
}

void Scheduler::fire(EventRecord& rec, std::uint32_t id) {
  const EventType type = rec.type;
  rec.live = false;
  ++rec.generation;
  --live_events_;
  ++executed_;
  // The callback runs in place: record addresses are chunk-stable and
  // the slot is only recycled after the invoke, so the callback may
  // freely schedule (even growing the arena) or cancel other events.
  if (timer_ != nullptr) {
    const auto started = std::chrono::steady_clock::now();
    rec.fn();
    timer_->record_event(
        type, std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                        started)
                  .count());
  } else {
    rec.fn();
  }
  rec.fn.reset();
  arena_.release(id);
}

bool Scheduler::fire_next(const SimTime* limit) {
  const CalendarQueue::Entry* top = wheel_.peek();
  if (top == nullptr) return false;
  // The queue key is the record's exact time in minutes, so the horizon
  // test needs no record read.
  if (limit != nullptr && top->at > limit->to_minutes()) return false;
  const std::uint32_t id = top->id;
  // Records of a deep queue are cold by the time they fire: start
  // loading the next one (when its slice is already sorted) so the
  // miss overlaps this event's callback.
  if (const CalendarQueue::Entry* next = wheel_.peek_second()) {
    __builtin_prefetch(&arena_[next->id]);
  }
  EventRecord& rec = arena_[id];
  wheel_.pop_front();
  now_ = rec.at;  // the exact SimTime, not the wheel's double key
  fire(rec, id);
  return true;
}

void Scheduler::run_until(SimTime until) {
  if (!(until >= now_)) {
    throw std::invalid_argument("Scheduler::run_until: horizon " + until.to_string() +
                                " is before now " + now_.to_string());
  }
  while (fire_next(&until)) {
  }
  now_ = until;
}

void Scheduler::run_to_quiescence() {
  while (fire_next(nullptr)) {
  }
}

}  // namespace mvsim::des
