// Discrete-event scheduler.
//
// This is the substrate that replaces the Möbius simulation solver used
// by the paper: a single-threaded event loop over a calendar queue
// (timing wheel) with arena-pooled event records and eager
// cancellation. Determinism guarantees:
//   * events fire in nondecreasing time order;
//   * events scheduled for the same instant fire in scheduling order
//     (FIFO tie-break via a monotone sequence number);
//   * cancellation is O(1) and never perturbs the order of the rest.
//
// The binary heap this queue replaced survives only as the reference
// queue of the differential tests in tests/des_test.cpp.
//
// Event storage: records live in an EventArena (chunked pool +
// freelist) and callbacks are EventFn (inline small-buffer storage), so
// in steady state scheduling an event performs zero heap allocations —
// see docs/architecture.md, "Scheduler internals & event lifetime".
#pragma once

#include <cstdint>
#include <vector>

#include "des/calendar_queue.h"
#include "des/event_arena.h"
#include "des/event_fn.h"
#include "des/event_type.h"
#include "util/sim_time.h"

namespace mvsim::des {

/// Opaque handle to a scheduled event; used to cancel it.
///
/// Handles are generation-checked: a handle left over from an event
/// that already fired (or was cancelled) is safely ignored. Eight
/// bytes, so per-phone state can keep handles cheaply; a stale handle
/// would only alias a live event after 2^32 reuses of its slot.
class EventHandle {
 public:
  EventHandle() = default;
  [[nodiscard]] bool valid() const { return id_ != 0; }

 private:
  friend class Scheduler;
  EventHandle(std::uint32_t id, std::uint32_t generation) : id_(id), generation_(generation) {}
  std::uint32_t id_ = 0;
  std::uint32_t generation_ = 0;
};

/// Which priority-queue structure backs the scheduler. The calendar
/// queue is the only one; the enum stays because engine constructors
/// take it.
enum class QueueImpl : std::uint8_t {
  kWheel,  ///< calendar queue, eager cancellation
};

class Scheduler {
 public:
  using Callback = EventFn;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulation time. Starts at zero.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (must be >= now()).
  /// `type` tags the event for per-event-type profiling; it never
  /// affects ordering or results.
  ///
  /// The template overload constructs the callable directly inside the
  /// pooled event record (no intermediate EventFn, no buffer copy);
  /// the Callback overload accepts a pre-built EventFn.
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, EventFn> &&
                            std::is_invocable_v<std::decay_t<F>&>>>
  EventHandle schedule_at(SimTime at, EventType type, F&& fn) {
    if (!(at >= now_)) throw_past_deadline(at);
    if constexpr (std::is_constructible_v<bool, const std::decay_t<F>&>) {
      if (!static_cast<bool>(fn)) throw_empty_callback();
    }
    const std::uint32_t id = arena_.allocate();
    EventRecord& rec = arena_[id];
    rec.fn.assign(std::forward<F>(fn));
    if (!rec.fn.is_inline()) ++heap_fallbacks_;
    return finish_schedule(rec, id, at, type);
  }
  EventHandle schedule_at(SimTime at, EventType type, Callback fn) {
    if (!(at >= now_)) throw_past_deadline(at);
    if (!fn) throw_empty_callback();
    if (!fn.is_inline()) ++heap_fallbacks_;
    const std::uint32_t id = arena_.allocate();
    EventRecord& rec = arena_[id];
    rec.fn = std::move(fn);
    return finish_schedule(rec, id, at, type);
  }
  template <typename F>
  EventHandle schedule_at(SimTime at, F&& fn) {
    return schedule_at(at, EventType::kGeneric, std::forward<F>(fn));
  }

  /// Schedule `fn` to run `delay` from now (delay must be >= 0).
  template <typename F>
  EventHandle schedule_after(SimTime delay, EventType type, F&& fn) {
    if (!delay.is_nonnegative()) throw_negative_delay(delay);
    return schedule_at(now_ + delay, type, std::forward<F>(fn));
  }
  template <typename F>
  EventHandle schedule_after(SimTime delay, F&& fn) {
    return schedule_after(delay, EventType::kGeneric, std::forward<F>(fn));
  }

  /// Attach (or detach, with nullptr) a per-event wall-clock sink.
  /// While attached, every executed callback is timed and reported as
  /// record_event(type, microseconds). Costs two clock reads per event,
  /// so leave it off except under `--profile`.
  void set_event_timer(EventTimer* timer) { timer_ = timer; }

  /// Cancel a pending event. Returns true if the event was still
  /// pending; false if it already fired, was already cancelled, or the
  /// handle is empty. The queue entry and the pooled record are
  /// reclaimed immediately.
  bool cancel(EventHandle handle);

  /// True if the handle refers to a still-pending event.
  [[nodiscard]] bool pending(EventHandle handle) const;

  /// Run events until the queue is empty or the next event is after
  /// `until`; the clock then rests at min(until, last event time...) —
  /// specifically, the clock is advanced to `until` on return so that
  /// now() reflects the full simulated horizon.
  void run_until(SimTime until);

  /// Run every remaining event (use with care: processes to quiescence).
  void run_to_quiescence();

  /// Number of events currently pending (cancelled entries excluded).
  [[nodiscard]] std::size_t pending_count() const { return live_events_; }

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t executed_count() const { return executed_; }
  /// Total events cancelled since construction.
  [[nodiscard]] std::uint64_t cancelled_count() const { return cancelled_; }
  /// Total events ever scheduled (executed + cancelled + pending).
  [[nodiscard]] std::uint64_t scheduled_count() const { return scheduled_; }
  /// High-water mark of pending_count() — the queue-depth peak the
  /// telemetry report exposes as `des.queue_depth_peak`.
  [[nodiscard]] std::size_t peak_pending_count() const { return peak_pending_; }

  /// Cancelled events whose queue entry and pooled record have been
  /// reclaimed (the telemetry report's
  /// `des.scheduler.cancelled_reclaimed`). Cancellation reclaims
  /// eagerly, so this tracks cancelled_count().
  [[nodiscard]] std::uint64_t cancelled_reclaimed_count() const { return cancelled_reclaimed_; }

  // ---- Allocation introspection (see bench/micro_scheduler.cpp) ----

  /// Chunks backing the event pool; constant in steady state.
  [[nodiscard]] std::size_t arena_chunk_count() const { return arena_.chunk_count(); }
  /// Event records served from the freelist instead of fresh slots.
  [[nodiscard]] std::uint64_t arena_recycled_count() const { return arena_.recycled_count(); }
  /// Callbacks too large for EventFn's inline buffer (each one costs a
  /// heap allocation; in-tree callbacks never hit this).
  [[nodiscard]] std::uint64_t callback_heap_fallback_count() const { return heap_fallbacks_; }

  // ---- Calendar work counters (see CalendarQueue) ----

  /// Non-empty calendar slices served.
  [[nodiscard]] std::uint64_t slices_served() const { return wheel_.slices_served(); }
  /// Entries those slices held; entries_served() / slices_served() is
  /// the mean slice occupancy the width fit aims to keep small.
  [[nodiscard]] std::uint64_t entries_served() const { return wheel_.entries_served(); }
  /// Served slices that needed a sort.
  [[nodiscard]] std::uint64_t slice_sorts() const { return wheel_.slice_sorts(); }
  /// Width refits triggered by dense or sparse served slices.
  [[nodiscard]] std::uint64_t queue_refits() const { return wheel_.refit_count(); }

 private:
  // Cold throw paths, kept out of line so the inlined schedule fast
  // path stays small.
  [[noreturn]] void throw_past_deadline(SimTime at) const;
  [[noreturn]] static void throw_empty_callback();
  [[noreturn]] static void throw_negative_delay(SimTime delay);

  /// Common tail of schedule_at once the record's callback is set.
  EventHandle finish_schedule(EventRecord& rec, std::uint32_t id, SimTime at, EventType type) {
    rec.at = at;
    rec.type = type;
    rec.live = true;
    wheel_.insert(at.to_minutes(), next_seq_++, id);
    ++live_events_;
    ++scheduled_;
    if (live_events_ > peak_pending_) peak_pending_ = live_events_;
    return EventHandle{id, rec.generation};
  }

  /// Pops and runs the next live event at or before `*limit` (no bound
  /// when null); returns false when none qualifies.
  bool fire_next(const SimTime* limit);
  /// Fires one record in place: invalidates handles, invokes, recycles.
  void fire(EventRecord& rec, std::uint32_t id);

  SimTime now_ = SimTime::zero();
  CalendarQueue wheel_;
  EventArena arena_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_events_ = 0;
  std::size_t peak_pending_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t cancelled_reclaimed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t heap_fallbacks_ = 0;
  EventTimer* timer_ = nullptr;  // non-owning, may be null
};

}  // namespace mvsim::des
